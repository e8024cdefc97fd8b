"""Plain-text table rendering for experiment reports."""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["format_table", "section"]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 *, title: str | None = None,
                 float_fmt: str = "{:.2f}") -> str:
    """Render an ASCII table (floats formatted, columns padded)."""

    def cell(v: object) -> str:
        if isinstance(v, float):
            return float_fmt.format(v)
        return str(v)

    str_rows = [[cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    sep = "  ".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
    out.append(line(headers))
    out.append(sep)
    out.extend(line(r) for r in str_rows)
    return "\n".join(out)


def section(title: str) -> str:
    """A separator heading for multi-part reports."""
    bar = "=" * max(len(title), 8)
    return f"\n{bar}\n{title}\n{bar}"
