"""Configuration encoder (paper §4, "Configuration Encoder").

Renders a native configuration — what :meth:`ConfigSpace.decode` makes of
a vector from the LHS sampler or the BO engine — as the Spark
``--conf``-file representation that would be passed to ``spark-submit``,
and parses that text back.
"""

from __future__ import annotations

import io
from typing import Any, Mapping

from .space import ConfigSpace

__all__ = ["ConfigurationEncoder"]


class ConfigurationEncoder:
    """Render native configurations of *space* as Spark config text.

    Parameters
    ----------
    space:
        The configuration space the native values come from.  The encoder
        also renders the space's frozen parameters so the emitted file is a
        complete configuration.
    """

    def __init__(self, space: ConfigSpace) -> None:
        self.space = space
        # Parameters by name over tunable + frozen, for formatting.
        self._formatters = {p.name: p for p in space.parameters}

    def to_strings(self, conf: Mapping[str, Any]) -> dict[str, str]:
        """Render a native configuration as config-file string values.

        Tunable parameters use their type-aware formatter (booleans become
        ``true``/``false``, sizes get unit suffixes); frozen or unknown keys
        fall back to ``str``.
        """
        out: dict[str, str] = {}
        for key in sorted(conf):
            p = self._formatters.get(key)
            out[key] = p.format(conf[key]) if p is not None else str(conf[key])
        return out

    def to_conf_file(self, conf: Mapping[str, Any]) -> str:
        """Render a native configuration as ``spark-defaults.conf`` text."""
        buf = io.StringIO()
        for key, value in self.to_strings(conf).items():
            buf.write(f"{key} {value}\n")
        return buf.getvalue()

    def parse_conf_file(self, text: str) -> dict[str, str]:
        """Parse ``spark-defaults.conf`` text back into string pairs.

        Blank lines and ``#`` comments are ignored; the first whitespace
        splits key from value (Spark's own format).
        """
        out: dict[str, str] = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ValueError(f"malformed configuration line: {raw!r}")
            out[parts[0]] = parts[1]
        return out
