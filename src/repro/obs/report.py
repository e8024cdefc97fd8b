"""Fold a trace into a human-readable run summary.

The JSONL trace is an event stream; this module turns it back into the
questions a tuning practitioner actually asks: where did the time go
(per-component breakdown), what did GP-Hedge believe over the session
(probability trajectory), how often did the guard kill, the memo stores
pay off, faults fire.  ``--trace-summary`` on the CLI renders exactly
this, and :func:`render_aggregate` gives the cross-tuner view for
comparison studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .durable import read_jsonl

__all__ = ["TraceSummary", "load_trace", "summarize", "render_summary",
           "render_aggregate"]


def load_trace(path: str | Path) -> list[dict[str, Any]]:
    """Parse a JSONL trace; a torn final line (crash artifact) is tolerated
    by stopping at the first corrupt line, like the evaluation journal."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no trace at {path}")
    return read_jsonl(path)


@dataclass
class TraceSummary:
    """Everything :func:`render_summary` needs, precomputed."""

    meta: dict[str, Any] = field(default_factory=dict)
    n_events: int = 0
    event_counts: dict[str, int] = field(default_factory=dict)
    #: span name → [total seconds, completions]
    span_times: dict[str, list[float]] = field(default_factory=dict)
    #: acquisition names from the first hedge.probs event
    acquisition_names: list[str] = field(default_factory=list)
    #: one probability vector per hedge.probs event
    hedge_trajectory: list[list[float]] = field(default_factory=list)
    evals: int = 0
    eval_failures: int = 0
    best_objective: float | None = None
    guard_kills: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    memo_stores: int = 0
    faults_injected: int = 0
    retries: int = 0
    gp_fits: int = 0
    fallbacks: int = 0
    counters: dict[str, int] = field(default_factory=dict)
    timers: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def tuner(self) -> str:
        return str(self.meta.get("tuner", "?"))


def summarize(records: Iterable[Mapping[str, Any]]) -> TraceSummary:
    """Fold a record stream (from a sink or :func:`load_trace`)."""
    s = TraceSummary()
    for record in records:
        kind = record.get("kind")
        if kind == "meta":
            s.meta = {k: v for k, v in record.items()
                      if k not in ("kind", "schema")}
            continue
        if kind == "metrics":
            s.counters = dict(record.get("counters", {}))
            s.timers = dict(record.get("timers", {}))
            continue
        if kind != "event":
            continue
        etype = str(record.get("type"))
        data = record.get("data", {})
        s.n_events += 1
        s.event_counts[etype] = s.event_counts.get(etype, 0) + 1
        if etype == "span.end":
            entry = s.span_times.setdefault(str(data.get("name")), [0.0, 0])
            entry[0] += float(data.get("dur", 0.0))
            entry[1] += 1
        elif etype == "eval.result":
            s.evals += 1
            if data.get("status") == "success":
                y = float(data.get("objective", float("inf")))
                if s.best_objective is None or y < s.best_objective:
                    s.best_objective = y
            else:
                s.eval_failures += 1
        elif etype == "hedge.probs":
            if not s.acquisition_names:
                s.acquisition_names = [str(n) for n in data.get("names", [])]
            s.hedge_trajectory.append([float(p)
                                       for p in data.get("probs", [])])
        elif etype == "guard.kill":
            s.guard_kills += 1
        elif etype == "memo.hit":
            s.memo_hits += 1
        elif etype == "memo.miss":
            s.memo_misses += 1
        elif etype == "memo.store":
            s.memo_stores += 1
        elif etype == "fault.injected":
            s.faults_injected += 1
        elif etype == "retry.attempt":
            s.retries += 1
        elif etype == "gp.fit":
            s.gp_fits += 1
        elif etype == "bo.iteration" and data.get("fallback"):
            s.fallbacks += 1
    return s


def _fmt_s(seconds: float) -> str:
    return f"{seconds * 1e3:.1f}ms" if seconds < 1.0 else f"{seconds:.2f}s"


def render_summary(summary: TraceSummary) -> str:
    """Render one session's fold-up as plain text."""
    lines: list[str] = []
    ident = ", ".join(f"{k}={v}" for k, v in sorted(summary.meta.items()))
    lines.append(f"trace summary ({ident})" if ident else "trace summary")
    best = ("n/a" if summary.best_objective is None
            else f"{summary.best_objective:.3f}")
    lines.append(f"  evaluations: {summary.evals} "
                 f"({summary.eval_failures} failed), best objective {best}")
    lines.append(f"  decisions: {summary.gp_fits} GP fits, "
                 f"{summary.fallbacks} BO fallbacks, "
                 f"{summary.guard_kills} guard kills")
    lines.append(f"  memoization: {summary.memo_hits} hits / "
                 f"{summary.memo_misses} misses / {summary.memo_stores} stores")
    lines.append(f"  resilience: {summary.faults_injected} faults injected, "
                 f"{summary.retries} retries")
    if summary.span_times:
        lines.append("  time by component:")
        order = sorted(summary.span_times.items(), key=lambda kv: -kv[1][0])
        for name, (total, count) in order:
            lines.append(f"    {name:<18} {_fmt_s(total):>10}  (x{count})")
    if summary.timers:
        lines.append("  timers:")
        for name in sorted(summary.timers):
            t = summary.timers[name]
            lines.append(f"    {name:<18} {_fmt_s(float(t['total_s'])):>10}"
                         f"  (x{int(t['count'])})")
    if summary.hedge_trajectory:
        names = summary.acquisition_names or [
            f"acq{i}" for i in range(len(summary.hedge_trajectory[0]))]
        lines.append("  hedge probabilities (first -> last):")
        lines.append("    " + "  ".join(f"{n:>8}" for n in names))
        rows = _spread(summary.hedge_trajectory, 8)
        for row in rows:
            lines.append("    " + "  ".join(f"{p:8.3f}" for p in row))
    return "\n".join(lines)


def _spread(rows: Sequence[Any], k: int) -> list[Any]:
    """Up to *k* rows evenly spread over the sequence (ends included)."""
    if len(rows) <= k:
        return list(rows)
    idx = [round(i * (len(rows) - 1) / (k - 1)) for i in range(k)]
    return [rows[i] for i in idx]


def render_aggregate(summaries: Iterable[TraceSummary]) -> str:
    """Cross-tuner aggregation table for a comparison study's traces.

    Sessions are grouped by the tuner named in their meta record; counts
    are summed across sessions and the best objective is the group-wide
    minimum.
    """
    groups: dict[str, list[TraceSummary]] = {}
    for s in summaries:
        groups.setdefault(s.tuner, []).append(s)
    if not groups:
        return "no traces"
    header = (f"{'tuner':<14} {'sessions':>8} {'evals':>7} {'failed':>7} "
              f"{'kills':>6} {'memo':>5} {'faults':>7} {'retries':>8} "
              f"{'best':>10}")
    lines = [header, "-" * len(header)]
    for tuner in sorted(groups):
        g = groups[tuner]
        best = min((s.best_objective for s in g
                    if s.best_objective is not None), default=None)
        lines.append(
            f"{tuner:<14} {len(g):>8} {sum(s.evals for s in g):>7} "
            f"{sum(s.eval_failures for s in g):>7} "
            f"{sum(s.guard_kills for s in g):>6} "
            f"{sum(s.memo_hits for s in g):>5} "
            f"{sum(s.faults_injected for s in g):>7} "
            f"{sum(s.retries for s in g):>8} "
            f"{'n/a' if best is None else format(best, '10.3f'):>10}")
    return "\n".join(lines)
