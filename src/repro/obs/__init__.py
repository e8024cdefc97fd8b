"""Structured tracing and metrics for tuning sessions (docs/OBSERVABILITY.md).

A zero-dependency observability layer: :class:`Tracer` records typed
events, nestable spans and counters/timers to pluggable sinks — a
JSONL writer (flushed per record, fsync'd at close) for post-hoc
analysis and an in-memory sink for tests.  The default
:data:`NULL_TRACER` is a no-op, so instrumented code paths make
identical decisions whether or not tracing is enabled.

Timing comes from an injected monotonic clock, never wall-clock, and is
confined to the ``t``/``dur`` envelope fields and the timers registry —
tuner *decisions* must never read it (rule RPD003/RPD005 in
``repro.analysis``).
"""

from .events import (EVENT_TYPES, TRACE_SCHEMA_VERSION, evaluation_data,
                     validate_record, validate_trace)
from .report import (TraceSummary, load_trace, render_aggregate,
                     render_summary, summarize)
from .sinks import InMemorySink, JsonlTraceWriter
from .tracer import NULL_TRACER, NullTracer, Tracer, as_tracer

__all__ = [
    "EVENT_TYPES", "TRACE_SCHEMA_VERSION", "evaluation_data",
    "validate_record", "validate_trace",
    "TraceSummary", "load_trace", "render_aggregate", "render_summary",
    "summarize",
    "InMemorySink", "JsonlTraceWriter",
    "NULL_TRACER", "NullTracer", "Tracer", "as_tracer",
]
