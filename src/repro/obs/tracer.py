"""The tracer: typed events, nestable spans, counters and timers.

Two implementations share one duck-typed surface:

* :class:`Tracer` — records to one or more sinks, stamping each event
  with a monotonic timestamp from an *injected* clock (defaults to
  ``time.monotonic``; tests inject a fake).  Thread-safe: event ids are
  assigned under a lock and span nesting is tracked per thread, so
  events emitted from worker threads land in the right span.
* :class:`NullTracer` — the default everywhere.  Every method is a
  no-op, which is what keeps instrumented decision paths bit-identical
  to uninstrumented ones: instrumentation may only ever *observe*.

Timing never reaches decision code: it is written into the ``t``/``dur``
envelope fields and the timers registry only.  This module and
``core/guard.py`` are the repo's only legitimate clock readers (rule
RPD005 in ``repro.analysis``).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Mapping

import numpy as np

from .events import TRACE_SCHEMA_VERSION

__all__ = ["Tracer", "NullTracer", "NULL_TRACER", "as_tracer"]


def _scrub(value: Any) -> Any:
    """Make a payload JSON-ready (numpy scalars/arrays → native types)."""
    if isinstance(value, Mapping):
        return {str(k): _scrub(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_scrub(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return _scrub(value.tolist())
    return value


class _NullContext:
    """Reusable no-op context manager for NullTracer spans/timers."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_CTX = _NullContext()


class NullTracer:
    """A tracer that records nothing (the default everywhere)."""

    #: False so hot paths can skip building expensive payloads entirely.
    active = False

    def emit(self, type: str, data: Mapping[str, Any] | None = None) -> None:
        return None

    def count(self, name: str, n: int = 1) -> None:
        return None

    def span(self, name: str, **attrs: Any) -> _NullContext:
        return _NULL_CTX

    def timer(self, name: str) -> _NullContext:
        return _NULL_CTX

    def close(self) -> None:
        return None


NULL_TRACER = NullTracer()


def as_tracer(tracer: Any | None) -> Any:
    """Normalize an optional tracer argument (None → :data:`NULL_TRACER`)."""
    return NULL_TRACER if tracer is None else tracer


class _Span:
    """Context manager emitting ``span.start``/``span.end`` around a block."""

    __slots__ = ("_tracer", "_name", "_attrs", "_id", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        self._id, self._t0 = self._tracer._open_span(self._name, self._attrs)
        return self

    def __exit__(self, *exc: object) -> None:
        self._tracer._close_span(self._id, self._name, self._t0)


class _Timer:
    """Context manager accumulating elapsed time into the timers registry."""

    __slots__ = ("_tracer", "_name", "_t0")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Timer":
        self._t0 = self._tracer._clock()
        return self

    def __exit__(self, *exc: object) -> None:
        self._tracer._add_time(self._name, self._tracer._clock() - self._t0)


class Tracer:
    """Records typed events, spans and metrics to the given sinks.

    Parameters
    ----------
    sinks:
        One sink or an iterable of sinks (anything with
        ``write(record)``/``close()`` — see :mod:`repro.obs.sinks`).
    clock:
        Monotonic time source; injected so tests can fake it and so the
        single real clock read stays inside this module.
    meta:
        Identity fields for the opening ``meta`` record (tuner name,
        workload, seed, budget, ...).

    Events emitted after :meth:`close` are dropped silently — a store
    that outlives a traced session must not crash the next one.
    """

    active = True

    def __init__(self, sinks: Any, *,
                 clock: Callable[[], float] = time.monotonic,
                 meta: Mapping[str, Any] | None = None):
        if hasattr(sinks, "write"):
            sinks = [sinks]
        self._sinks = list(sinks)
        self._clock = clock
        self._t0 = clock()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._counters: dict[str, int] = {}
        self._timers: dict[str, list[float]] = {}
        self._closed = False
        self._write({"kind": "meta", "schema": TRACE_SCHEMA_VERSION,
                     **_scrub(dict(meta or {}))})

    # -- recording ----------------------------------------------------------------
    def emit(self, type: str, data: Mapping[str, Any] | None = None) -> int:
        """Record one typed event; returns its id (-1 once closed)."""
        return self._emit(type, data, span=self._current_span())

    def count(self, name: str, n: int = 1) -> None:
        """Increment a named counter (flushed in the final metrics record)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(n)

    def span(self, name: str, **attrs: Any) -> _Span:
        """Open a nestable span: ``with tracer.span("bo", budget=80): ...``"""
        return _Span(self, name, attrs)

    def timer(self, name: str) -> _Timer:
        """Accumulate a block's elapsed time under *name* in the registry."""
        return _Timer(self, name)

    # -- registries ---------------------------------------------------------------
    @property
    def counters(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counters)

    @property
    def timers(self) -> dict[str, dict[str, float]]:
        with self._lock:
            return {name: {"total_s": total, "count": int(count)}
                    for name, (total, count) in self._timers.items()}

    # -- lifecycle ----------------------------------------------------------------
    def close(self) -> None:
        """Flush the metrics record and close all sinks (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            record = {"kind": "metrics", "counters": dict(self._counters),
                      "timers": {name: {"total_s": total, "count": int(count)}
                                 for name, (total, count)
                                 in self._timers.items()}}
        for sink in self._sinks:
            sink.write(record)
            sink.close()

    # -- internals ----------------------------------------------------------------
    def _span_stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current_span(self) -> int | None:
        stack = self._span_stack()
        return stack[-1] if stack else None

    def _emit(self, type: str, data: Mapping[str, Any] | None,
              span: int | None) -> int:
        with self._lock:
            if self._closed:
                return -1
            event_id = self._next_id
            self._next_id += 1
            record = {"kind": "event", "id": event_id,
                      "t": self._clock() - self._t0, "span": span,
                      "type": type, "data": _scrub(dict(data or {}))}
            for sink in self._sinks:
                sink.write(record)
        return event_id

    def _open_span(self, name: str, attrs: dict[str, Any]) -> tuple[int, float]:
        span_id = self._emit("span.start", {"name": name, **attrs},
                             span=self._current_span())
        self._span_stack().append(span_id)
        return span_id, self._clock()

    def _close_span(self, span_id: int, name: str, t0: float) -> None:
        stack = self._span_stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        self._emit("span.end", {"name": name, "dur": self._clock() - t0},
                   span=self._current_span())

    def _add_time(self, name: str, elapsed: float) -> None:
        with self._lock:
            entry = self._timers.setdefault(name, [0.0, 0])
            entry[0] += float(elapsed)
            entry[1] += 1

    def _write(self, record: dict[str, Any]) -> None:
        with self._lock:
            if self._closed:
                return
            for sink in self._sinks:
                sink.write(record)
