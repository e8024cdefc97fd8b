"""In-memory span recorder for the benchmark's traced run.

Spans are opened by wrappers the benchmark installs around each layer's
public entry points (see :mod:`layers`); nothing inside ``repro`` records
them.  Every thread keeps its own stack, so a span's parent is the span
open on the same thread when it started, and every span carries the
session id current on its thread (set with :meth:`SpanRecorder.session`,
or by a wrapper that learns the id from its call).  Spans stay in memory
until the run ends and are then dumped as JSON.

Self time and the per-session residual are computed from the intervals
alone, so spans recorded in different processes (the serve client and
the daemon share one monotonic clock) combine without alignment.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator

__all__ = ["Span", "SpanRecorder", "coverage", "self_times",
           "unattributed", "dump", "load"]


@dataclass
class Span:
    """One timed call at a layer boundary."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    session: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Per-thread span stacks plus named counters.

    *clock* must be shared by every process whose spans are combined;
    :func:`time.monotonic` is system-wide on Linux.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic,
                 id_offset: int = 0) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(id_offset + 1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- thread state --------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current_session(self) -> str | None:
        return getattr(self._local, "session", None)

    @current_session.setter
    def current_session(self, sid: str | None) -> None:
        self._local.session = sid

    def innermost(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def session(self, sid: str) -> Iterator[Span]:
        """Tag every span this thread opens with *sid*, inside a span
        named ``session`` that measures the whole session."""
        previous = self.current_session
        self.current_session = sid
        try:
            with self.span("session") as span:
                yield span
        finally:
            self.current_session = previous

    # -- recording -----------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1].id if stack else None
        span = Span(next(self._ids), name, self.clock(), 0.0, parent,
                    self.current_session)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] += n


# -- interval arithmetic -----------------------------------------------------------
def coverage(intervals: Iterable[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - coverage(children[s.id], s.start, s.end)
            for s in spans}


def unattributed(session: Span, layer_spans: Iterable[Span]) -> float:
    """Session wall time the given top-level layer spans leave uncovered."""
    return session.duration - coverage(
        ((s.start, s.end) for s in layer_spans), session.start, session.end)


# -- persistence -------------------------------------------------------------------
def dump(recorder: SpanRecorder) -> dict:
    return {"spans": [asdict(s) for s in recorder.spans],
            "counters": dict(recorder.counters)}


def load(payload: dict) -> tuple[list[Span], dict[str, float]]:
    return ([Span(**s) for s in payload["spans"]],
            dict(payload["counters"]))
