"""Reference schedulers the simulator's stage scheduling is tested against.

The simulator turns a stage's per-task durations into a makespan with
:func:`repro.sparksim.scheduler.stage_makespan`: speculation caps, then
the vectorized wave approximation ``list_schedule_fast``.  This module
keeps the slower implementations of the same semantics that tests
compare it with:

* :func:`list_schedule_exact` — a greedy earliest-free-slot list
  scheduler over a heap;
* :class:`EventDrivenStage` — one stage's tasks executed as explicit
  events on a small discrete-event core (:class:`EventQueue`,
  :class:`Simulation`): the driver dispatches tasks serially at the
  dispatch cost, executors' slots pick them up, speculative copies launch
  when stragglers are detected, and the stage completes when its last
  task (or winning copy) finishes;
* :func:`event_driven_makespan` — the event-driven model behind the
  ``stage_makespan`` signature, so a test can swap it into a whole
  simulated run.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.sparksim import SparkConf

__all__ = ["Event", "EventQueue", "Simulation", "EventDrivenStage",
           "event_driven_makespan", "list_schedule_exact"]


def list_schedule_exact(durations: np.ndarray, slots: int,
                        dispatch_s: float = 0.0) -> float:
    """Greedy earliest-free-slot schedule; returns the makespan.

    Parameters
    ----------
    durations:
        Per-task run times, scheduled in array order.
    slots:
        Concurrent task capacity.
    dispatch_s:
        Serial driver-side dispatch cost per task: task *i* cannot start
        before ``i * dispatch_s`` (a centralized scheduler bottleneck).
    """
    durations = np.asarray(durations, dtype=float)
    if slots < 1:
        raise ValueError("slots must be >= 1")
    if durations.size == 0:
        return 0.0
    if np.any(durations < 0):
        raise ValueError("durations must be non-negative")
    free = [0.0] * min(slots, durations.size)
    heapq.heapify(free)
    makespan = 0.0
    for i, d in enumerate(durations):
        start = heapq.heappop(free)
        start = max(start, i * dispatch_s)
        end = start + float(d)
        heapq.heappush(free, end)
        makespan = max(makespan, end)
    return makespan


# -- discrete-event core ---------------------------------------------------------

@dataclass(order=True)
class Event:
    """One scheduled occurrence.

    Ordering is by time, then by insertion sequence (FIFO among
    simultaneous events), which keeps runs deterministic.
    """

    time: float
    seq: int
    kind: str = field(compare=False)
    payload: Any = field(compare=False, default=None)


class EventQueue:
    """A min-heap of events with stable FIFO tie-breaking."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()

    def push(self, time: float, kind: str, payload: Any = None) -> Event:
        if time < 0:
            raise ValueError("event time must be non-negative")
        ev = Event(time=float(time), seq=next(self._counter), kind=kind,
                   payload=payload)
        heapq.heappush(self._heap, ev)
        return ev

    def pop(self) -> Event:
        if not self._heap:
            raise IndexError("pop from empty event queue")
        return heapq.heappop(self._heap)

    def peek_time(self) -> float | None:
        return self._heap[0].time if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class Simulation:
    """Event loop dispatching to registered handlers.

    Handlers receive ``(sim, event)`` and may push further events; the
    loop runs until the queue drains, a time horizon passes, or a handler
    calls :meth:`stop`.
    """

    def __init__(self) -> None:
        self.queue = EventQueue()
        self.now = 0.0
        self._handlers: dict[str, Callable[["Simulation", Event], None]] = {}
        self._stopped = False
        self.processed = 0

    def on(self, kind: str,
           handler: Callable[["Simulation", Event], None]) -> None:
        """Register the handler for an event kind (one per kind)."""
        if kind in self._handlers:
            raise ValueError(f"handler for {kind!r} already registered")
        self._handlers[kind] = handler

    def schedule(self, delay: float, kind: str, payload: Any = None) -> Event:
        """Schedule an event *delay* after the current time."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.queue.push(self.now + delay, kind, payload)

    def stop(self) -> None:
        """Request loop termination after the current event."""
        self._stopped = True

    def run(self, until: float | None = None) -> float:
        """Process events; returns the final simulation time.

        Parameters
        ----------
        until:
            Optional horizon: events after this time stay unprocessed and
            ``now`` is clamped to the horizon.
        """
        while self.queue and not self._stopped:
            if until is not None and self.queue.peek_time() > until:
                self.now = until
                return self.now
            ev = self.queue.pop()
            if ev.time < self.now - 1e-12:
                raise RuntimeError("event queue went backwards in time")
            self.now = ev.time
            handler = self._handlers.get(ev.kind)
            if handler is None:
                raise KeyError(f"no handler registered for event {ev.kind!r}")
            handler(self, ev)
            self.processed += 1
        return self.now


# -- event-driven stage execution -------------------------------------------------

@dataclass
class _TaskState:
    """Book-keeping for one task attempt set."""

    duration: float
    started_at: float | None = None
    finished: bool = False
    speculative_started: bool = False


class EventDrivenStage:
    """Execute one stage's task set on a slot pool, event by event.

    Parameters
    ----------
    durations:
        Per-task base durations (already noise-inflated).
    slots:
        Concurrent task slots.
    dispatch_s:
        Serial driver dispatch cost per task launch: task *i* starts no
        earlier than ``i * dispatch_s``.
    conf:
        Supplies the speculation policy (on/off, multiplier, quantile).
    speculative_copy_factor:
        A speculative copy's duration relative to the stage median
        (detection happens late, so copies behave like typical tasks).
    """

    def __init__(self, durations: np.ndarray, slots: int,
                 dispatch_s: float = 0.0, conf: SparkConf | None = None,
                 speculative_copy_factor: float = 1.0):
        durations = np.asarray(durations, dtype=float)
        if durations.ndim != 1:
            raise ValueError("durations must be 1-D")
        if np.any(durations < 0):
            raise ValueError("durations must be non-negative")
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.durations = durations
        self.slots = slots
        self.dispatch_s = dispatch_s
        self.conf = conf or SparkConf()
        self.copy_factor = speculative_copy_factor
        # Filled by run():
        self.makespan = 0.0
        self.speculative_launches = 0
        self.wasted_core_s = 0.0

    def run(self) -> float:
        """Execute the stage; returns the makespan in seconds."""
        n = len(self.durations)
        if n == 0:
            return 0.0
        sim = Simulation()
        tasks = [_TaskState(float(d)) for d in self.durations]
        pending = list(range(n))       # not yet dispatched, FIFO
        free_slots = [self.slots]      # boxed int for handler mutation
        finished_count = [0]
        median = float(np.median(self.durations))
        spec_on = self.conf.speculation and n >= 2
        threshold = self.conf.speculation_multiplier * median
        quantile_count = int(np.ceil(float(self.conf["spark.speculation.quantile"]) * n))

        def try_dispatch(sim: Simulation) -> None:
            while free_slots[0] > 0 and pending:
                tid = pending.pop(0)
                st = tasks[tid]
                free_slots[0] -= 1
                # The driver launches tasks one at a time, in order.
                st.started_at = max(sim.now, tid * self.dispatch_s)
                launch_delay = st.started_at - sim.now
                sim.schedule(launch_delay + st.duration, "finish",
                             (tid, False))
                if spec_on:
                    # Check this task for speculation once the threshold
                    # would be exceeded.
                    sim.schedule(launch_delay + threshold, "spec-check", tid)

        def on_finish(sim: Simulation, ev) -> None:
            tid, is_copy = ev.payload
            st = tasks[tid]
            free_slots[0] += 1
            if st.finished:
                # The other attempt already won; this work was wasted.
                self.wasted_core_s += st.duration if not is_copy else \
                    median * self.copy_factor
                try_dispatch(sim)
                return
            st.finished = True
            finished_count[0] += 1
            if finished_count[0] == n:
                self.makespan = sim.now
                sim.stop()
                return
            try_dispatch(sim)

        def on_spec_check(sim: Simulation, ev) -> None:
            tid = ev.payload
            st = tasks[tid]
            if (st.finished or st.speculative_started
                    or finished_count[0] < quantile_count
                    or free_slots[0] <= 0):
                return
            st.speculative_started = True
            self.speculative_launches += 1
            free_slots[0] -= 1
            sim.schedule(median * self.copy_factor, "finish", (tid, True))

        sim.on("dispatch", lambda s, e: try_dispatch(s))
        sim.on("finish", on_finish)
        sim.on("spec-check", on_spec_check)
        sim.schedule(0.0, "dispatch")
        sim.run()
        if not all(t.finished for t in tasks):  # pragma: no cover - safety
            raise RuntimeError("stage ended with unfinished tasks")
        return self.makespan


def event_driven_makespan(durations: np.ndarray, conf: SparkConf,
                          slots: int, dispatch_s: float = 0.0
                          ) -> tuple[float, int]:
    """Drop-in event-driven replacement for ``stage_makespan``.

    Returns (makespan seconds, wave count) like the vectorized path.
    """
    stage = EventDrivenStage(durations, slots, dispatch_s, conf)
    makespan = stage.run()
    n = len(np.atleast_1d(durations))
    waves = -(-n // max(min(slots, n), 1)) if n else 0
    return makespan, waves
