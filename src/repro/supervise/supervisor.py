"""The BO loop's evaluation executor: every in-flight task is accountable.

:class:`EvaluationSupervisor` is the one executor behind the BO engine's
dispatch/fold loop (:meth:`repro.core.BOEngine.minimize`).  The caller
submits *factories* — zero-argument callables that build a fresh
runnable thunk per physical dispatch, so a redispatch or speculative
twin gets its own objective view — and collects :class:`Completed`,
:class:`DeadlineHit` or :class:`TaskFailed` outcomes in completion
order.

Where a thunk runs follows from the worker count and the policy.  One
worker with no policy runs each thunk on the collecting thread when
:meth:`~EvaluationSupervisor.next_outcome` takes it, first in first out:
the paper's serial loop, with no thread at all.  Every other setting
runs each dispatch on its own daemon thread feeding one completion
queue, so a hung evaluation wedges only its own thread, which the
executor can abandon; results already in settle in dispatch order.

One exception rule holds in every mode.  Under a
:class:`SupervisePolicy` a :class:`WorkerDeath` is reclaimed
(redispatched up to :data:`MAX_REDISPATCH` times) and then written off
as :class:`TaskFailed`; every other exception propagates out of
:meth:`~EvaluationSupervisor.next_outcome`.  Without a policy nothing is
reclaimed and no deadline applies, adaptive or hard.

The executor is the one component in the library that legitimately
reads the wall clock on a decision path (via an injected monotonic
clock; analysis rule RPD005 exempts ``supervise/``): deadlines and
straggler detection are facts about real elapsed time, which is exactly
why supervised runs are documented as not bit-reproducible
(docs/ROBUSTNESS.md).
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from ..obs import as_tracer
from .deadline import DeadlinePolicy
from .quarantine import PoisonQuarantine

__all__ = ["SupervisePolicy", "EvaluationSupervisor", "WorkerDeath",
           "Completed", "DeadlineHit", "TaskFailed"]

#: Redispatches a task whose worker died gets before it is written off.
MAX_REDISPATCH = 1
#: Longest :meth:`EvaluationSupervisor.close` joins running dispatches,
#: in total; any still running after it is abandoned.
CLOSE_TIMEOUT_S = 5.0


class WorkerDeath(RuntimeError):
    """The worker running an evaluation died mid-run.

    The one exception a :class:`SupervisePolicy` reclaims: the evaluation
    is redispatched, and written off once redispatch is exhausted.
    Raised before the objective executes (as
    :class:`repro.faults.HangInjector` raises it), so a redispatch re-runs
    the whole evaluation — what a real evaluator process crash
    looks like to the engine.
    """


@dataclass(frozen=True)
class SupervisePolicy:
    """What supervised execution enforces (docs/ROBUSTNESS.md).

    ``eval_timeout_s`` is the CLI's ``--eval-timeout`` hard cap; the
    adaptive deadline/straggler thresholds come from a running quantile
    of completed durations (:class:`DeadlinePolicy`).  ``speculate``
    enables straggler twins; ``quarantine_after`` is the poison-config
    strike cap.
    """

    eval_timeout_s: float | None = None
    speculate: bool = False
    quarantine_after: int = 3

    def __post_init__(self) -> None:
        if self.eval_timeout_s is not None and self.eval_timeout_s <= 0:
            raise ValueError("eval_timeout_s must be positive")
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")


@dataclass(frozen=True)
class Completed:
    """A supervised evaluation finished; ``result`` is the thunk's value."""

    tag: Any
    result: Any
    duration_s: float
    speculative: bool = False  # True when the twin beat the original


@dataclass(frozen=True)
class DeadlineHit:
    """An evaluation blew its deadline and was abandoned."""

    tag: Any
    key: bytes | None
    elapsed_s: float
    deadline_s: float
    quarantined: bool


@dataclass(frozen=True)
class TaskFailed:
    """Every dispatch of an evaluation died and redispatch is exhausted."""

    tag: Any
    key: bytes | None
    error: BaseException
    quarantined: bool


@dataclass
class _Task:
    tag: Any
    key: bytes | None
    factory: Callable[[], Callable[[], Any]]
    live: dict = field(default_factory=dict)     # dispatch seq -> its time
    twins: set = field(default_factory=set)      # speculative dispatch seqs
    first_dispatch: float = 0.0
    last_dispatch: float = 0.0
    speculated: bool = False
    redispatches: int = 0


def _call(thunk: Callable[[], Any]) -> tuple[Any, BaseException | None]:
    """``(result, None)``, or ``(None, exception)`` when *thunk* raised."""
    try:
        return thunk(), None
    except BaseException as exc:  # noqa: BLE001 - relayed to the collector
        return None, exc


class EvaluationSupervisor:
    """Run evaluations: deadlines, reclaim, speculation, quarantine.

    A task's deadline runs from its latest dispatch: a redispatch after a
    worker death, or a speculative twin, restarts it.

    Parameters
    ----------
    workers:
        Dispatches in flight at most (a speculative twin takes a slot).
        An explicit count, never derived from CPUs: evaluations overlap
        *latency*, which threads do regardless of core count.
    policy:
        A :class:`SupervisePolicy`, or None: no deadline, reclaim,
        speculation or quarantine.
    tracer:
        Optional tracer.  Threaded dispatches accumulate in the
        ``pool.task`` timer, and every dispatch given up on (a deadline
        hit, a losing twin, one still running at :meth:`close`) bumps
        the ``pool.abandoned_tasks`` counter.  A policy adds the
        ``supervise.speculate`` / ``supervise.reclaim`` /
        ``supervise.deadline_hit`` / ``supervise.quarantine`` events and
        same-named counters.
    clock:
        Monotonic time source (injected so tests can fake time).
    """

    def __init__(self, workers: int, policy: SupervisePolicy | None = None,
                 *, tracer=None,
                 clock: Callable[[], float] = time.monotonic):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self.policy = policy
        #: False for one worker with no policy: each thunk then runs on
        #: the collecting thread.
        self.threaded = workers > 1 or policy is not None
        self.deadlines = None if policy is None \
            else DeadlinePolicy(policy.eval_timeout_s)
        self.quarantine = None if policy is None \
            else PoisonQuarantine(policy.quarantine_after)
        self.abandoned_tasks = 0
        self._speculate = policy is not None and policy.speculate
        self._tracer = as_tracer(tracer)
        self._clock = clock
        self._tasks: dict[Any, _Task] = {}        # tag -> task in flight
        self._live: dict[int, _Task] = {}         # dispatch seq -> its task
        self._threads: dict[int, threading.Thread] = {}  # the join set
        self._queue: deque = deque()              # (seq, thunk), unthreaded
        self._completions: queue.Queue = queue.Queue()  # (seq, result, exc)
        self._ready: dict[int, tuple[Any, BaseException | None]] = {}
        self._n_dispatched = 0

    # -- caller surface -----------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Distinct evaluations in flight (twins don't count)."""
        return len(self._tasks)

    @property
    def free_workers(self) -> int:
        """Slots free for another dispatch."""
        return self.workers - len(self._live)

    def submit(self, factory: Callable[[], Callable[[], Any]], *,
               tag: Any, key: bytes | None = None) -> None:
        """Dispatch a new evaluation.

        *factory* is called once per physical dispatch (always on the
        caller's thread) and must return a fresh zero-argument thunk —
        typically closing over a newly spawned objective view.  *key*
        identifies the underlying config for quarantine accounting.
        """
        if tag in self._tasks:
            raise RuntimeError(f"task {tag!r} is already supervised")
        if self.free_workers < 1:
            raise RuntimeError(
                f"executor is full ({self.workers} dispatches in flight); "
                "collect with next_outcome() before submitting more")
        task = _Task(tag=tag, key=key, factory=factory)
        self._tasks[tag] = task
        self._dispatch(task)
        task.first_dispatch = task.last_dispatch

    def next_outcome(self) -> Completed | DeadlineHit | TaskFailed:
        """Block until one evaluation settles.

        A thunk's exception re-raises here, after its task left the
        executor — unless it is a :class:`WorkerDeath` under a policy.
        Under a policy every wait ends at the nearest deadline or
        straggler threshold, so a wedged worker can only delay the
        executor until its deadline — never forever, as long as a
        deadline source (hard cap or warmed-up quantile) exists.  With
        none, or nothing due, the wait is for the next completion, the
        only event that can change a threshold or free a slot.
        """
        if not self._tasks:
            raise RuntimeError("no tasks in flight")
        while True:
            if self._queue:
                seq, thunk = self._queue.popleft()
                self._ready[seq] = _call(thunk)
            else:
                self._drain()
            if self._ready:
                # Results already in are settled before any deadline is
                # judged: one that waited while the caller was busy
                # (proposing the next point) finished in time.
                seq = min(self._ready)  # dispatch-order tie-break
                outcome = self._settle(seq, *self._ready.pop(seq))
                if outcome is not None:
                    return outcome
                continue
            hit = self._sweep()
            if hit is not None:
                return hit
            try:
                self._absorb(*self._completions.get(
                    timeout=self._nearest_wait()))
            except queue.Empty:
                pass  # re-sweep: something is now due

    def close(self) -> None:
        """Shut down; never blocks longer than :data:`CLOSE_TIMEOUT_S`.

        Queued work is dropped.  Running dispatches share one bounded
        join, and any still running after it is abandoned rather than
        waited on forever.  Dispatches abandoned earlier left the join
        set, so a hung one costs nothing here.
        """
        threads = list(self._threads.items())
        for _, thread in threads:
            thread.join(timeout=CLOSE_TIMEOUT_S / len(threads))
        for seq, thread in threads:
            if thread.is_alive():
                self._abandon(seq)
        self._queue.clear()
        self._tasks.clear()
        self._live.clear()
        self._threads.clear()
        self._ready.clear()

    def __enter__(self) -> "EvaluationSupervisor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- internals ----------------------------------------------------------------
    def _dispatch(self, task: _Task, *, twin: bool = False) -> None:
        seq = self._n_dispatched
        self._n_dispatched += 1
        thunk = task.factory()
        self._live[seq] = task
        task.live[seq] = task.last_dispatch = self._clock()
        if twin:
            task.twins.add(seq)
        if not self.threaded:
            self._queue.append((seq, thunk))
            return

        def work() -> None:
            with self._tracer.timer("pool.task"):
                outcome = _call(thunk)
            self._completions.put((seq, *outcome))

        thread = threading.Thread(target=work, daemon=True,
                                  name=f"evaluation-{seq}")
        self._threads[seq] = thread
        thread.start()

    def _drain(self) -> None:
        """File every completion already queued."""
        try:
            while True:
                self._absorb(*self._completions.get_nowait())
        except queue.Empty:
            pass

    def _absorb(self, seq: int, result: Any,
                exc: BaseException | None) -> None:
        """File one completion; an abandoned dispatch's late result drops."""
        if seq in self._live:
            self._ready[seq] = (result, exc)

    def _abandon(self, seq: int) -> None:
        """Give up on one dispatch: its slot frees, it leaves the join set,
        and a result it still produces is dropped.  Its thread is a daemon,
        so it cannot block interpreter exit."""
        del self._live[seq]
        self._threads.pop(seq, None)
        self._ready.pop(seq, None)
        self.abandoned_tasks += 1
        self._tracer.count("pool.abandoned_tasks")

    def _retire(self, task: _Task) -> None:
        """Take *task* out of flight, abandoning its dispatches still live."""
        del self._tasks[task.tag]
        for seq in task.live:
            self._abandon(seq)

    def _thresholds(self) -> tuple[float | None, float | None]:
        """(deadline, straggler threshold); None where none applies."""
        if self.deadlines is None:
            return None, None
        straggler = (self.deadlines.straggler_threshold_s()
                     if self._speculate else None)
        return self.deadlines.deadline_s(), straggler

    def _nearest_wait(self) -> float | None:
        """Seconds until the next deadline/straggler decision is due
        (None: wait for a completion however long it takes)."""
        now = self._clock()
        deadline, straggler = self._thresholds()
        if self.free_workers < 1:
            straggler = None  # no slot for a twin before a completion
        waits = []
        for task in self._tasks.values():
            if deadline is not None:
                waits.append(task.last_dispatch + deadline - now)
            if straggler is not None and not task.speculated:
                waits.append(task.first_dispatch + straggler - now)
        return max(min(waits), 1e-3) if waits else None

    def _strike(self, task: _Task) -> bool:
        if task.key is None or self.quarantine is None:
            return False
        quarantined = self.quarantine.strike(task.key)
        if quarantined:
            self._tracer.emit("supervise.quarantine",
                              {"tag": str(task.tag),
                               "strikes": self.quarantine.strikes(task.key)})
            self._tracer.count("supervise.quarantine")
        return quarantined

    def _sweep(self) -> DeadlineHit | None:
        """Enforce deadlines and launch speculative twins."""
        deadline, straggler = self._thresholds()
        if deadline is None and straggler is None:
            return None
        now = self._clock()
        for task in list(self._tasks.values()):
            if deadline is not None and now - task.last_dispatch >= deadline:
                self._retire(task)
                quarantined = self._strike(task)
                elapsed = now - task.first_dispatch
                self._tracer.emit("supervise.deadline_hit",
                                  {"tag": str(task.tag),
                                   "deadline_s": deadline,
                                   "elapsed_s": elapsed})
                self._tracer.count("supervise.deadline_hit")
                return DeadlineHit(tag=task.tag, key=task.key,
                                   elapsed_s=elapsed, deadline_s=deadline,
                                   quarantined=quarantined)
            if (straggler is not None and not task.speculated
                    and now - task.first_dispatch >= straggler
                    and self.free_workers > 0):
                task.speculated = True
                self._dispatch(task, twin=True)
                self._tracer.emit("supervise.speculate",
                                  {"tag": str(task.tag),
                                   "elapsed_s": now - task.first_dispatch,
                                   "threshold_s": straggler})
                self._tracer.count("supervise.speculate")
        return None

    def _settle(self, seq: int, result: Any, exc: BaseException | None
                ) -> Completed | TaskFailed | None:
        """Fold one dispatch's completion into its task's outcome (None
        while the task stays in flight)."""
        task = self._live.pop(seq)
        self._threads.pop(seq, None)
        dispatched_at = task.live.pop(seq)
        if exc is not None:
            if self.policy is None or not isinstance(exc, WorkerDeath):
                self._retire(task)
                raise exc
            if task.live:
                return None  # a twin is still running; let the race finish
            quarantined = self._strike(task)
            if not quarantined and task.redispatches < MAX_REDISPATCH:
                task.redispatches += 1
                self._tracer.emit("supervise.reclaim",
                                  {"tag": str(task.tag),
                                   "error": type(exc).__name__,
                                   "redispatch": task.redispatches})
                self._tracer.count("supervise.reclaim")
                self._dispatch(task)
                return None
            self._retire(task)
            return TaskFailed(tag=task.tag, key=task.key, error=exc,
                              quarantined=quarantined)
        duration = self._clock() - dispatched_at
        if self.deadlines is not None:
            self.deadlines.observe(duration)
        speculative = seq in task.twins
        if speculative:
            self._tracer.count("supervise.speculate_wins")
        self._retire(task)
        return Completed(tag=task.tag, result=result, duration_s=duration,
                         speculative=speculative)
