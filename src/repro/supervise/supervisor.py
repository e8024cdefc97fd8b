"""The evaluation supervisor: every in-flight task is accountable.

:class:`EvaluationSupervisor` sits between an asynchronous driver (the
BO engine's dispatch/fold loop) and a :class:`WorkerPool`.  The
driver submits *factories* — zero-argument callables that build a fresh
runnable thunk per physical dispatch, so a redispatch or speculative
twin gets its own objective view — and collects :class:`Completed`,
:class:`DeadlineHit` or :class:`TaskFailed` outcomes in completion
order.

The supervisor is the one component in the library that legitimately
reads the wall clock on a decision path (via an injected monotonic
clock; analysis rule RPD005 exempts ``supervise/``): deadlines and
straggler detection are facts about real elapsed time, which is exactly
why supervised runs are documented as not bit-reproducible
(docs/ROBUSTNESS.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..obs import as_tracer
from ..utils.parallel import PoolTimeout, WorkerPool
from .deadline import DeadlinePolicy
from .quarantine import PoisonQuarantine

__all__ = ["SupervisePolicy", "EvaluationSupervisor",
           "Completed", "DeadlineHit", "TaskFailed"]


@dataclass(frozen=True)
class SupervisePolicy:
    """Knobs for supervised execution (docs/ROBUSTNESS.md).

    ``eval_timeout_s`` is the CLI's ``--eval-timeout`` hard cap; the
    adaptive deadline/straggler thresholds come from a running quantile
    of completed durations (:class:`DeadlinePolicy`).  ``speculate``
    enables straggler twins; ``quarantine_after`` is the poison-config
    strike cap; ``max_redispatch`` bounds reclaim-and-redispatch after a
    worker death.
    """

    eval_timeout_s: float | None = None
    deadline_quantile: float = 0.95
    deadline_multiplier: float = 3.0
    straggler_multiplier: float = 2.0
    min_completions: int = 3
    speculate: bool = False
    quarantine_after: int = 3
    max_redispatch: int = 1
    poll_s: float = 0.05

    def __post_init__(self) -> None:
        if self.eval_timeout_s is not None and self.eval_timeout_s <= 0:
            raise ValueError("eval_timeout_s must be positive")
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        if self.max_redispatch < 0:
            raise ValueError("max_redispatch must be >= 0")
        if self.poll_s <= 0:
            raise ValueError("poll_s must be positive")

    def deadline_policy(self) -> DeadlinePolicy:
        return DeadlinePolicy(self.eval_timeout_s,
                              quantile=self.deadline_quantile,
                              multiplier=self.deadline_multiplier,
                              straggler_multiplier=self.straggler_multiplier,
                              min_completions=self.min_completions)


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


class _TaskError:
    """Sentinel carrying a worker exception so the task tag is never lost."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException):
        self.exc = exc


@dataclass
class _Task:
    tag: Any
    key: bytes | None
    factory: Callable[[], Callable[[], Any]]
    live: dict = field(default_factory=dict)     # token -> dispatch time
    twins: set = field(default_factory=set)      # speculative ordinals
    first_dispatch: float = 0.0
    last_dispatch: float = 0.0
    speculated: bool = False
    redispatches: int = 0
    n_dispatched: int = 0


class EvaluationSupervisor:
    """Supervise a pool: deadlines, reclaim, speculation, quarantine.

    A task's deadline runs from its latest dispatch: a redispatch after a
    worker death, or a speculative twin, restarts it.

    Parameters
    ----------
    pool:
        The :class:`WorkerPool` to dispatch on (thread backend for real
        supervision; the serial backend degenerates to FIFO execution
        with no deadline enforcement, useful for protocol tests).
    policy:
        A :class:`SupervisePolicy`.
    tracer:
        Optional tracer; emits ``supervise.speculate`` /
        ``supervise.reclaim`` / ``supervise.deadline_hit`` /
        ``supervise.quarantine`` events plus same-named counters.
    clock:
        Monotonic time source (injected so tests can fake time).
    """

    def __init__(self, pool: WorkerPool, policy: SupervisePolicy, *,
                 tracer=None, clock: Callable[[], float] = time.monotonic):
        self.pool = pool
        self.policy = policy
        self.deadlines = policy.deadline_policy()
        self.quarantine = PoisonQuarantine(policy.quarantine_after)
        self._tracer = as_tracer(tracer)
        self._clock = clock
        self._tasks: dict[Any, _Task] = {}

    # -- driver surface -----------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Distinct supervised evaluations in flight (twins don't count)."""
        return len(self._tasks)

    def submit(self, factory: Callable[[], Callable[[], Any]], *,
               tag: Any, key: bytes | None = None) -> None:
        """Supervise a new evaluation.

        *factory* is called once per physical dispatch (always on the
        driver's thread) and must return a fresh zero-argument thunk —
        typically closing over a newly spawned objective view.  *key*
        identifies the underlying config for quarantine accounting.
        """
        if tag in self._tasks:
            raise RuntimeError(f"task {tag!r} is already supervised")
        task = _Task(tag=tag, key=key, factory=factory)
        self._tasks[tag] = task
        self._dispatch(task)

    def next_outcome(self) -> Completed | DeadlineHit | TaskFailed:
        """Block until one supervised evaluation settles.

        Waits are always bounded by the nearest deadline/straggler
        threshold (or the poll interval), so a wedged worker can only
        delay the supervisor until its deadline — never forever, as long
        as a deadline source (hard cap or warmed-up quantile) exists.
        """
        if not self._tasks:
            raise RuntimeError("no supervised tasks in flight")
        while True:
            try:
                # Results already in are settled before any deadline is
                # judged: one that waited while the driver was busy
                # (proposing the next point) finished in time.
                token, payload = self.pool.next_completed(timeout=0.0)
            except PoolTimeout:
                swept = self._sweep()
                if swept is not None:
                    return swept
                try:
                    token, payload = self.pool.next_completed(
                        timeout=self._nearest_wait())
                except PoolTimeout:
                    continue  # re-sweep: something is now overdue
            settled = self._settle(token, payload)
            if settled is not None:
                return settled

    # -- internals ----------------------------------------------------------------
    def _dispatch(self, task: _Task, *, twin: bool = False) -> None:
        ordinal = task.n_dispatched
        task.n_dispatched += 1
        if twin:
            task.twins.add(ordinal)
        thunk = task.factory()

        def _run(thunk=thunk):
            try:
                return thunk()
            except BaseException as exc:  # noqa: BLE001 - relayed as outcome
                return _TaskError(exc)

        token = (task.tag, ordinal)
        self.pool.submit(_run, tag=token)
        now = self._clock()
        task.live[token] = now
        task.last_dispatch = now
        if ordinal == 0:
            task.first_dispatch = now

    def _nearest_wait(self) -> float | None:
        """Seconds until the next deadline/straggler decision is due."""
        now = self._clock()
        deadline = self.deadlines.deadline_s()
        straggler = (self.deadlines.straggler_threshold_s()
                     if self.policy.speculate else None)
        waits = []
        for task in self._tasks.values():
            if deadline is not None:
                waits.append(task.last_dispatch + deadline - now)
            if straggler is not None and not task.speculated:
                waits.append(task.first_dispatch + straggler - now)
        if not waits:
            return self.policy.poll_s if self.policy.speculate else None
        return max(min(waits), 1e-3)

    def _strike(self, task: _Task) -> bool:
        if task.key is None:
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
        now = self._clock()
        deadline = self.deadlines.deadline_s()
        straggler = (self.deadlines.straggler_threshold_s()
                     if self.policy.speculate else None)
        for task in list(self._tasks.values()):
            if deadline is not None and now - task.last_dispatch >= deadline:
                for token in list(task.live):
                    self.pool.abandon(token)
                del self._tasks[task.tag]
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
                    and self.pool.free_workers > 0):
                task.speculated = True
                self._dispatch(task, twin=True)
                self._tracer.emit("supervise.speculate",
                                  {"tag": str(task.tag),
                                   "elapsed_s": now - task.first_dispatch,
                                   "threshold_s": straggler})
                self._tracer.count("supervise.speculate")
        return None

    def _settle(self, token: Any, payload: Any
                ) -> Completed | TaskFailed | None:
        tag = token[0]
        task = self._tasks.get(tag)
        if task is None or token not in task.live:
            return None  # stale completion of an abandoned attempt
        dispatched_at = task.live.pop(token)
        if isinstance(payload, _TaskError):
            if task.live:
                return None  # a twin is still running; let the race finish
            quarantined = self._strike(task)
            if not quarantined and task.redispatches < self.policy.max_redispatch:
                task.redispatches += 1
                self._tracer.emit("supervise.reclaim",
                                  {"tag": str(task.tag),
                                   "error": type(payload.exc).__name__,
                                   "redispatch": task.redispatches})
                self._tracer.count("supervise.reclaim")
                self._dispatch(task)
                return None
            del self._tasks[tag]
            return TaskFailed(tag=tag, key=task.key, error=payload.exc,
                              quarantined=quarantined)
        duration = self._clock() - dispatched_at
        self.deadlines.observe(duration)
        for other in list(task.live):
            self.pool.abandon(other)
        speculative = token[1] in task.twins
        if speculative:
            self._tracer.count("supervise.speculate_wins")
        del self._tasks[tag]
        return Completed(tag=tag, result=payload, duration_s=duration,
                         speculative=speculative)
