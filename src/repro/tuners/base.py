"""Tuner protocol, evaluation records, and tuning results.

All four tuners (ROBOTune, BestConfig, Gunther, Random Search) share this
interface: they receive an :class:`Objective` (a black-box from unit-cube
vectors to execution outcomes) and an evaluation budget, and produce a
:class:`TuningResult`.  Search cost (paper §5.3) is the summed execution
time of every configuration the tuner ran, including truncated and failed
runs — exactly what a real cluster would have spent.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import closing
from dataclasses import dataclass, field
from typing import Any, Protocol, TypeVar

import numpy as np

from ..space.space import ConfigSpace, Configuration
from ..sparksim.result import RunStatus

__all__ = ["Evaluation", "Objective", "ObjectiveWrapper", "TuningResult",
           "Tuner", "can_spawn", "censored_write_off", "workload_key"]


def workload_key(objective: "Objective") -> str:
    """Workload identity string of an objective, if it carries one."""
    wl = getattr(objective, "workload", None)
    return wl.full_key if wl is not None else ""


@dataclass(frozen=True)
class Evaluation:
    """One executed configuration.

    ``objective`` is the value a tuner should minimize: the execution time
    for successful runs and the censoring value for failed/killed runs
    ("at least this bad" — see :class:`~repro.tuners.objective.WorkloadObjective`
    for the exact censoring policy).  ``cost_s`` is the wall-clock charged
    to search cost, which for failures is the (smaller) time actually
    elapsed before the run died; under a retry policy it includes every
    failed attempt plus the backoff waits.

    The resilience fields separate *environmental* trouble from
    *configuration-caused* trouble: ``transient`` marks an outcome whose
    failure (or timeout) was caused by an injected/environmental fault
    rather than by the configuration; ``fault`` names the fault kind that
    affected the returned attempt (a fault may slow a run down without
    failing it, in which case ``transient`` stays False); ``attempts``
    counts executions including retries.
    """

    vector: np.ndarray
    config: Configuration
    objective: float
    cost_s: float
    status: RunStatus
    truncated: bool = False
    transient: bool = False
    fault: str | None = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status is RunStatus.SUCCESS


class Objective(Protocol):
    """Black-box objective over the unit cube.

    Objectives that can evaluate several configurations concurrently may
    additionally expose ``spawn_view() -> Objective``: a view sharing all
    slow state (simulator, space, evaluation counter) but carrying its
    own child RNG split off the parent stream.  ``BOEngine`` with
    ``async_workers > 1`` spawns one view per dispatched point —
    serially, on the driving thread — and evaluates the views
    concurrently.  The capability is detected by :func:`can_spawn`, on
    the objective's *class*: an :class:`ObjectiveWrapper` (journal, fault
    and hang injectors, cancel check) spawns views of its own around the
    inner objective's, so its bookkeeping stays exact.  An objective
    whose class has no ``spawn_view``, or a wrapper around one, runs one
    evaluation at a time.
    """

    @property
    def space(self) -> ConfigSpace: ...

    @property
    def time_limit_s(self) -> float: ...

    def __call__(self, u: np.ndarray,
                 time_limit_s: float | None = None) -> Evaluation: ...


def can_spawn(objective: Any) -> bool:
    """Can *objective* actually produce concurrent views?

    ``spawn_view`` is looked up on the objective's *class*: delegating
    wrappers forward unknown attributes, and borrowing the inner
    objective's views would skip the wrapper's bookkeeping.  A class
    that does implement it may expose ``spawn_view_capable``, so a
    spawnable wrapper around a non-spawnable objective still degrades
    audibly instead of failing at dispatch time.
    """
    if getattr(type(objective), "spawn_view", None) is None:
        return False
    return bool(getattr(objective, "spawn_view_capable", True))


_W = TypeVar("_W", bound="ObjectiveWrapper")


class ObjectiveWrapper:
    """Base of objectives that wrap another objective.

    Forwards ``space``, ``time_limit_s`` and every attribute it does not
    define (``workload``, ``n_evaluations``, the ``censor_value`` /
    ``metric_value`` / ``rng_state`` / ``set_rng_state`` /
    ``record_censored`` hooks, ...) to the wrapped objective.  Views
    (:meth:`with_space`, :meth:`spawn_view`) are shallow copies around the
    inner objective's own view, so whatever state a subclass keeps in
    mutable holders (counters, locks, queues) stays shared between a
    wrapper and its views.  :meth:`skip` passes journal-replay skips down
    the stack.  Subclasses define ``__call__``.
    """

    def __init__(self, objective: Any) -> None:
        self._objective = objective

    @property
    def space(self) -> ConfigSpace:
        return self._objective.space

    @property
    def time_limit_s(self) -> float:
        return self._objective.time_limit_s

    def __getattr__(self, name: str) -> Any:
        return getattr(self.__dict__["_objective"], name)

    def _view(self: _W, inner: Any) -> _W:
        clone = object.__new__(type(self))
        clone.__dict__ = {**self.__dict__, "_objective": inner}
        return clone

    def with_space(self: _W, space: ConfigSpace) -> _W:
        """The same wrapper over the inner objective re-bound to *space*."""
        return self._view(self._objective.with_space(space))

    def spawn_view(self: _W) -> _W:
        """The same wrapper over a view for one concurrent evaluation."""
        return self._view(self._objective.spawn_view())

    @property
    def spawn_view_capable(self) -> bool:
        """True when the wrapped objective can actually spawn views."""
        return can_spawn(self._objective)

    def skip(self, n: int = 1) -> None:
        """Let the wrapped objective account for *n* replayed evaluations."""
        skip = getattr(self._objective, "skip", None)
        if skip is not None:
            skip(n)


def censored_write_off(objective: Any, u: np.ndarray, *, status: RunStatus,
                       fault: str, limit_s: float | None = None
                       ) -> Evaluation:
    """A run that returned no verdict, written off as censored at the cap.

    The value is the objective's own ``censor_value`` at its full cap
    when it has that hook, else the charged limit.  *limit_s* is what
    the run is charged to search cost: None charges the full cap, which
    is what a cluster spent before a watchdog gave up; crash recovery
    passes the limit the dispatch ran under.
    """
    config = objective.space.decode(u)
    charged = float(objective.time_limit_s if limit_s is None else limit_s)
    censor = getattr(objective, "censor_value", None)
    value = float(censor(config, None)) if censor is not None else charged
    return Evaluation(vector=np.asarray(u, dtype=float).copy(),
                      config=config, objective=value, cost_s=charged,
                      status=status, truncated=True, transient=True,
                      fault=fault)


@dataclass
class TuningResult:
    """Outcome of one tuning session."""

    tuner: str
    workload: str
    evaluations: list[Evaluation] = field(default_factory=list)
    selection_cost_s: float = 0.0   # one-time parameter-selection cost
    selected_parameters: list[str] = field(default_factory=list)

    @property
    def n_evaluations(self) -> int:
        return len(self.evaluations)

    @property
    def best_index(self) -> int:
        """Index of the best *successful* evaluation (objective ties → first)."""
        best, best_y = -1, float("inf")
        for i, e in enumerate(self.evaluations):
            if e.ok and e.objective < best_y:
                best, best_y = i, e.objective
        if best < 0:
            raise RuntimeError("no successful evaluation in session")
        return best

    @property
    def best_evaluation(self) -> Evaluation:
        return self.evaluations[self.best_index]

    @property
    def best_time_s(self) -> float:
        return self.best_evaluation.objective

    @property
    def best_config(self) -> Configuration:
        return self.best_evaluation.config

    @property
    def search_cost_s(self) -> float:
        """Total time spent generating and evaluating configurations
        (excludes the one-time parameter-selection cost, per §5.3)."""
        return float(sum(e.cost_s for e in self.evaluations))

    def best_curve(self) -> np.ndarray:
        """Minimum successful objective after each evaluation (Figure 6).

        Entries before the first success are ``inf``.
        """
        out = np.empty(len(self.evaluations))
        best = float("inf")
        for i, e in enumerate(self.evaluations):
            if e.ok:
                best = min(best, e.objective)
            out[i] = best
        return out


class Tuner(ABC):
    """A budgeted configuration tuner.

    Every tuner accepts an optional ``tracer`` (see :mod:`repro.obs`):
    instrumentation hooks record decisions and timings to it, and the
    default :data:`~repro.obs.NULL_TRACER` makes every hook a no-op, so
    decision sequences are bit-identical with tracing on or off.
    """

    #: display name used in reports, e.g. ``"ROBOTune"``.
    name: str = ""

    @abstractmethod
    def tune(self, objective: Objective, budget: int,
             rng: np.random.Generator | int | None = None,
             tracer=None) -> TuningResult:
        """Run one tuning session of at most *budget* evaluations."""

    # -- crash-safe journaling (docs/ROBUSTNESS.md) -------------------------------
    def checkpoint(self, objective: Objective, budget: int, journal,
                   rng: np.random.Generator | int | None = None,
                   tracer=None) -> TuningResult:
        """:meth:`tune`, with every evaluation journaled as it completes.

        *journal* is an :class:`~repro.core.journal.EvaluationJournal` or a
        path to one.  Each finished evaluation is appended along with a
        snapshot of the objective's RNG state, so a process killed
        mid-search can :meth:`resume` bit-identically.  Decisions are
        unaffected — the wrapper only records.  A journal opened here
        from a path is closed (committed) when the session returns; a
        journal object stays its caller's to close.
        """
        from ..core.journal import EvaluationJournal, JournaledObjective
        if not isinstance(journal, EvaluationJournal):
            with closing(EvaluationJournal(journal)) as owned:
                return self.checkpoint(objective, budget, owned, rng=rng,
                                       tracer=tracer)
        journal.write_meta({"tuner": self.name,
                            "workload": workload_key(objective),
                            "budget": int(budget)})
        return self.tune(JournaledObjective(objective, journal), budget,
                         rng=rng, tracer=tracer)

    def resume(self, objective: Objective, budget: int, journal,
               rng: np.random.Generator | int | None = None,
               tracer=None, recover: str = "redispatch") -> TuningResult:
        """Resume a killed :meth:`checkpoint` session from its journal.

        Re-runs the tuning session with the same *rng* seed, serving the
        journaled evaluations in order instead of re-executing them (the
        expensive cluster time is not re-paid); once the journal is
        exhausted, the objective's RNG state is restored from the last
        snapshot and the search continues live, appending to the same
        journal.  For a fixed seed the final result is bit-identical to an
        uninterrupted run — see docs/ROBUSTNESS.md for the guarantees.

        *recover* picks what happens to evaluations that were **in
        flight** at the kill point (their ``dispatch`` records never
        settled): ``"redispatch"`` re-executes them when the replayed
        decision path re-proposes their vectors (bit-identical for the
        fault-free case) and ``"censor"`` writes each one off as a
        censored-at-cap outcome without re-paying its execution time.

        A journal with nothing intact to replay (a crash tore its header
        line, or the process died before writing one) starts afresh, as
        :meth:`checkpoint` does; one whose records follow no header
        raises :class:`ValueError`.
        """
        from ..core.journal import EvaluationJournal, JournaledObjective
        if not isinstance(journal, EvaluationJournal):
            with closing(EvaluationJournal(journal)) as owned:
                return self.resume(objective, budget, owned, rng=rng,
                                   tracer=tracer, recover=recover)
        found = journal.recovery()
        if found is None:
            return self.checkpoint(objective, budget, journal, rng=rng,
                                   tracer=tracer)
        meta, records, pending, next_seq = found
        if meta.get("tuner", self.name) != self.name:
            raise ValueError(
                f"journal was written by {meta['tuner']!r}, not {self.name!r}")
        wl = workload_key(objective)
        if meta.get("workload", wl) != wl:
            raise ValueError(
                f"journal belongs to workload {meta['workload']!r}, "
                f"not {wl!r}")
        return self.tune(JournaledObjective(objective, journal,
                                            replay=records, pending=pending,
                                            next_seq=next_seq,
                                            recover=recover),
                         budget, rng=rng, tracer=tracer)
