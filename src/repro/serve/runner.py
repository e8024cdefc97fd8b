"""Build and run one tuning session from its :class:`SessionSpec`.

This module is the *only* place a spec turns into an objective and a
tuner.  The daemon runs sessions through :func:`run_session` with a
journal; ``repro tune`` builds through :func:`build_objective` and
:func:`build_tuner` and runs through :func:`drive`; the black-box
harness (``tests/serve/harness.py``) and ``benchmarks/paired_quality.py``
replay specs in process through :func:`run_session` without one.
Because construction is shared, one (workload, dataset, seed, budget)
names one session however it is started, and "served results equal
in-process results" is a property of the journaling layer (which records
but never decides), not of codepaths staying accidentally in sync.
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.selection import ParameterSelector
from ..core.tuner import ROBOTune, ROBOTuneResult
from ..faults import FaultInjector, FaultPlan, RetryPolicy
from ..space.spark_params import spark_space
from ..supervise import SupervisePolicy
from ..tuners.objective import DEFAULT_TIME_LIMIT_S, WorkloadObjective
from ..workloads.registry import get_workload
from .session import SessionCancelled, SessionSpec, evaluation_digest

__all__ = ["build_objective", "build_tuner", "drive", "run_session",
           "result_payload", "CancellableObjective"]


class CancellableObjective:
    """Objective wrapper that aborts the session when a check fires.

    *should_cancel* is consulted before every evaluation (one cheap
    callback — the daemon points it at the store's cancel marker), so a
    ``repro cancel`` lands at the next evaluation boundary instead of
    waiting out the whole budget.  Views spawned for concurrent
    evaluation share the same check.
    """

    def __init__(self, objective: Any,
                 should_cancel: Callable[[], bool]) -> None:
        self._objective = objective
        self._should_cancel = should_cancel

    @property
    def space(self) -> Any:
        return self._objective.space

    @property
    def time_limit_s(self) -> float:
        return self._objective.time_limit_s

    def with_space(self, space: Any) -> "CancellableObjective":
        return CancellableObjective(self._objective.with_space(space),
                                    self._should_cancel)

    def spawn_view(self) -> "CancellableObjective":
        return CancellableObjective(self._objective.spawn_view(),
                                    self._should_cancel)

    @property
    def spawn_view_capable(self) -> bool:
        inner = self.__dict__["_objective"]
        if getattr(type(inner), "spawn_view", None) is None:
            return False
        return bool(getattr(inner, "spawn_view_capable", True))

    def __getattr__(self, name: str) -> Any:
        return getattr(self.__dict__["_objective"], name)

    def __call__(self, u, time_limit_s=None):
        if self._should_cancel():
            raise SessionCancelled("session cancelled by request")
        return self._objective(u, time_limit_s)


def build_objective(spec: SessionSpec, *, tracer=None):
    """The spec's objective: workload + metric + optional fault plan."""
    space = spark_space()
    workload = get_workload(spec.workload, spec.dataset)
    time_limit = spec.time_limit_s if spec.time_limit_s is not None \
        else DEFAULT_TIME_LIMIT_S
    objective = WorkloadObjective(workload, space, metric=spec.metric,
                                  time_limit_s=time_limit, rng=spec.seed)
    if spec.fault_rate > 0.0:
        retry = RetryPolicy(max_retries=spec.retries) if spec.retries \
            else None
        objective = FaultInjector(objective,
                                  FaultPlan(spec.fault_rate,
                                            seed=spec.seed + 1),
                                  retry=retry, tracer=tracer)
    return objective


def build_tuner(spec: SessionSpec, *, selection_cache=None,
                memo_buffer=None, warm_start: str | None = None,
                n_jobs: int | None = None) -> ROBOTune:
    """The spec's ROBOTune.

    Every session seeds its selector one way: a generator of its own
    from ``spec.seed``, with the paper's 100 samples and 10 repeats
    unless the spec sets them.  The keyword extras are what ``repro
    tune`` adds around a spec (JSON-backed knowledge stores, a
    warm-start journal directory and a worker count); they are not spec
    fields, so served sessions never carry them.  *n_jobs* changes wall
    time only, never a decision.
    """
    supervise = None
    if spec.eval_timeout_s is not None:
        supervise = SupervisePolicy(eval_timeout_s=spec.eval_timeout_s,
                                    speculate=spec.speculate,
                                    quarantine_after=spec.quarantine_after)
    selector = ParameterSelector(n_samples=spec.selection_samples or 100,
                                 n_repeats=spec.selection_repeats or 10,
                                 n_jobs=n_jobs, rng=spec.seed)
    return ROBOTune(selector=selector,
                    selection_cache=selection_cache,
                    memo_buffer=memo_buffer,
                    init_samples=spec.init_samples,
                    # Tiny smoke sessions may shrink init_samples below the
                    # default memo replay width; clamp instead of refusing.
                    memo_configs=min(4, spec.init_samples),
                    async_workers=spec.async_workers,
                    supervise=supervise,
                    warm_start=warm_start,
                    n_jobs=n_jobs,
                    rng=spec.seed)


def drive(spec: SessionSpec, tuner: ROBOTune, objective, *, journal=None,
          resume: bool = False, recover: str = "redispatch",
          tracer=None) -> ROBOTuneResult:
    """Run *tuner* on *objective* for the spec's budget and seed.

    With *journal* the session checkpoints (or, with ``resume=True``,
    resumes) through the crash-safe journal layer; without one it runs
    plain in process.  Either way the decision sequence is a function of
    the spec alone, so the two produce bit-identical evaluation streams
    for deterministic specs.
    """
    if journal is None:
        return tuner.tune(objective, spec.budget, rng=spec.seed,
                          tracer=tracer)
    if resume:
        return tuner.resume(objective, spec.budget, journal, rng=spec.seed,
                            tracer=tracer, recover=recover)
    return tuner.checkpoint(objective, spec.budget, journal, rng=spec.seed,
                            tracer=tracer)


def run_session(spec: SessionSpec, *, journal=None, resume: bool = False,
                recover: str = "redispatch", tracer=None,
                should_cancel: Callable[[], bool] | None = None
                ) -> ROBOTuneResult:
    """Execute one session: the daemon's path and the test comparator.

    Builds the spec's objective and tuner and runs them through
    :func:`drive`; *should_cancel* is checked before every evaluation.
    """
    objective = build_objective(spec, tracer=tracer)
    if should_cancel is not None:
        objective = CancellableObjective(objective, should_cancel)
    return drive(spec, build_tuner(spec), objective, journal=journal,
                 resume=resume, recover=recover, tracer=tracer)


def result_payload(spec: SessionSpec,
                   result: ROBOTuneResult) -> dict[str, Any]:
    """The JSON result a settled session stores (and clients fetch).

    ``digest`` covers the whole evaluation stream — selection phase
    included — and is the value the acceptance tests compare against an
    in-process run of the same spec.
    """
    stream = list(result.selection_evaluations) + list(result.evaluations)
    payload: dict[str, Any] = {
        "workload": spec.workload,
        "dataset": spec.dataset,
        "seed": int(spec.seed),
        "n_evaluations": int(result.n_evaluations),
        "n_stream": len(stream),
        "search_cost_s": float(result.search_cost_s),
        "selection_cost_s": float(result.selection_cost_s),
        "selected_parameters": list(result.selected_parameters),
        "digest": evaluation_digest(stream),
        "quarantined_configs": [dict(c) for c in
                                result.quarantined_configs],
    }
    try:
        payload["best_objective"] = float(result.best_time_s)
        payload["best_config"] = dict(result.best_config)
    except RuntimeError:
        # Every evaluation failed (heavy chaos on a tiny budget): the
        # session still settles DONE with an explicit null best.
        payload["best_objective"] = None
        payload["best_config"] = None
    return payload
