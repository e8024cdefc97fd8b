"""Transient-fault injection around a workload objective.

:class:`FaultInjector` is a drop-in :class:`~repro.tuners.base.Objective`:
it executes every configuration through the wrapped objective and then
applies the :class:`~repro.faults.plan.FaultPlan`'s verdict for that
``(evaluation index, attempt)`` coordinate — an abort, a slowdown, or
nothing.  Because the wrapped objective is *always* executed first, the
simulator's noise stream advances identically whether or not a fault
fires, so fault-rate sweeps compare the same underlying runs.

Outcome semantics:

* A **config-caused failure** (OOM, runtime error, ...) surfaces as-is —
  the fault is moot, the model must see the bad region.
* An **aborting fault** turns the run into a transient failure: a
  fraction of the natural wall-clock was spent, the result is censored,
  and ``transient=True`` marks it as environmental.
* A **slowdown fault** stretches the run.  If it still finishes under the
  enforced limit the evaluation succeeds with an inflated time (ordinary
  environment noise, ``transient=False``); if it crosses the limit it
  becomes a transient timeout.

With a :class:`~repro.faults.retry.RetryPolicy`, transient outcomes are
re-attempted (each attempt re-rolls the plan at ``attempt + 1``); all
failed attempts' wall-clock plus the exponential-backoff waits are charged
to the returned evaluation's ``cost_s``.  Config-caused outcomes are never
retried, so only genuinely bad configurations are censored into the
surrogate model.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Any

import numpy as np

from ..obs import as_tracer
from ..sparksim.result import RunStatus
from ..supervise import WorkerDeath
from ..tuners.base import Evaluation, ObjectiveWrapper
from .plan import FaultEvent, FaultPlan, HangEvent, HangPlan
from .retry import RetryPolicy

__all__ = ["FaultInjector", "HangInjector"]


class _PlanInjector(ObjectiveWrapper):
    """Plan-index bookkeeping shared by the two injectors.

    The evaluation index (the plan's coordinate) and the injection
    counters live in one dict that every ``with_space``/``spawn_view``
    view shares, so the index is global to the tuning session; the lock
    keeps index claims atomic when views run concurrently under
    ``async_workers > 1``.
    """

    def __init__(self, objective: Any, tracer: Any,
                 **counters: float) -> None:
        super().__init__(objective)
        self.tracer = as_tracer(tracer)
        self._shared: dict[str, Any] = {"index": 0, **counters,
                                        "lock": threading.Lock()}

    def _claim(self) -> int:
        """Take the next plan index."""
        with self._shared["lock"]:
            index = self._shared["index"]
            self._shared["index"] = index + 1
        return index

    def _bump(self, **amounts: float) -> None:
        with self._shared["lock"]:
            for key, amount in amounts.items():
                self._shared[key] += amount

    def skip(self, n: int = 1) -> None:
        """Advance the plan index without executing (journal replay); the
        wrapped objective skips too, so stacked injectors stay aligned."""
        if n < 0:
            raise ValueError("n must be >= 0")
        self._bump(index=n)
        super().skip(n)

    @property
    def stats(self) -> dict[str, Any]:
        """The plan index and the injection counters."""
        return {k: v for k, v in self._shared.items() if k != "lock"}


class FaultInjector(_PlanInjector):
    """Wrap an objective with deterministic fault injection and retries.

    Parameters
    ----------
    objective:
        The wrapped objective (typically a
        :class:`~repro.tuners.objective.WorkloadObjective`).
    plan:
        Seeded fault plan; ``(index, attempt)`` draws are pure.
    retry:
        Retry policy for transient outcomes; ``None`` returns the first
        attempt unconditionally.
    tracer:
        Optional :class:`repro.obs.Tracer`; every injected fault emits a
        ``fault.injected`` event and every retry a ``retry.attempt``
        event.  Shared by ``with_space`` views, like the counters.

    Views share the plan index, counters and retry policy, so under
    concurrent evaluation retries with backoff run *on the worker*,
    charged to the returned evaluation's ``cost_s`` exactly as in the
    serial loop.
    """

    def __init__(self, objective, plan: FaultPlan,
                 retry: RetryPolicy | None = None, tracer=None):
        super().__init__(objective, tracer, injected=0, transient=0,
                         retries=0, backoff_s=0.0)
        self.plan = plan
        self.retry = retry

    # -- evaluation ---------------------------------------------------------------
    def __call__(self, u: np.ndarray,
                 time_limit_s: float | None = None) -> Evaluation:
        index = self._claim()
        max_attempts = 1 + (self.retry.max_retries if self.retry else 0)
        spent = 0.0
        for attempt in range(max_attempts):
            ev = self._attempt(u, time_limit_s, index, attempt)
            if ev.transient and attempt + 1 < max_attempts:
                wait = self.retry.delay_s(attempt)
                spent += ev.cost_s + wait
                self._bump(retries=1, backoff_s=wait)
                self.tracer.emit("retry.attempt",
                                 {"index": index, "attempt": attempt,
                                  "wait_s": float(wait)})
                self.tracer.count("retries")
                continue
            break
        if ev.transient:
            self._bump(transient=1)
        if spent > 0.0 or attempt > 0:
            ev = replace(ev, cost_s=ev.cost_s + spent, attempts=attempt + 1)
        return ev

    def _attempt(self, u: np.ndarray, time_limit_s: float | None,
                 index: int, attempt: int) -> Evaluation:
        event = self.plan.draw(index, attempt)
        ev = self._objective(u, time_limit_s)
        if event is None:
            return ev
        self._bump(injected=1)
        self.tracer.emit("fault.injected",
                         {"index": index, "attempt": attempt,
                          "kind": event.kind, "aborts": bool(event.aborts)})
        self.tracer.count("faults.injected")
        if not ev.ok:
            # Config-caused failure dominates: the fault changes nothing
            # the tuner should learn from.
            return ev
        if event.aborts:
            return self._aborted(ev, event)
        return self._slowed(ev, event, time_limit_s)

    def _aborted(self, ev: Evaluation, event: FaultEvent) -> Evaluation:
        """Transient abort after a fraction of the natural run time."""
        return replace(
            ev,
            objective=self._censor(ev.config, None),
            cost_s=float(ev.cost_s * event.abort_fraction),
            status=RunStatus.RUNTIME_ERROR,
            truncated=False,
            transient=True,
            fault=event.kind,
        )

    def _slowed(self, ev: Evaluation, event: FaultEvent,
                time_limit_s: float | None) -> Evaluation:
        limit = self.time_limit_s
        if time_limit_s is not None:
            limit = min(limit, float(time_limit_s))
        slowed_s = ev.cost_s * event.slowdown
        if slowed_s > limit:
            # The stretched run crosses the enforced cap: killed, but by
            # the environment — a transient timeout, censored at the
            # limit that actually stopped it.
            return replace(
                ev,
                objective=self._censor(ev.config, limit),
                cost_s=float(limit),
                status=RunStatus.TIMEOUT,
                truncated=True,
                transient=True,
                fault=event.kind,
            )
        return replace(
            ev,
            objective=self._metric(ev, slowed_s),
            cost_s=float(slowed_s),
            transient=False,
            fault=event.kind,
        )

    # -- metric plumbing ----------------------------------------------------------
    def _metric(self, ev: Evaluation, duration_s: float) -> float:
        """Objective value at a stretched duration.

        Uses the wrapped objective's metric when exposed; otherwise scales
        the observed value proportionally (exact for metrics linear in
        duration, which both built-in metrics are).
        """
        metric = getattr(self._objective, "metric_value", None)
        if metric is not None:
            return float(metric(duration_s, ev.config))
        return float(ev.objective * duration_s / max(ev.cost_s, 1e-12))

    def _censor(self, config, limit_s: float | None) -> float:
        """Censoring value at *limit_s* (None = the objective's full cap)."""
        censor = getattr(self._objective, "censor_value", None)
        if censor is not None:
            return float(censor(config, limit_s))
        return float(limit_s if limit_s is not None else self.time_limit_s)


class HangInjector(_PlanInjector):
    """Wrap an objective with deterministic liveness faults.

    The liveness analogue of :class:`FaultInjector`: where that class
    perturbs *outcomes* (aborts, slowdowns), this one perturbs
    *liveness* — the evaluation hangs for a bounded stretch of real
    wall-clock time, or its worker dies outright
    (:class:`~repro.supervise.WorkerDeath`).  It exists to exercise the
    supervision layer (``repro.supervise``): deadlines, dead-worker
    reclaim, speculation and poison-config quarantine.

    Parameters
    ----------
    objective:
        The wrapped objective (or another injector).
    plan:
        A :class:`~repro.faults.plan.HangPlan`.
    poison:
        Optional predicate on the unit-cube vector; a matching config
        *always* draws ``poison_kind``, every attempt — a deterministic
        repeat offender for quarantine tests.
    poison_kind:
        ``"worker_death"`` (default) or ``"hang"``.
    tracer:
        Optional tracer; each injection emits a ``fault.injected`` event.
    """

    def __init__(self, objective, plan: HangPlan, *, poison=None,
                 poison_kind: str = "worker_death", tracer=None):
        if poison_kind not in ("worker_death", "hang"):
            raise ValueError(
                f"poison_kind must be 'worker_death' or 'hang', "
                f"got {poison_kind!r}")
        super().__init__(objective, tracer, hangs=0, deaths=0)
        self.plan = plan
        self._poison = poison
        self._poison_kind = poison_kind

    def __call__(self, u: np.ndarray,
                 time_limit_s: float | None = None) -> Evaluation:
        index = self._claim()
        if self._poison is not None \
                and self._poison(np.asarray(u, dtype=float)):
            event = HangEvent(self._poison_kind, hang_s=self.plan.hang_s)
        else:
            event = self.plan.draw(index, 0)
        if event is not None:
            self.tracer.emit("fault.injected",
                             {"index": index, "attempt": 0,
                              "kind": event.kind,
                              "aborts": event.kind == "worker_death"})
            self.tracer.count("faults.injected")
            if event.kind == "worker_death":
                self._bump(deaths=1)
                raise WorkerDeath(
                    f"injected worker death at evaluation {index}")
            self._bump(hangs=1)
            # A bounded *real* wall-clock wedge: the supervisor's
            # deadline should fire long before this returns.
            threading.Event().wait(event.hang_s)
        return self._objective(u, time_limit_s)
