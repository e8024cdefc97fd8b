"""The workload objective: configuration vector → execution outcome.

Bridges tuners and the simulator: decodes a unit-cube vector through the
tuning space's configuration encoder, runs the workload on the simulated
cluster with the evaluation cap (the paper limits each configuration to
480 s), and returns an :class:`Evaluation`.

Censoring policy: a failed or killed run's *objective* is the censoring
value (the tuner only knows the configuration was "at least this bad"),
while its *cost* is the time that actually elapsed — failures often die
quickly, truncated stragglers pay their limit.  The censoring value
depends on how the run ended:

* **Killed at a limit** (``truncated=True``): censored at the limit the
  guard actually enforced — the *tightened* per-call limit when a median
  guard killed the run, not the full cap.  The run is only known to be
  "at least as bad as the limit that stopped it"; censoring a run killed
  at 90 s with the 480 s cap would overstate the evidence 5-fold and
  poison the surrogate's view of that region.
* **Hard failure** (OOM, runtime error, invalid): censored at the full
  evaluation cap — the configuration is broken, not merely slow, and the
  model should treat the whole region as maximally bad.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Mapping

import numpy as np

from ..space.space import ConfigSpace
from ..sparksim.cluster import ClusterSpec
from ..sparksim.result import RunStatus
from ..sparksim.simulator import SparkSimulator
from ..utils.rng import as_generator, spawn
from ..workloads.base import Workload
from .base import Evaluation

__all__ = ["WorkloadObjective", "DEFAULT_TIME_LIMIT_S", "METRICS"]

#: Per-configuration execution cap used throughout the paper's evaluation.
DEFAULT_TIME_LIMIT_S = 480.0


def _metric_time(duration_s: float, conf: Mapping[str, Any]) -> float:
    return duration_s


def _metric_core_seconds(duration_s: float, conf: Mapping[str, Any]) -> float:
    """Resource cost: wall time x allocated cores (a cloud-bill proxy)."""
    cores = int(conf["spark.executor.cores"]) \
        * int(conf["spark.executor.instances"])
    return duration_s * max(cores, 1)


#: Named objective metrics (§5.1: "by modifying or replacing the objective
#: function, ROBOTune can be easily adapted for optimizing other metrics").
METRICS: dict[str, Callable[[float, Mapping[str, Any]], float]] = {
    "time": _metric_time,
    "core_seconds": _metric_core_seconds,
}


class WorkloadObjective:
    """Callable objective for one workload on one (simulated) cluster.

    Parameters
    ----------
    workload:
        The application + dataset to execute.
    space:
        Tuning space the input vectors live in; may be the full 44-dim
        Spark space or a reduced subspace after parameter selection.
    simulator:
        Simulator instance (shared across evaluations for one cluster).
    time_limit_s:
        Hard execution cap per configuration.
    rng:
        Noise source; every evaluation draws fresh noise, so repeated
        evaluations of the same vector differ (i.i.d., as the paper's BO
        noise model assumes).
    metric:
        What to minimize: ``"time"`` (default, the paper's objective),
        ``"core_seconds"`` (wall time x allocated cores), or any callable
        ``(duration_s, config) -> float`` that is monotone in duration.
        Search cost accounting is always wall time, regardless of metric.
    """

    def __init__(self, workload: Workload, space: ConfigSpace, *,
                 simulator: SparkSimulator | None = None,
                 cluster: ClusterSpec | None = None,
                 time_limit_s: float = DEFAULT_TIME_LIMIT_S,
                 metric: str | Callable[[float, Mapping[str, Any]], float]
                 = "time",
                 rng: np.random.Generator | int | None = None):
        if simulator is not None and cluster is not None:
            raise ValueError("pass either simulator or cluster, not both")
        if isinstance(metric, str):
            if metric not in METRICS:
                raise KeyError(f"unknown metric {metric!r}; "
                               f"known: {sorted(METRICS)}")
            metric = METRICS[metric]
        self._metric = metric
        self.workload = workload
        self._space = space
        self.simulator = simulator or SparkSimulator(cluster)
        self._time_limit_s = float(time_limit_s)
        self._rng = as_generator(rng)
        self._stages = workload.build_stages()
        # Mutable holder so re-bound views (with_space) share the counter;
        # the lock keeps increments exact under concurrent batch views.
        self._counter = {"n": 0}
        self._lock = threading.Lock()

    @property
    def space(self) -> ConfigSpace:
        return self._space

    @property
    def time_limit_s(self) -> float:
        return self._time_limit_s

    @property
    def n_evaluations(self) -> int:
        """Total evaluations across this objective and all re-bound views."""
        return self._counter["n"]

    def with_space(self, space: ConfigSpace) -> "WorkloadObjective":
        """The same objective viewed through a different tuning space.

        Shares the simulator, RNG and evaluation counter — used by ROBOTune
        to switch from the generic 44-dim space to the selected subspace.
        """
        clone = object.__new__(WorkloadObjective)
        clone.__dict__ = dict(self.__dict__)
        clone._space = space
        return clone

    def spawn_view(self) -> "WorkloadObjective":
        """An independently seeded view for concurrent evaluation.

        Shares the simulator, space, metric, counter and lock, but draws
        its noise from a child generator split off this objective's
        stream.  Views are spawned *serially* (each spawn advances the
        parent stream), so a batch of views produces the same results
        regardless of how many workers later run them or in what order
        they complete — the determinism contract of the BO loop's
        executor (:class:`repro.supervise.EvaluationSupervisor`).  The
        simulator itself keeps no per-run
        state, so views may execute concurrently.  Subclasses inherit it
        (views keep the subclass behavior).
        """
        clone = object.__new__(type(self))
        clone.__dict__ = dict(self.__dict__)
        clone._rng = spawn(self._rng, 1)[0]
        return clone

    # -- resilience hooks (repro.faults / repro.core.journal) ---------------------
    def metric_value(self, duration_s: float, conf: Mapping[str, Any]) -> float:
        """The objective metric at an arbitrary duration (fault injection
        uses this to price slowed-down runs exactly)."""
        return float(self._metric(float(duration_s), conf))

    def censor_value(self, conf: Mapping[str, Any],
                     limit_s: float | None = None) -> float:
        """Censoring value at *limit_s* (None = the full evaluation cap)."""
        limit = self._time_limit_s if limit_s is None else float(limit_s)
        return float(self._metric(limit, conf))

    def rng_state(self) -> dict:
        """Snapshot of the noise generator (journal checkpointing)."""
        return self._rng.bit_generator.state

    def set_rng_state(self, state: Mapping[str, Any]) -> None:
        """Restore a snapshot taken by :meth:`rng_state` (journal resume)."""
        self._rng.bit_generator.state = state

    def __call__(self, u: np.ndarray,
                 time_limit_s: float | None = None) -> Evaluation:
        """Evaluate one configuration vector.

        ``time_limit_s`` tightens (never loosens) the cap for this single
        run — the hook used by guard mechanisms that kill configurations
        running past a multiple of the median.
        """
        limit = self._time_limit_s
        if time_limit_s is not None:
            limit = min(limit, float(time_limit_s))
        conf = self._space.decode(np.asarray(u, dtype=float))
        result = self.simulator.run(self._stages, conf, rng=self._rng,
                                    time_limit_s=limit)
        with self._lock:
            self._counter["n"] += 1
        truncated = result.status is RunStatus.TIMEOUT
        if result.ok:
            objective = self._metric(result.duration_s, conf)
        elif truncated:
            # Killed at the enforced limit (possibly guard-tightened): the
            # run is only known to be at least as bad as the limit that
            # actually stopped it.
            objective = self._metric(limit, conf)
        else:
            # Hard failure: censored at the full cap, so the region is
            # marked maximally bad regardless of how fast the failure
            # surfaced.
            objective = self._metric(self._time_limit_s, conf)
        return Evaluation(
            vector=np.asarray(u, dtype=float).copy(),
            config=conf,
            objective=float(objective),
            cost_s=float(result.duration_s),
            status=result.status,
            truncated=truncated,
        )
