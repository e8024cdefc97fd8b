"""Multi-session experiment harness.

Runs the paper's evaluation protocol (§5.1): every tuner gets the same
budget (100 executions) and per-configuration cap (480 s); each workload is
tuned on its three datasets; trials repeat the whole sweep with fresh
seeds.  Within one trial a tuner's knowledge stores (ROBOTune's parameter
-selection cache and memoization buffer) persist across the datasets of a
workload — D1 runs cold, D2/D3 run warm — matching how the paper
evaluates memoized sampling (Figure 6).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..core.memo import ConfigMemoizationBuffer, ParameterSelectionCache
from ..core.selection import ParameterSelector
from ..core.transfer import WorkloadMapper
from ..core.tuner import ROBOTune
from ..core.warmstart import journal_paths
from ..faults import FaultInjector, FaultPlan, RetryPolicy
from ..obs import JsonlTraceWriter, Tracer, load_trace, summarize
from ..space.spark_params import spark_space
from ..tuners.base import Tuner, TuningResult
from ..tuners.bestconfig import BestConfig
from ..tuners.gunther import Gunther
from ..tuners.objective import WorkloadObjective
from ..tuners.random_search import RandomSearch
from ..utils.parallel import parallel_map
from ..workloads.datasets import DATASET_LABELS
from ..workloads.registry import all_workload_names, get_workload

__all__ = ["SessionRecord", "StudyResult", "ComparisonStudy", "TUNER_NAMES"]

TUNER_NAMES = ("ROBOTune", "BestConfig", "Gunther", "RandomSearch")


@dataclass(frozen=True)
class SessionRecord:
    """One tuning session's outcome (one bar of Figures 3/4)."""

    tuner: str
    workload: str
    dataset: str
    trial: int
    best_time_s: float
    search_cost_s: float
    selection_cost_s: float
    cache_hit: bool
    curve: np.ndarray                       # best-so-far per iteration
    exec_times: np.ndarray                  # per-evaluation cost (Figure 5)
    cores_mem: np.ndarray                   # (n, 2) sampled executor
                                            # cores/memory (Figure 8)
    statuses: tuple[str, ...]
    result: TuningResult | None = None
    n_transient: int = 0                    # fault-caused failures surfaced
    n_retries: int = 0                      # extra attempts spent on faults
    trace_path: str | None = None           # JSONL trace (trace_dir studies)


@dataclass
class StudyResult:
    """All sessions of a comparison study, with lookup helpers."""

    records: list[SessionRecord] = field(default_factory=list)

    def filter(self, *, tuner: str | None = None, workload: str | None = None,
               dataset: str | None = None) -> list[SessionRecord]:
        out = self.records
        if tuner is not None:
            out = [r for r in out if r.tuner == tuner]
        if workload is not None:
            out = [r for r in out if r.workload == workload]
        if dataset is not None:
            out = [r for r in out if r.dataset == dataset]
        return list(out)

    def mean_best_time(self, tuner: str, workload: str, dataset: str) -> float:
        recs = self.filter(tuner=tuner, workload=workload, dataset=dataset)
        if not recs:
            raise KeyError(f"no sessions for {tuner}/{workload}/{dataset}")
        return float(np.mean([r.best_time_s for r in recs]))

    def mean_search_cost(self, tuner: str, workload: str, dataset: str) -> float:
        recs = self.filter(tuner=tuner, workload=workload, dataset=dataset)
        if not recs:
            raise KeyError(f"no sessions for {tuner}/{workload}/{dataset}")
        return float(np.mean([r.search_cost_s for r in recs]))

    def trace_summaries(self) -> list:
        """Per-session :class:`~repro.obs.TraceSummary` objects.

        Loads every record's JSONL trace (sessions run without a
        ``trace_dir`` are skipped); feed the result to
        :func:`repro.obs.render_aggregate` for the cross-tuner table.
        """
        return [summarize(load_trace(r.trace_path))
                for r in self.records if r.trace_path]


class ComparisonStudy:
    """Runs the 4-tuner × 5-workload × 3-dataset × N-trial comparison.

    Parameters
    ----------
    budget:
        Evaluations per session (paper: 100).
    trials:
        Independent sweeps per workload (paper: 5 per dataset).
    workloads / datasets / tuners:
        Subsets for cheaper runs; default to the paper's full grid.
    keep_results:
        Attach the full :class:`TuningResult` to each record (needed by
        Figures 8/9; costs memory).
    fault_rate / retries:
        Transient-fault injection for robustness studies: every session's
        objective is wrapped in a :class:`~repro.faults.FaultInjector`
        with a plan seeded from the session's grid coordinates (so fault
        sequences are reproducible and identical across tuners for the
        same coordinate), retrying transient failures up to *retries*
        times.  Rate 0 (the default) leaves objectives unwrapped.
    n_jobs / parallel_backend:
        Workers for running independent ``(trial, workload, tuner)``
        sweeps concurrently (each sweep still visits its datasets in
        order, because the knowledge stores are shared within a sweep).
        Every session is seeded from its grid coordinates, so results
        and record order are identical for any worker count.
    async_workers:
        Asynchronous BO worker count for ROBOTune sessions (see
        :class:`~repro.core.tuner.ROBOTune` ``async_workers``); other
        tuners are unaffected.  The default 0 keeps the paper's serial
        loop.
    supervise:
        Optional :class:`~repro.supervise.SupervisePolicy` for ROBOTune
        sessions (requires ``async_workers >= 1``): deadlines,
        reclaim-and-redispatch, speculation and poison-config quarantine
        around every asynchronous evaluation.  See docs/ROBUSTNESS.md.
    map_workloads:
        Share one :class:`~repro.core.transfer.WorkloadMapper` across all
        workloads of a ``(trial, tuner)`` sweep (ROBOTune sessions only).
        The sweep unit widens from ``(trial, workload, tuner)`` to
        ``(trial, tuner)`` — knowledge stores and the mapper persist
        across workloads, so a later workload whose probe signature
        matches an earlier one skips its selection run (probe cost is
        charged to ``search_cost_s``).  Per-session seeds are unchanged,
        so non-ROBOTune records are identical in either mode.
    warm_start:
        Directory of prior-session journals forwarded to every ROBOTune
        session (see :class:`~repro.core.tuner.ROBOTune` ``warm_start``).
        Fail-fast validated at construction; ``None`` starts cold.
    trace_dir:
        Directory for per-session JSONL traces.  Each session gets its
        own file, ``{tuner}-{workload}-{dataset}-trial{N}-s{seed}.jsonl``
        with the session seed in eight hex digits, and its own
        :class:`~repro.obs.Tracer`, constructed inside the session so
        the ``"process"`` backend never pickles one; the
        record's ``trace_path`` points at the file and
        :meth:`StudyResult.trace_summaries` folds them back up.  ``None``
        (the default) traces nothing.
    """

    def __init__(self, *, budget: int = 100, trials: int = 5,
                 workloads: Sequence[str] | None = None,
                 datasets: Sequence[str] | None = None,
                 tuners: Sequence[str] | None = None,
                 keep_results: bool = False,
                 fault_rate: float = 0.0,
                 retries: int = 2,
                 n_jobs: int | None = None,
                 parallel_backend: str = "process",
                 async_workers: int = 0,
                 supervise=None,
                 map_workloads: bool = False,
                 warm_start: str | Path | None = None,
                 trace_dir: str | Path | None = None,
                 base_seed: int = 0):
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError(f"fault_rate must be in [0, 1], got {fault_rate}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if async_workers < 0:
            raise ValueError(f"async_workers must be >= 0, got {async_workers}")
        if supervise is not None and async_workers < 1:
            raise ValueError("supervise requires async_workers >= 1")
        self.fault_rate = fault_rate
        self.retries = retries
        self.async_workers = async_workers
        self.supervise = supervise
        self.budget = budget
        self.trials = trials
        self.workloads = list(workloads or all_workload_names())
        self.datasets = list(datasets or DATASET_LABELS)
        self.tuners = list(tuners or TUNER_NAMES)
        unknown = set(self.tuners) - set(TUNER_NAMES)
        if unknown:
            raise ValueError(f"unknown tuners: {sorted(unknown)}")
        self.map_workloads = bool(map_workloads)
        if warm_start is not None:
            journal_paths(warm_start)  # fail fast before any session runs
        # Stored as a plain string to keep the study picklable.
        self.warm_start = str(warm_start) if warm_start is not None else None
        self.keep_results = keep_results
        self.n_jobs = n_jobs
        self.parallel_backend = parallel_backend
        # Stored as a plain string to keep the study picklable for the
        # process backend.
        self.trace_dir = str(trace_dir) if trace_dir is not None else None
        self.base_seed = base_seed
        self.space = spark_space()

    # -- tuner construction ------------------------------------------------------
    def _make_tuner(self, name: str, rng: np.random.Generator,
                    stores: dict,
                    mapper: WorkloadMapper | None = None) -> Tuner:
        if name == "ROBOTune":
            return ROBOTune(selector=ParameterSelector(n_repeats=5, rng=rng),
                            selection_cache=stores["cache"],
                            memo_buffer=stores["memo"],
                            async_workers=self.async_workers,
                            supervise=self.supervise,
                            warm_start=self.warm_start,
                            mapper=mapper, rng=rng)
        if name == "BestConfig":
            return BestConfig()
        if name == "Gunther":
            return Gunther()
        if name == "RandomSearch":
            return RandomSearch()
        raise ValueError(name)

    # -- execution ---------------------------------------------------------------------
    def run(self, progress: Callable[[str], None] | None = None) -> StudyResult:
        """Execute every session of the study grid.

        The ``(trial, workload, tuner)`` sweeps are independent (each one
        starts fresh knowledge stores) and run concurrently under
        ``n_jobs``; datasets within a sweep stay sequential so D2/D3 see
        the warm stores D1 populated.  Records are appended in the same
        nested order the sequential loop produced.
        """
        if self.map_workloads:
            # Whole-grid sweeps: the mapper and knowledge stores persist
            # across every workload of a (trial, tuner) pair.
            sweeps = [(trial, None, tuner_name)
                      for trial in range(self.trials)
                      for tuner_name in self.tuners]
        else:
            sweeps = [(trial, workload, tuner_name)
                      for trial in range(self.trials)
                      for workload in self.workloads
                      for tuner_name in self.tuners]
        sweep_records = parallel_map(self._run_sweep, sweeps,  # repro: noqa RPP002 -- ComparisonStudy is picklable by design (plain config attrs only); process-backend round-trip is covered by tests/bench/test_harness_parallel.py
                                     n_jobs=self.n_jobs,
                                     backend=self.parallel_backend)
        study = StudyResult()
        for recs in sweep_records:
            for rec in recs:
                study.records.append(rec)
                if progress is not None:
                    progress(f"{rec.tuner} {rec.workload}/{rec.dataset} "
                             f"trial {rec.trial}: best={rec.best_time_s:.0f}s "
                             f"cost={rec.search_cost_s / 60:.0f}min")
        return study

    def _run_sweep(self, sweep: tuple[int, str | None, str]
                   ) -> list[SessionRecord]:
        """All datasets of one (trial, workload, tuner) sweep, in order.

        A ``None`` workload (``map_workloads`` mode) visits every
        workload of the grid with shared stores and a shared mapper.
        """
        trial, workload, tuner_name = sweep
        # Knowledge stores persist across this workload's datasets
        # within one (trial, tuner) sweep.
        stores = {"cache": ParameterSelectionCache(),
                  "memo": ConfigMemoizationBuffer()}
        mapper = WorkloadMapper(self.space) if workload is None else None
        workloads = self.workloads if workload is None else [workload]
        return [self._run_session(tuner_name, wl, dataset, trial, stores,
                                  mapper)
                for wl in workloads for dataset in self.datasets]

    def _run_session(self, tuner_name: str, workload: str, dataset: str,
                     trial: int, stores: dict,
                     mapper: WorkloadMapper | None = None) -> SessionRecord:
        # Stable across processes (unlike builtin hash, which is salted).
        key = f"{self.base_seed}|{tuner_name}|{workload}|{dataset}|{trial}"
        seed = zlib.crc32(key.encode())
        rng = np.random.default_rng(seed)
        wl = get_workload(workload, dataset)
        objective = WorkloadObjective(wl, self.space,
                                      rng=np.random.default_rng(seed + 1))
        tracer = trace_path = None
        if self.trace_dir:
            directory = Path(self.trace_dir)
            directory.mkdir(parents=True, exist_ok=True)
            # The session seed is part of the filename: it folds in the
            # study's base_seed, so two studies sharing one trace_dir
            # (different base seeds, same grid) never collide on the
            # (tuner, workload, dataset, trial) coordinates alone —
            # JsonlTraceWriter refuses to append to an existing trace.
            trace_path = str(directory / f"{tuner_name}-{workload}-{dataset}"
                                         f"-trial{trial}-s{seed:08x}.jsonl")
            tracer = Tracer(JsonlTraceWriter(trace_path),
                            meta={"tuner": tuner_name, "workload": workload,
                                  "dataset": dataset, "trial": trial,
                                  "budget": self.budget, "seed": int(seed)})
        if self.fault_rate > 0.0:
            retry = RetryPolicy(max_retries=self.retries) \
                if self.retries else None
            objective = FaultInjector(
                objective, FaultPlan(self.fault_rate, seed=seed + 2),
                retry=retry, tracer=tracer)
        tuner = self._make_tuner(tuner_name, rng, stores, mapper)
        try:
            result = tuner.tune(objective, self.budget, rng=rng,
                                tracer=tracer)
        finally:
            if tracer is not None:
                tracer.close()
        try:
            best_time_s = result.best_time_s
        except RuntimeError:
            # Every evaluation failed (possible under heavy fault
            # injection): record the session as NaN instead of aborting
            # the whole study.
            best_time_s = float("nan")
        return SessionRecord(
            tuner=tuner_name, workload=workload, dataset=dataset, trial=trial,
            best_time_s=best_time_s,
            search_cost_s=result.search_cost_s,
            selection_cost_s=result.selection_cost_s,
            cache_hit=getattr(result, "selection_cache_hit", False),
            curve=result.best_curve(),
            exec_times=np.asarray([e.cost_s for e in result.evaluations]),
            cores_mem=np.asarray(
                [(e.config["spark.executor.cores"],
                  e.config["spark.executor.memory"])
                 for e in result.evaluations], dtype=float)
            if result.evaluations else np.empty((0, 2)),
            statuses=tuple(e.status.value for e in result.evaluations),
            result=result if self.keep_results else None,
            n_transient=sum(e.transient for e in result.evaluations),
            n_retries=sum(e.attempts - 1 for e in result.evaluations),
            trace_path=trace_path,
        )
