"""Multi-session experiment harness.

Runs the paper's evaluation protocol (§5.1): every tuner gets the same
budget (100 executions) and per-configuration cap (480 s); each workload is
tuned on its three datasets; trials repeat the whole sweep with fresh
seeds.  Within one trial a tuner's knowledge stores (ROBOTune's parameter
-selection cache and memoization buffer) persist across the datasets of a
workload — D1 runs cold, D2/D3 run warm — matching how the paper
evaluates memoized sampling (Figure 6).

Every session is a :class:`~repro.serve.SessionSpec` built and run by
:mod:`repro.serve.runner`, the path ``repro tune`` and the daemon take:
the study only chooses each grid cell's spec and, for ROBOTune, the
knowledge stores and mapper the cell shares with its sweep.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..core.memo import ConfigMemoizationBuffer, ParameterSelectionCache
from ..core.transfer import WorkloadMapper
from ..core.warmstart import journal_paths
from ..obs import JsonlTraceWriter, Tracer, load_trace, summarize
from ..serve.runner import build_objective, build_tuner, drive
from ..serve.session import SessionSpec
from ..space.spark_params import spark_space
from ..tuners.base import Tuner, TuningResult
from ..tuners.bestconfig import BestConfig
from ..tuners.gunther import Gunther
from ..tuners.random_search import RandomSearch
from ..workloads.datasets import DATASET_LABELS
from ..workloads.registry import all_workload_names

__all__ = ["SessionRecord", "StudyResult", "ComparisonStudy", "TUNER_NAMES"]

TUNER_NAMES = ("ROBOTune", "BestConfig", "Gunther", "RandomSearch")

#: The baselines: each takes no settings, so a spec's objective is all
#: they need.
_BASELINES: dict[str, type[Tuner]] = {
    "BestConfig": BestConfig, "Gunther": Gunther,
    "RandomSearch": RandomSearch}


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

    The study holds one template :class:`~repro.serve.SessionSpec`,
    :attr:`spec`, built (and so validated) at construction; each grid
    cell runs it with the cell's workload, dataset and seed
    (:meth:`session_spec`).

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
        whose plan is seeded from the session's seed (so fault sequences
        are reproducible), retrying transient failures up to *retries*
        times.  Rate 0 (the default) leaves objectives unwrapped.
    async_workers:
        Asynchronous BO worker count for ROBOTune sessions (see
        :class:`~repro.core.tuner.ROBOTune` ``async_workers``); other
        tuners are unaffected.  The default 0 keeps the paper's serial
        loop.
    eval_timeout_s / speculate / quarantine_after:
        Supervised execution for ROBOTune sessions, as the spec fields
        of the same names (``eval_timeout_s`` requires
        ``async_workers >= 1``): deadlines, reclaim-and-redispatch,
        speculation and poison-config quarantine around every
        asynchronous evaluation.  See docs/ROBUSTNESS.md.
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
        :class:`~repro.obs.Tracer`; the record's ``trace_path`` points at
        the file and :meth:`StudyResult.trace_summaries` folds them back
        up.  ``None`` (the default) traces nothing.
    base_seed:
        Folded into every session's seed, so two studies that differ
        only here draw independent sessions.
    """

    def __init__(self, *, budget: int = 100, trials: int = 5,
                 workloads: Sequence[str] | None = None,
                 datasets: Sequence[str] | None = None,
                 tuners: Sequence[str] | None = None,
                 keep_results: bool = False,
                 fault_rate: float = 0.0,
                 retries: int = 2,
                 async_workers: int = 0,
                 eval_timeout_s: float | None = None,
                 speculate: bool = False,
                 quarantine_after: int = 3,
                 map_workloads: bool = False,
                 warm_start: str | Path | None = None,
                 trace_dir: str | Path | None = None,
                 base_seed: int = 0):
        self.trials = trials
        self.workloads = list(workloads or all_workload_names())
        self.datasets = list(datasets or DATASET_LABELS)
        self.tuners = list(tuners or TUNER_NAMES)
        unknown = set(self.tuners) - set(TUNER_NAMES)
        if unknown:
            raise ValueError(f"unknown tuners: {sorted(unknown)}")
        # Five permutation-importance repeats (the runner's default is
        # ten) keep selection at the cost the study's figures assume.
        self.spec = SessionSpec(
            self.workloads[0], budget=budget, selection_repeats=5,
            fault_rate=fault_rate, retries=retries,
            async_workers=async_workers, eval_timeout_s=eval_timeout_s,
            speculate=speculate, quarantine_after=quarantine_after)
        self.map_workloads = bool(map_workloads)
        if warm_start is not None:
            journal_paths(warm_start)  # fail fast before any session runs
        self.warm_start = str(warm_start) if warm_start is not None else None
        self.keep_results = keep_results
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.base_seed = base_seed

    def session_spec(self, tuner: str, workload: str, dataset: str,
                     trial: int) -> SessionSpec:
        """The spec of one grid cell's session.

        Its seed is the CRC-32 of the cell's coordinates and the base
        seed: stable across processes (unlike the salted builtin
        ``hash``) and independent of the order cells run in.
        """
        key = f"{self.base_seed}|{tuner}|{workload}|{dataset}|{trial}"
        return replace(self.spec, workload=workload, dataset=dataset,
                       seed=zlib.crc32(key.encode()))

    # -- execution ---------------------------------------------------------------------
    def run(self, progress: Callable[[str], None] | None = None) -> StudyResult:
        """Execute every session of the study grid, one after another.

        Each ``(trial, workload, tuner)`` sweep starts fresh knowledge
        stores and visits its datasets in order, so D2/D3 see the warm
        stores D1 populated.  *progress*, when given, receives one line
        per session.
        """
        if self.map_workloads:
            # Whole-grid sweeps: the mapper and knowledge stores persist
            # across every workload of a (trial, tuner) pair.
            sweeps = [(trial, tuner_name, self.workloads)
                      for trial in range(self.trials)
                      for tuner_name in self.tuners]
        else:
            sweeps = [(trial, tuner_name, [workload])
                      for trial in range(self.trials)
                      for workload in self.workloads
                      for tuner_name in self.tuners]
        study = StudyResult()
        for trial, tuner_name, workloads in sweeps:
            stores = (ParameterSelectionCache(), ConfigMemoizationBuffer())
            mapper = WorkloadMapper(spark_space()) if self.map_workloads \
                else None
            for workload in workloads:
                for dataset in self.datasets:
                    rec = self._run_session(
                        self.session_spec(tuner_name, workload, dataset,
                                          trial),
                        tuner_name, trial, stores, mapper)
                    study.records.append(rec)
                    if progress is not None:
                        progress(f"{rec.tuner} {rec.workload}/{rec.dataset} "
                                 f"trial {rec.trial}: "
                                 f"best={rec.best_time_s:.0f}s "
                                 f"cost={rec.search_cost_s / 60:.0f}min")
        return study

    def _run_session(self, spec: SessionSpec, tuner_name: str, trial: int,
                     stores: tuple[ParameterSelectionCache,
                                   ConfigMemoizationBuffer],
                     mapper: WorkloadMapper | None) -> SessionRecord:
        tracer = trace_path = None
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            # The session seed is part of the filename: it folds in the
            # study's base_seed, so two studies sharing one trace_dir
            # (different base seeds, same grid) never collide on the
            # (tuner, workload, dataset, trial) coordinates alone —
            # JsonlTraceWriter refuses to append to an existing trace.
            trace_path = str(self.trace_dir / (
                f"{tuner_name}-{spec.workload}-{spec.dataset}"
                f"-trial{trial}-s{spec.seed:08x}.jsonl"))
            tracer = Tracer(JsonlTraceWriter(trace_path),
                            meta={"tuner": tuner_name,
                                  "workload": spec.workload,
                                  "dataset": spec.dataset, "trial": trial,
                                  "budget": spec.budget, "seed": spec.seed})
        objective = build_objective(spec, tracer=tracer)
        if tuner_name == "ROBOTune":
            tuner: Tuner = build_tuner(
                spec, selection_cache=stores[0], memo_buffer=stores[1],
                warm_start=self.warm_start, mapper=mapper)
        else:
            tuner = _BASELINES[tuner_name]()
        try:
            result = drive(spec, tuner, objective, tracer=tracer)
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
            tuner=tuner_name, workload=spec.workload, dataset=spec.dataset,
            trial=trial,
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
