"""ROBOTune: the full tuning framework (paper Figure 1).

Ties the three components together:

1. **Memoized Sampling** — parameter-selection cache lookup; LHS tuning
   samples in the selected subspace; best recent configurations pulled
   from the memoization buffer for repeated workloads.
2. **Parameter Selection** — on a cache miss, execute generic LHS samples
   over the full 44-parameter space and select high-impact parameters
   with the Random-Forests MDA ranking.
3. **BO Engine** — GP surrogate + GP-Hedge portfolio search over the
   reduced space, guarded by the median-multiple kill threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs import as_tracer, evaluation_data
from ..sampling.lhs import maximin_latin_hypercube
from ..space.space import ConfigSpace
from ..tuners.base import (Evaluation, Objective, Tuner, TuningResult,
                           workload_key)
from ..supervise import SupervisePolicy
from ..utils.rng import as_generator
from .bo import BOEngine, BOIterationRecord
from .guard import MedianGuard
from .memo import ConfigMemoizationBuffer, ParameterSelectionCache
from .selection import ParameterSelector, SelectionResult
from .transfer import WorkloadMapper
from .warmstart import journal_paths, load_warm_start

__all__ = ["ROBOTune", "ROBOTuneResult"]


@dataclass
class ROBOTuneResult(TuningResult):
    """TuningResult plus ROBOTune-specific diagnostics."""

    selection: SelectionResult | None = None
    selection_evaluations: list[Evaluation] = field(default_factory=list)
    selection_cache_hit: bool = False
    memoized_used: int = 0
    reduced_space: ConfigSpace | None = None
    base_config: dict | None = None
    bo_records: list[BOIterationRecord] = field(default_factory=list)
    #: configurations the supervisor quarantined as poison this session.
    quarantined_configs: list[dict] = field(default_factory=list)
    #: prior-journal observations folded into the surrogate (0 = cold).
    warm_start_n: int = 0
    #: journal files those observations came from.
    warm_start_sources: tuple[str, ...] = ()
    #: workload whose selection the mapper reused, when one matched.
    mapped_from: str | None = None
    #: execution time the mapper's probe set consumed.
    mapping_cost_s: float = 0.0

    @property
    def search_cost_s(self) -> float:
        """Simulated search cost including mapper probes (§5.3).

        Probe evaluations execute on the cluster just like tuning
        samples, so their time is charged to the search — unlike
        ``selection_cost_s``, which the paper reports separately.
        """
        return super().search_cost_s + self.mapping_cost_s


class ROBOTune(Tuner):
    """Random-FOrests + Bayesian-Optimization configuration tuner.

    Parameters
    ----------
    selector:
        Parameter-selection component (100 generic LHS samples, RF + MDA).
    selection_cache / memo_buffer:
        The memoized-sampling stores; pass shared (or JSON-backed)
        instances to carry knowledge across sessions, or leave None for
        fresh in-memory stores (cold tuner).
    init_samples:
        Size of the BO training set (paper: 20).
    memo_configs:
        Best Recent Configs pulled on a repeated workload (paper: 4).
    guard_multiplier:
        Median multiple for the bad-configuration guard.
    async_workers:
        Asynchronous BO worker count (forwarded to :class:`BOEngine`
        ``async_workers``).  ``0`` (default) runs the paper's serial
        loop; ``k >= 1`` keeps ``k`` evaluations in flight with
        busy-point penalization, folding completions into the surrogate
        as they land.
    supervise:
        Optional :class:`repro.supervise.SupervisePolicy` (forwarded to
        :class:`BOEngine`; requires ``async_workers >= 1``).  Enables
        per-evaluation deadlines, reclaim-and-redispatch, speculative
        re-execution and poison-config quarantine; vectors the
        supervisor quarantines are additionally blocked out of the
        memoization buffer after the session so they never seed a future
        one.  See docs/ROBUSTNESS.md.
    warm_start:
        Directory of prior-session :class:`EvaluationJournal` files.
        Journals matching this session's workload (or one the *mapper*
        matched) are encoded into the reduced space, given a normalized
        datasize context column, and folded into the surrogate before
        iteration 0 (see :mod:`repro.core.warmstart`).  Validated
        fail-fast at construction; ``None`` (default) starts cold.
    mapper:
        Optional shared :class:`WorkloadMapper`.  On a selection-cache
        miss the workload is probed first; a strong signature match
        reuses the matched workload's selected parameters (skipping the
        100-sample selection run) and admits its journals as warm-start
        priors.  Unmatched workloads pay the full selection and are then
        registered so *future* sessions can map onto them.  Probe time
        is charged to ``search_cost_s``.
    engine_kwargs:
        Extra arguments forwarded to :class:`BOEngine` (portfolio, candidate
        counts, hyperopt schedule, refinement on/off, early stopping,
        async workers, ...).
    n_jobs:
        Workers for the selection phase's forest training and permutation
        importance when the default selector is constructed (an explicit
        *selector* keeps its own setting), and — unless overridden in
        *engine_kwargs* — for the BO engine's multi-start GP fits.
        ``None`` defers to the ``ROBOTUNE_JOBS``
        environment variable.  Tuning decisions are identical for any
        worker count.
    """

    name = "ROBOTune"

    def __init__(self, *, selector: ParameterSelector | None = None,
                 selection_cache: ParameterSelectionCache | None = None,
                 memo_buffer: ConfigMemoizationBuffer | None = None,
                 init_samples: int = 20, memo_configs: int = 4,
                 guard_multiplier: float = 3.0,
                 store_results: int = 4,
                 async_workers: int = 0,
                 supervise: SupervisePolicy | None = None,
                 warm_start: str | None = None,
                 mapper: WorkloadMapper | None = None,
                 engine_kwargs: dict | None = None,
                 n_jobs: int | None = None,
                 rng: np.random.Generator | int | None = None):
        if init_samples < 2:
            raise ValueError("init_samples must be >= 2")
        if not 0 <= memo_configs <= init_samples:
            raise ValueError("memo_configs must be within [0, init_samples]")
        self.selector = selector
        # `is None` checks matter: empty stores are falsy (they define
        # __len__), and an empty store passed in must still be shared.
        self.selection_cache = selection_cache if selection_cache is not None \
            else ParameterSelectionCache()
        self.memo_buffer = memo_buffer if memo_buffer is not None \
            else ConfigMemoizationBuffer()
        self.init_samples = init_samples
        self.memo_configs = memo_configs
        self.guard_multiplier = guard_multiplier
        self.store_results = store_results
        if async_workers < 0:
            raise ValueError("async_workers must be >= 0")
        if supervise is not None and async_workers < 1:
            raise ValueError("supervise requires async_workers >= 1")
        self.async_workers = async_workers
        self.supervise = supervise
        if warm_start is not None:
            journal_paths(warm_start)  # fail fast before any cluster time
        self.warm_start = warm_start
        self.mapper = mapper
        self.engine_kwargs = dict(engine_kwargs or {})
        self.engine_kwargs.setdefault("async_workers", async_workers)
        self.engine_kwargs.setdefault("supervise", supervise)
        # The engine shares the worker budget: it parallelizes GP
        # multi-start fits, which return identical results for any
        # worker count.
        self.engine_kwargs.setdefault("n_jobs", n_jobs)
        self.n_jobs = n_jobs
        self._rng = as_generator(rng)

    # -- main entry point ---------------------------------------------------------
    def tune(self, objective: Objective, budget: int,
             rng: np.random.Generator | int | None = None,
             tracer=None) -> ROBOTuneResult:
        if budget < 1:
            raise ValueError("budget must be >= 1")
        rng = as_generator(rng) if rng is not None else self._rng
        tracer = as_tracer(tracer)
        # The stores are shared across sessions; rebind their observation
        # hook every call so a traced session never leaks events into a
        # closed tracer from a previous one.
        self.selection_cache.tracer = tracer
        self.memo_buffer.tracer = tracer
        space = objective.space
        wl = getattr(objective, "workload", None)
        cache_key = wl.key if wl is not None else ""

        result = ROBOTuneResult(tuner=self.name,
                                workload=workload_key(objective))

        with tracer.span("tune", tuner=self.name, budget=int(budget)):
            # ---- memoized sampling: parameter-selection cache -----------------
            selected = self.selection_cache.get(cache_key) if cache_key \
                else None
            result.selection_cache_hit = selected is not None
            mapping = None
            if selected is None and self.mapper is not None and cache_key:
                with tracer.span("transfer.probe"):
                    mapping = self.mapper.map(objective)
                result.mapping_cost_s = mapping.probe_cost_s
                tracer.emit("transfer.map",
                            {"workload": cache_key,
                             "matched": mapping.matched,
                             "correlation": float(mapping.correlation),
                             "probe_cost_s": float(mapping.probe_cost_s),
                             "n_probes": int(self.mapper.n_probes)})
                if mapping.matched is not None:
                    selected = self.mapper.selected_for(mapping.matched)
                    result.mapped_from = mapping.matched
                    self.mapper.register(cache_key, mapping.signature,
                                         selected)
                    self.selection_cache.put(cache_key, selected)
            if selected is None:
                selector = self.selector or ParameterSelector(
                    rng=rng, n_jobs=self.n_jobs)
                with tracer.span("selection"):
                    sel_evals = selector.collect(objective, space,
                                                 tracer=tracer)
                    sel = selector.select(space, sel_evals, tracer=tracer)
                result.selection = sel
                result.selection_evaluations = sel_evals
                result.selection_cost_s = sel.cost_s
                selected = list(sel.selected)
                if cache_key:
                    self.selection_cache.put(cache_key, selected)
                if mapping is not None and selected:
                    # Unmatched workload: record its probe signature so
                    # future sessions can map onto this selection.
                    self.mapper.register(cache_key, mapping.signature,
                                         selected)
            else:
                tracer.emit("selection.params",
                            {"selected": list(selected), "groups": [],
                             "oob_r2": None, "n_samples": 0, "cost_s": 0.0,
                             "cached": True})
            result.selected_parameters = list(selected)

            # Pin the unselected (low-impact) parameters to the best complete
            # configuration already known — the best selection sample on a
            # cold run, the best memoized config on a warm one — rather than
            # Spark defaults: the selection phase already paid for this
            # information.
            base = self._base_config(result, cache_key)
            result.base_config = base
            reduced = space.subspace([n for n in selected if n in space],
                                     base=base)
            result.reduced_space = reduced
            reduced_objective = self._rebind(objective, reduced)

            # ---- journal-backed warm start ------------------------------------
            warm = None
            if self.warm_start is not None and wl is not None:
                accept = [result.mapped_from] if result.mapped_from else []
                warm = load_warm_start(self.warm_start, wl, reduced,
                                       accept_workloads=accept,
                                       memo=self.memo_buffer,
                                       tracer=tracer)
                if warm is not None:
                    result.warm_start_n = warm.n
                    result.warm_start_sources = tuple(warm.sources)

            # ---- memoized sampling: initial training set ----------------------
            init_vectors = self._initial_design(reduced, cache_key, budget,
                                                rng, result)
            init_evals: list[Evaluation] = []
            with tracer.span("initial_design",
                             memoized=int(result.memoized_used)):
                for i, u in enumerate(init_vectors):
                    ev = reduced_objective(u, None)
                    init_evals.append(ev)
                    tracer.emit("eval.result", evaluation_data(i, ev))
                    tracer.count("evals")
            result.evaluations.extend(init_evals)

            # ---- BO engine ----------------------------------------------------
            remaining = budget - len(init_evals)
            if remaining > 0:
                guard = MedianGuard(self.guard_multiplier,
                                    static_limit_s=objective.time_limit_s,
                                    tracer=tracer)
                engine_kwargs = dict(self.engine_kwargs)
                if warm is not None:
                    engine_kwargs["warm_start"] = warm
                engine = BOEngine(rng=rng, tracer=tracer, **engine_kwargs)
                with tracer.span("bo", budget=int(remaining)):
                    bo_evals = engine.minimize(reduced_objective, reduced,
                                               init_evals, remaining, guard)
                result.evaluations.extend(bo_evals)
                result.bo_records = engine.records
                # Poison configs the supervisor quarantined must never
                # seed a future session through the memo buffer.
                for u in engine.quarantined:
                    conf = dict(reduced.decode(u))
                    result.quarantined_configs.append(conf)
                    if cache_key:
                        self.memo_buffer.block(cache_key, conf)

            # ---- memoize the well-tuned configurations ------------------------
            if cache_key:
                ok = sorted((e for e in result.evaluations if e.ok),
                            key=lambda e: e.objective)
                dataset = wl.dataset.label if wl is not None else ""
                for e in ok[: self.store_results]:
                    self.memo_buffer.add(cache_key, e.config, e.objective,
                                         dataset=dataset)
        return result

    # -- helpers ---------------------------------------------------------------------
    def _base_config(self, result: ROBOTuneResult,
                     cache_key: str) -> dict | None:
        """Best known full configuration to pin unselected parameters to."""
        memoized = self.memo_buffer.best(cache_key, 1) if cache_key else []
        if memoized:
            return dict(memoized[0].config)
        ok = [e for e in result.selection_evaluations if e.ok]
        if ok:
            return dict(min(ok, key=lambda e: e.objective).config)
        return None

    @staticmethod
    def _rebind(objective: Objective, reduced: ConfigSpace):
        """View the objective through the reduced space."""
        with_space = getattr(objective, "with_space", None)
        if with_space is None:
            raise TypeError("objective must provide with_space(space) so "
                            "ROBOTune can tune the selected subspace")
        return with_space(reduced)

    def _initial_design(self, reduced: ConfigSpace, cache_key: str,
                        budget: int, rng: np.random.Generator,
                        result: ROBOTuneResult) -> np.ndarray:
        """20 LHS tuning samples, or 16 LHS + 4 Best Recent Configs."""
        m = min(self.init_samples, budget)
        memoized = self.memo_buffer.best(cache_key, self.memo_configs) \
            if cache_key else []
        memo_vectors = [reduced.encode(mc.config) for mc in memoized]
        memo_vectors = memo_vectors[: max(m - 1, 0)]  # keep >= 1 LHS sample
        result.memoized_used = len(memo_vectors)
        n_lhs = m - len(memo_vectors)
        lhs = maximin_latin_hypercube(n_lhs, reduced.dim, rng) if n_lhs else \
            np.empty((0, reduced.dim))
        if memo_vectors:
            return np.vstack([np.asarray(memo_vectors), lhs])
        return lhs
