"""Concurrent evaluation through objective views: ``spawn_view``
semantics, and the engine's dispatch onto views (``async_workers > 1``)
or its audible serial fallback for wrappers that cannot spawn them."""

import numpy as np
import pytest

from repro.core import BOEngine
from repro.core.journal import EvaluationJournal, JournaledObjective
from repro.sampling import latin_hypercube
from repro.tuners import SyntheticObjective, synthetic_space


def make_problem(dim=4, seed=0, noise=0.01):
    space = synthetic_space(dim)
    objective = SyntheticObjective(space, n_effective=min(3, dim),
                                   noise=noise, rng=seed)
    U = latin_hypercube(8, dim, rng=seed)
    initial = [objective(u) for u in U]
    return space, objective, initial


class TestSpawnViewDispatch:
    def test_synthetic_objective_spawns_independent_views(self):
        objective = SyntheticObjective(rng=0)
        v1 = objective.spawn_view()
        v2 = objective.spawn_view()
        u = np.full(objective.space.dim, 0.4)
        e1, e2 = v1(u), v2(u)
        assert e1.objective != e2.objective  # independent noise streams
        assert objective.n_evaluations == 2  # shared counter

    def test_views_share_counter_under_threads(self):
        from concurrent.futures import ThreadPoolExecutor
        objective = SyntheticObjective(rng=1)
        views = [objective.spawn_view() for _ in range(8)]
        u = np.full(objective.space.dim, 0.5)
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(lambda v: v(u), views))
        assert objective.n_evaluations == 8

    def test_journaled_objective_spawns_concurrent_views(self, tmp_path):
        # JournaledObjective implements spawn_view itself (views share
        # the journal behind a lock), so evaluations through it run
        # concurrently while every point is still journaled.
        space, objective, initial = make_problem(seed=19)
        journal = EvaluationJournal(tmp_path / "batch.jsonl")
        wrapped = JournaledObjective(objective, journal)
        assert wrapped.spawn_view_capable
        engine = BOEngine(rng=20, n_candidates=64, async_workers=3)
        evals = engine.minimize(wrapped, space, initial, budget=6)
        assert len(evals) == 6
        assert len(journal) == 6  # every point journaled
        journal.close()

    def test_wrapped_non_spawnable_falls_back_to_serial(self, tmp_path):
        # A spawnable wrapper around a non-spawnable inner objective
        # must still degrade to serial — audibly.
        space, objective, initial = make_problem(seed=19)

        class _Plain:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def __call__(self, u, time_limit_s=None):
                return self._inner(u, time_limit_s)

        journal = EvaluationJournal(tmp_path / "batch2.jsonl")
        wrapped = JournaledObjective(_Plain(objective), journal)
        assert not wrapped.spawn_view_capable
        engine = BOEngine(rng=20, n_candidates=64, async_workers=3)
        with pytest.warns(RuntimeWarning, match="degraded to serial"):
            evals = engine.minimize(wrapped, space, initial, budget=6)
        assert len(evals) == 6
        assert len(journal) == 6  # every point journaled
        journal.close()

    def test_workload_objective_spawn_view(self):
        from repro.space.spark_params import spark_space
        from repro.tuners.objective import WorkloadObjective
        from repro.workloads.registry import get_workload
        space = spark_space()
        objective = WorkloadObjective(get_workload("kmeans", "D1"), space,
                                      rng=0)
        view = objective.spawn_view()
        u = np.full(space.dim, 0.5)
        e1 = view(u, None)
        assert e1.cost_s > 0
        assert objective.n_evaluations == 1

    def test_spawning_is_deterministic(self):
        a = SyntheticObjective(rng=42)
        b = SyntheticObjective(rng=42)
        u = np.full(a.space.dim, 0.3)
        ra = [a.spawn_view()(u).objective for _ in range(3)]
        rb = [b.spawn_view()(u).objective for _ in range(3)]
        assert ra == rb
