"""Tests for figure-specific computations (small scale)."""

import numpy as np
import pytest

from repro.bench import (collect_lhs_times, model_r2_scores,
                         response_surface, selection_recall_sweep)
from repro.core import ParameterSelector, ROBOTune
from repro.ml import ElasticNet
from repro.tuners import WorkloadObjective
from repro.space import spark_space
from repro.workloads import get_workload


class TestCollectAndModel:
    def test_collect_shapes(self):
        U, y = collect_lhs_times("terasort", "D1", 25, rng=1)
        assert U.shape == (25, 44)
        assert y.shape == (25,)
        assert np.all(y > 0)

    def test_model_scores_returns_all_models(self):
        rng = np.random.default_rng(0)
        U = rng.random((60, 10))
        y = np.exp(2 * U[:, 0] + rng.normal(0, 0.05, 60))
        models = {"Linear": lambda: ElasticNet(0.0)}
        scores = model_r2_scores(U, y, rng=1, models=models)
        assert set(scores) == {"Linear"}
        assert scores["Linear"] > 0.8  # log target linearizes it


class TestRecallSweep:
    def test_sweep_structure(self):
        points = selection_recall_sweep(
            "terasort", ground_truth_samples=60, sample_counts=(40, 20),
            rng=2, selector_kwargs={"n_trees": 40, "n_repeats": 2})
        assert [p.n_samples for p in points] == [60, 40, 20]
        assert points[0].recall == 1.0  # ground truth vs itself
        for p in points:
            assert 0.0 <= p.recall <= 1.0


class TestResponseSurface:
    @pytest.fixture(scope="class")
    def session(self):
        space = spark_space()
        # Force a known reduced space via a pre-seeded selection cache so
        # the surface axes always exist.
        from repro.core import ParameterSelectionCache
        cache = ParameterSelectionCache()
        cache.put("pagerank", ["spark.executor.cores",
                               "spark.executor.memory",
                               "spark.executor.instances"])
        tuner = ROBOTune(selection_cache=cache, rng=3,
                         engine_kwargs={"n_candidates": 64, "refine": False})
        objective = WorkloadObjective(get_workload("pagerank", "D1"), space,
                                      rng=4)
        return tuner.tune(objective, 30, rng=5)

    def test_surface_shapes(self, session):
        surfaces = response_surface(session, at_iterations=(10, 25),
                                    grid=9)
        assert set(surfaces) == {10, 25}
        for surf in surfaces.values():
            assert surf["mean"].shape == (9, 9)
            assert surf["xs"].shape == (9,)
            assert np.all(np.isfinite(surf["mean"]))

    def test_points_prefix_grows(self, session):
        surfaces = response_surface(session, at_iterations=(10, 25), grid=5)
        assert len(surfaces[10]["points"]) == 10
        assert len(surfaces[25]["points"]) == 25

    def test_unknown_axis_rejected(self, session):
        with pytest.raises(KeyError):
            response_surface(session, x_param="spark.locality.wait")
