"""Tests for the BO engine (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import BOEngine, GPHedge, LowerConfidenceBound, MedianGuard
from repro.sampling import latin_hypercube
from repro.tuners import SyntheticObjective, synthetic_space


def make_problem(dim=4, seed=0, noise=0.01):
    space = synthetic_space(dim)
    objective = SyntheticObjective(space, n_effective=min(3, dim),
                                   noise=noise, rng=seed)
    U = latin_hypercube(8, dim, rng=seed)
    initial = [objective(u) for u in U]
    return space, objective, initial


class TestMinimize:
    def test_improves_over_initial_design(self):
        space, objective, initial = make_problem(seed=1)
        engine = BOEngine(rng=2, n_candidates=128)
        evals = engine.minimize(objective, space, initial, budget=25)
        best_init = min(e.objective for e in initial)
        best_bo = min(e.objective for e in evals)
        assert best_bo < best_init

    def test_approaches_known_optimum(self):
        space, objective, initial = make_problem(seed=3)
        engine = BOEngine(rng=4, n_candidates=256)
        evals = engine.minimize(objective, space, initial, budget=40)
        best = min(evals, key=lambda e: e.objective)
        # True optimum value is base=10; noise-free bowl is steep.
        assert best.objective < 15.0

    def test_respects_budget(self):
        space, objective, initial = make_problem(seed=5)
        engine = BOEngine(rng=6, n_candidates=64, refine=False)
        evals = engine.minimize(objective, space, initial, budget=7)
        assert len(evals) == 7
        assert objective.n_evaluations == len(initial) + 7

    def test_zero_budget(self):
        space, objective, initial = make_problem(seed=7)
        engine = BOEngine(rng=8)
        assert engine.minimize(objective, space, initial, budget=0) == []

    def test_requires_priors(self):
        space, objective, _ = make_problem(seed=9)
        engine = BOEngine(rng=10)
        with pytest.raises(ValueError):
            engine.minimize(objective, space, [], budget=3)

    def test_records_per_iteration(self):
        space, objective, initial = make_problem(seed=11)
        engine = BOEngine(rng=12, n_candidates=64, refine=False)
        engine.minimize(objective, space, initial, budget=5)
        assert len(engine.records) == 5
        for i, rec in enumerate(engine.records):
            assert rec.iteration == i
            assert rec.chosen_acquisition in ("PI", "EI", "LCB")
            assert rec.point.shape == (space.dim,)
            np.testing.assert_allclose(rec.probabilities.sum(), 1.0)

    def test_early_stopping(self):
        space, objective, initial = make_problem(seed=13)
        engine = BOEngine(rng=14, n_candidates=64, refine=False,
                          early_stop_patience=3)
        evals = engine.minimize(objective, space, initial, budget=50)
        assert len(evals) < 50

    def test_custom_portfolio(self):
        space, objective, initial = make_problem(seed=15)
        engine = BOEngine(rng=16, n_candidates=64, refine=False,
                          hedge=GPHedge([LowerConfidenceBound()], rng=16))
        engine.minimize(objective, space, initial, budget=4)
        assert all(r.chosen_acquisition == "LCB" for r in engine.records)

    def test_guard_receives_initial_and_new_observations(self):
        space, objective, initial = make_problem(seed=17)
        guard = MedianGuard(3.0, static_limit_s=480.0, min_observations=2)
        engine = BOEngine(rng=18, n_candidates=64, refine=False)
        engine.minimize(objective, space, initial, budget=3, guard=guard)
        assert guard.threshold_s() is not None
        assert guard.threshold_s() < 480.0

    def test_points_snapped_to_space(self):
        space, objective, initial = make_problem(seed=19)
        engine = BOEngine(rng=20, n_candidates=64, refine=False)
        evals = engine.minimize(objective, space, initial, budget=4)
        for e in evals:
            np.testing.assert_allclose(e.vector, space.snap(e.vector),
                                       atol=1e-12)


class TestValidation:
    def test_bad_args(self):
        with pytest.raises(ValueError):
            BOEngine(n_candidates=2)
        with pytest.raises(ValueError):
            BOEngine(hyperopt_every=0)
        with pytest.raises(ValueError):
            BOEngine(refine_starts=0)
        space, objective, initial = make_problem()
        with pytest.raises(ValueError):
            BOEngine(rng=0).minimize(objective, space, initial, budget=-1)
