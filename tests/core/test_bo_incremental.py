"""Rank-k GP refits and refinement behavior of the BO engine."""

import numpy as np

from repro.core import BOEngine
from repro.sampling import latin_hypercube
from repro.tuners import SyntheticObjective, synthetic_space


def make_problem(dim=3, seed=0):
    space = synthetic_space(dim)
    objective = SyntheticObjective(space, n_effective=min(3, dim),
                                   noise=0.01, rng=seed)
    U = latin_hypercube(8, dim, rng=seed)
    initial = [objective(u) for u in U]
    return space, objective, initial


class TestIncremental:
    def test_gp_instance_is_reused(self):
        space, objective, initial = make_problem(seed=2)
        engine = BOEngine(rng=3, n_candidates=64)
        engine.minimize(objective, space, initial, budget=4)
        assert engine.last_gp is engine._gp

    def test_incremental_gp_grows_without_refit(self):
        space, objective, initial = make_problem(seed=4)
        engine = BOEngine(rng=5, n_candidates=64, hyperopt_every=100)
        engine.minimize(objective, space, initial, budget=6)
        assert engine.last_gp.X_train_.shape[0] == len(initial) + 6


class TestRefine:
    def test_refined_nominee_never_worse_than_start(self):
        # _refine accepts the polished point only when it beats the sweep
        # winner; either way the evaluated point stays within the unit
        # box.
        space, objective, initial = make_problem(seed=6)
        engine = BOEngine(rng=7, n_candidates=64, refine=True)
        evals = engine.minimize(objective, space, initial, budget=6)
        for e in evals:
            v = np.asarray(e.vector)
            assert np.all(v >= 0.0) and np.all(v <= 1.0)
