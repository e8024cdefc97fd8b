"""Parity of the batched permutation-importance scorer with the loop."""

import numpy as np
import pytest

from repro.ml import RandomForestRegressor, grouped_permutation_importance
from repro.ml.importance import (_permuted_oob_scores_batched,
                                 _permuted_oob_scores_loop)


def make_problem(n=150, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 6))
    y = 5 * X[:, 0] + 2 * X[:, 1] * X[:, 2] + rng.normal(0, 0.05, n)
    forest = RandomForestRegressor(40, rng=seed).fit(X, y)
    groups = {"a": [0], "bc": [1, 2], "rest": [3, 4], "f5": [5]}
    return forest, groups


class TestScorerParity:
    @pytest.mark.parametrize("cols", [(0,), (1, 2), (3, 4, 5)])
    def test_batched_scores_bitwise_equal_loop(self, cols):
        forest, _ = make_problem()
        n = forest._X_train.shape[0]
        rng = np.random.default_rng(3)
        perms = np.stack([rng.permutation(n) for _ in range(6)])
        a = _permuted_oob_scores_batched(forest, cols, perms)
        b = _permuted_oob_scores_loop(forest, cols, perms)
        np.testing.assert_array_equal(a, b)


class TestImportanceParity:
    def test_n_jobs_does_not_change_result(self):
        forest, groups = make_problem(seed=2)
        a = grouped_permutation_importance(forest, groups, n_repeats=4,
                                           rng=7, n_jobs=1)
        b = grouped_permutation_importance(forest, groups, n_repeats=4,
                                           rng=7, n_jobs=3)
        assert [(g.group, g.importance) for g in a] \
            == [(g.group, g.importance) for g in b]

    def test_signal_features_rank_first(self):
        forest, groups = make_problem(seed=3)
        res = grouped_permutation_importance(forest, groups, n_repeats=5,
                                             rng=5)
        assert res[0].group in ("a", "bc")
        assert res[0].importance > res[-1].importance
