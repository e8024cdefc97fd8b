"""Parity of the path-restricted permutation-importance scorer with the
plain reference in ``importance_reference``."""

import numpy as np
import pytest

from importance_reference import (oob_prediction, oob_score,
                                  permuted_oob_scores_loop)
from repro.ml import (ExtraTreesRegressor, RandomForestRegressor,
                      grouped_permutation_importance)
from repro.ml.importance import _oob_paths, _permuted_oob_scores
from repro.obs import InMemorySink, Tracer


def make_data(n=150, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 6))
    y = 5 * X[:, 0] + 2 * X[:, 1] * X[:, 2] + rng.normal(0, 0.05, n)
    return X, y


def make_problem(n=150, seed=0):
    X, y = make_data(n, seed)
    forest = RandomForestRegressor(40, rng=seed).fit(X, y)
    groups = {"a": [0], "bc": [1, 2], "rest": [3, 4], "f5": [5]}
    return forest, groups


def scores(forest, cols, n_repeats=6, seed=3):
    """(scorer under test, reference) for one group's permutations."""
    n = forest._X_train.shape[0]
    rng = np.random.default_rng(seed)
    perms = np.stack([rng.permutation(n) for _ in range(n_repeats)])
    got, _ = _permuted_oob_scores(forest, *_oob_paths(forest), cols, perms)
    return got, permuted_oob_scores_loop(forest, cols, perms)


class TestScorerParity:
    @pytest.mark.parametrize("cols", [(0,), (1, 2), (3, 4, 5)])
    def test_batched_scores_bitwise_equal_loop(self, cols):
        np.testing.assert_array_equal(*scores(make_problem()[0], cols))

    @pytest.mark.parametrize("cols", [(0,), (1, 2), (3, 4, 5)])
    def test_extra_trees_bitwise_equal_loop(self, cols):
        X, y = make_data(seed=1)
        forest = ExtraTreesRegressor(40, rng=1).fit(X, y)
        np.testing.assert_array_equal(*scores(forest, cols))

    def test_group_of_every_column(self):
        np.testing.assert_array_equal(
            *scores(make_problem(seed=4)[0], tuple(range(6))))

    def test_single_repeat(self):
        np.testing.assert_array_equal(
            *scores(make_problem(seed=5)[0], (1, 2), n_repeats=1))

    def test_untested_constant_column_drops_exactly_zero(self):
        X, y = make_data(seed=6)
        X[:, 5] = 0.25  # no split can test a constant column
        forest = RandomForestRegressor(40, rng=6).fit(X, y)
        got, ref = scores(forest, (5,))
        np.testing.assert_array_equal(got, ref)
        res = {g.group: g for g in grouped_permutation_importance(
            forest, {"a": [0], "const": [5]}, n_repeats=4, rng=7)}
        assert res["const"].importance == 0.0
        assert res["const"].std == 0.0

    def test_constant_target_makes_single_leaf_trees(self):
        X, _ = make_data(n=60, seed=7)
        forest = RandomForestRegressor(20, rng=7).fit(X, np.full(60, 3.5))
        assert all(t.node_count == 1 for t in forest.trees_)
        np.testing.assert_array_equal(*scores(forest, (0, 1)))

    def test_trees_without_oob_rows(self):
        X, y = make_data(n=3, seed=8)
        forest = RandomForestRegressor(40, rng=8).fit(X, y)
        assert (~forest.oob_mask_.any(axis=1)).sum() > 0
        np.testing.assert_array_equal(*scores(forest, (0,)))
        np.testing.assert_array_equal(*scores(forest, (1, 2, 3)))

    @pytest.mark.parametrize("kind", [RandomForestRegressor,
                                      ExtraTreesRegressor])
    @pytest.mark.parametrize("n", [3, 150])
    def test_oob_prediction_and_score(self, kind, n):
        X, y = make_data(n=n, seed=9)
        forest = kind(40, rng=9).fit(X, y)
        Xp = X.copy()
        Xp[:, 0] = X[np.random.default_rng(10).permutation(n), 0]
        for M in (X, Xp):
            np.testing.assert_array_equal(forest.oob_prediction(M),
                                          oob_prediction(forest, M))
            assert forest.oob_score(M) == oob_score(forest, M)
        # The scorer's baseline: every unpermuted path in the node table.
        pred = forest._oob_average(_oob_paths(forest)[0])
        np.testing.assert_array_equal(pred, oob_prediction(forest, X))
        assert forest._oob_r2(pred) == oob_score(forest, X)


class TestImportanceParity:
    def test_drops_equal_reference_drops(self):
        forest, groups = make_problem(seed=12)
        got = grouped_permutation_importance(forest, groups, n_repeats=4,
                                             rng=13)
        # The scorer draws one group's permutations after another.
        rng = np.random.default_rng(13)
        n = forest._X_train.shape[0]
        baseline = oob_score(forest, forest._X_train)
        want = {}
        for label, cols in groups.items():
            perms = np.stack([rng.permutation(n) for _ in range(4)])
            drops = baseline - permuted_oob_scores_loop(forest, tuple(cols),
                                                        perms)
            want[label] = (float(drops.mean()), float(drops.std(ddof=1)))
        assert {g.group: (g.importance, g.std) for g in got} == want

    def test_signal_features_rank_first(self):
        forest, groups = make_problem(seed=3)
        res = grouped_permutation_importance(forest, groups, n_repeats=5,
                                             rng=5)
        assert res[0].group in ("a", "bc")
        assert res[0].importance > res[-1].importance

    def test_event_counts_only_the_descents_made(self):
        X, y = make_data(seed=11)
        X[:, 5] = 0.25
        forest = RandomForestRegressor(40, rng=11).fit(X, y)
        sink = InMemorySink()
        tracer = Tracer(sink)
        grouped_permutation_importance(forest, {"const": [5]}, n_repeats=3,
                                       rng=1, tracer=tracer)
        grouped_permutation_importance(forest, {"all": range(6)},
                                       n_repeats=3, rng=1, tracer=tracer)
        const, every = [e["data"] for e in sink.events()
                        if e["type"] == "importance"]
        pairs = int(forest.oob_mask_.sum())
        assert const == {"groups": 1, "repeats": 3, "oob_pairs": pairs,
                         "descents": 0}
        # Every path that leaves its root tests some column.
        split_roots = sum(int(mask.sum()) for t, mask
                          in zip(forest.trees_, forest.oob_mask_)
                          if t.node_count > 1)
        assert every["descents"] == 3 * split_roots
