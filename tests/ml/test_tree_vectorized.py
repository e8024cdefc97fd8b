"""The reference grower's two CART threshold searches agree, and its
batched split search picks what a plain per-feature loop picks.

``tree_reference`` is what the lockstep grower in :mod:`repro.ml.tree` is
checked against bit for bit (``test_tree_lockstep.py``); these tests pin
the reference itself.
"""

import numpy as np
import pytest

from tree_reference import ReferenceTree

from repro.ml.tree import DecisionTreeRegressor


def random_dataset(rng, n, d):
    """Mix of continuous, discrete, tied, and constant columns."""
    X = rng.random((n, d))
    if d > 1:
        X[:, 1] = rng.integers(0, 3, n)          # heavy ties
    if d > 2:
        X[:, 2] = 0.5                            # constant
    if d > 3:
        X[:, 3] = np.round(X[:, 3], 1)           # coarse grid
    y = X[:, 0] * 3 + rng.normal(0, 0.2, n)
    return X, y


class TestBatchThresholds:
    @pytest.mark.parametrize("seed", range(8))
    def test_batch_matches_scalar_per_column(self, seed):
        rng = np.random.default_rng(seed)
        X, y = random_dataset(rng, n=int(rng.integers(5, 80)), d=5)
        tree = ReferenceTree()
        base_sse = float(np.sum((y - y.mean()) ** 2))
        # Only non-constant columns enter the batched path in _find_split.
        nonconst = [j for j in range(X.shape[1])
                    if X[:, j].min() != X[:, j].max()]
        M = X[:, nonconst]
        thrs, gains = tree._best_thresholds_batch(M, y, base_sse)
        for out_j, j in enumerate(nonconst):
            ref = tree._best_threshold(X[:, j], y, base_sse)
            if ref is None:
                assert gains[out_j] == -np.inf
            else:
                ref_thr, ref_gain = ref
                assert thrs[out_j] == ref_thr
                assert gains[out_j] == ref_gain

    def test_all_tied_column_has_no_split(self):
        tree = ReferenceTree()
        y = np.array([1.0, 2.0, 3.0])
        M = np.array([[1.0], [1.0], [1.0]])
        _, gains = tree._best_thresholds_batch(
            M, y, float(np.sum((y - y.mean()) ** 2)))
        assert gains[0] == -np.inf


class TestWholeTreeParity:
    @pytest.mark.parametrize("splitter", ["best", "random"])
    @pytest.mark.parametrize("seed", range(4))
    def test_fit_is_deterministic(self, splitter, seed):
        rng = np.random.default_rng(seed)
        X, y = random_dataset(rng, 90, 5)
        Xq = np.random.default_rng(seed + 100).random((40, 5))
        a = DecisionTreeRegressor(splitter=splitter, max_features=0.6,
                                  rng=seed).fit(X, y)
        b = DecisionTreeRegressor(splitter=splitter, max_features=0.6,
                                  rng=seed).fit(X, y)
        np.testing.assert_array_equal(a.predict(Xq), b.predict(Xq))

    def test_best_split_equals_bruteforce_loop(self):
        """_find_split_best must pick what a plain per-feature loop picks."""
        for trial in range(20):
            X, y = random_dataset(np.random.default_rng(trial), 40, 5)
            tree = ReferenceTree()
            idx = np.arange(len(y))
            base_sse = float(np.sum((y - y.mean()) ** 2))
            k = X.shape[1]  # every feature in the batch, no extension scan
            got = tree._find_split_best(X, y, idx, k,
                                        np.random.default_rng(trial))
            # Reference: scalar search over the same permutation order with
            # the loop's strict ``>`` (first-max) tie-break.
            features = np.random.default_rng(trial).permutation(X.shape[1])
            best_gain, best = 0.0, None
            for f in features:
                col = X[idx, f]
                if col.min() == col.max():
                    continue
                res = tree._best_threshold(col, y[idx], base_sse)
                if res is not None and res[1] > best_gain:
                    best_gain, best = res[1], (int(f), float(res[0]))
            if best is None:
                assert got is None
            else:
                assert got is not None
                feat, thr, left_idx, right_idx, gain = got
                assert (feat, thr) == best
                assert gain == best_gain
                mask = X[idx, best[0]] <= best[1]
                np.testing.assert_array_equal(left_idx, idx[mask])
                np.testing.assert_array_equal(right_idx, idx[~mask])
