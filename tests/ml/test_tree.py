"""Tests for the CART regression tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import DecisionTreeRegressor
from repro.ml.tree import resolve_max_features


class TestFitBasics:
    def test_perfectly_separable_step(self):
        X = np.linspace(0, 1, 40)[:, None]
        y = (X[:, 0] > 0.5).astype(float) * 10.0
        tree = DecisionTreeRegressor(rng=0).fit(X, y)
        pred = tree.predict(X)
        np.testing.assert_allclose(pred, y)

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(0).random((20, 3))
        y = np.full(20, 7.0)
        tree = DecisionTreeRegressor(rng=0).fit(X, y)
        assert tree.node_count == 1
        np.testing.assert_allclose(tree.predict(X), 7.0)

    def test_constant_features_single_leaf(self):
        X = np.ones((15, 4))
        y = np.arange(15.0)
        tree = DecisionTreeRegressor(rng=0).fit(X, y)
        assert tree.node_count == 1
        np.testing.assert_allclose(tree.predict(X), y.mean())

    def test_max_depth_limits_depth(self):
        rng = np.random.default_rng(1)
        X = rng.random((200, 2))
        y = rng.random(200)
        tree = DecisionTreeRegressor(max_depth=3, rng=0).fit(X, y)
        assert 1 < tree.node_count <= 2 ** (3 + 1) - 1

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(2)
        X = rng.random((50, 1))
        y = rng.random(50)
        tree = DecisionTreeRegressor(min_samples_leaf=10, rng=0).fit(X, y)
        # Count samples reaching each leaf.
        leaves = {}
        pred_nodes = tree.predict(X)  # values; instead walk via internals
        # Use node assignment by predicting and grouping on leaf value id.
        # Simpler check: no leaf has fewer than 10 training rows.
        node = np.zeros(len(X), dtype=int)
        active = tree.nodes_.feature[node] != -1
        while active.any():
            rows = np.nonzero(active)[0]
            cur = node[rows]
            go_left = X[rows, tree.nodes_.feature[cur]] <= tree.nodes_.threshold[cur]
            node[rows] = np.where(go_left, tree.nodes_.left[cur], tree.nodes_.right[cur])
            active[rows] = tree.nodes_.feature[node[rows]] != -1
        _, counts = np.unique(node, return_counts=True)
        assert counts.min() >= 10

    def test_single_sample(self):
        tree = DecisionTreeRegressor(rng=0).fit(np.array([[1.0]]),
                                                np.array([5.0]))
        assert tree.predict(np.array([[99.0]]))[0] == 5.0


class TestValidation:
    def test_rejects_1d_X(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros(5), np.zeros(5))

    def test_rejects_mismatched_y(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros((5, 2)), np.zeros(4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.zeros((1, 2)))

    def test_predict_wrong_width(self):
        tree = DecisionTreeRegressor(rng=0).fit(np.zeros((5, 2)),
                                                np.arange(5.0))
        with pytest.raises(ValueError):
            tree.predict(np.zeros((3, 5)))

    def test_rejects_bad_splitter(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(splitter="weird")

    def test_rejects_bad_min_samples(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)


class TestRandomSplitter:
    def test_random_splitter_fits_signal(self):
        rng = np.random.default_rng(3)
        X = rng.random((300, 3))
        y = 5.0 * (X[:, 0] > 0.5) + rng.normal(0, 0.01, 300)
        tree = DecisionTreeRegressor(splitter="random", rng=4).fit(X, y)
        r2 = 1 - np.sum((tree.predict(X) - y) ** 2) / np.sum((y - y.mean()) ** 2)
        assert r2 > 0.8


class TestFeatureImportances:
    def test_importances_sum_to_one(self):
        rng = np.random.default_rng(5)
        X = rng.random((150, 4))
        y = 3 * X[:, 1] + rng.normal(0, 0.05, 150)
        tree = DecisionTreeRegressor(rng=6).fit(X, y)
        assert tree.feature_importances_.sum() == pytest.approx(1.0)

    def test_informative_feature_dominates(self):
        rng = np.random.default_rng(7)
        X = rng.random((200, 4))
        y = 10 * X[:, 2] + rng.normal(0, 0.05, 200)
        tree = DecisionTreeRegressor(rng=8).fit(X, y)
        assert np.argmax(tree.feature_importances_) == 2


class TestGeneralization:
    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_interpolates_smooth_function(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.random((300, 2))
        y = np.sin(3 * X[:, 0]) + X[:, 1]
        tree = DecisionTreeRegressor(min_samples_leaf=5, rng=seed).fit(X, y)
        Xq = rng.random((100, 2))
        yq = np.sin(3 * Xq[:, 0]) + Xq[:, 1]
        mse = np.mean((tree.predict(Xq) - yq) ** 2)
        assert mse < 0.05


class TestResolveMaxFeatures:
    def test_none_gives_all(self):
        assert resolve_max_features(None, 44) == 44

    def test_sqrt(self):
        assert resolve_max_features("sqrt", 44) == 6

    def test_log2(self):
        assert resolve_max_features("log2", 44) == 5

    def test_third(self):
        assert resolve_max_features("third", 44) == 14

    def test_fraction(self):
        assert resolve_max_features(0.5, 44) == 22

    def test_int_clamped(self):
        assert resolve_max_features(100, 44) == 44
        assert resolve_max_features(0, 44) == 1

    def test_rejects_unknown_string(self):
        with pytest.raises(ValueError):
            resolve_max_features("auto", 10)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            resolve_max_features(1.5, 10)
