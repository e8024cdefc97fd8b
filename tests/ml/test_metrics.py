"""Tests for regression/retrieval metrics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ml import r2_score, recall_score


class TestR2:
    def test_perfect_fit(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, y) == 1.0

    def test_mean_predictor_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, np.full(3, 2.0)) == pytest.approx(0.0)

    def test_bad_model_negative(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, np.array([3.0, 2.0, 1.0])) < 0.0

    def test_constant_target(self):
        y = np.full(4, 5.0)
        assert r2_score(y, y) == 1.0
        assert r2_score(y, y + 1.0) == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            r2_score(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            r2_score(np.zeros(0), np.zeros(0))

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=30))
    def test_never_above_one(self, ys):
        y = np.asarray(ys)
        rng = np.random.default_rng(0)
        pred = y + rng.normal(0, 1, len(y))
        assert r2_score(y, pred) <= 1.0 + 1e-12


class TestRecall:
    def test_full_recall(self):
        assert recall_score({"a", "b"}, {"a", "b", "c"}) == 1.0

    def test_partial_recall(self):
        assert recall_score({"a", "b", "c", "d"}, {"a", "b"}) == 0.5

    def test_zero_recall(self):
        assert recall_score({"a"}, {"b"}) == 0.0

    def test_empty_truth_is_one(self):
        assert recall_score(set(), {"x"}) == 1.0

    def test_accepts_lists(self):
        assert recall_score(["a", "a", "b"], ["b", "a"]) == 1.0
