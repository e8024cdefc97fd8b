"""Tests for k-fold splitting and cross-validation scoring."""

import numpy as np
import pytest

from repro.ml import KFold, cross_val_score, RandomForestRegressor
from repro.ml.linear import ElasticNet


class TestKFold:
    def test_partition_covers_everything_once(self):
        kf = KFold(4, shuffle=True, rng=0)
        seen = []
        for train, test in kf.split(22):
            seen.extend(test.tolist())
            assert set(train) | set(test) == set(range(22))
            assert not set(train) & set(test)
        assert sorted(seen) == list(range(22))

    def test_fold_sizes_differ_by_at_most_one(self):
        sizes = [len(test) for _, test in KFold(5, rng=1).split(23)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 23

    def test_no_shuffle_is_consecutive(self):
        folds = list(KFold(2, shuffle=False).split(6))
        np.testing.assert_array_equal(folds[0][1], [0, 1, 2])
        np.testing.assert_array_equal(folds[1][1], [3, 4, 5])

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            list(KFold(5).split(3))

    def test_rejects_single_split(self):
        with pytest.raises(ValueError):
            KFold(1)

    def test_deterministic_given_seed(self):
        a = [t.tolist() for _, t in KFold(3, rng=5).split(10)]
        b = [t.tolist() for _, t in KFold(3, rng=5).split(10)]
        assert a == b


class TestCrossValScore:
    def test_linear_data_high_scores(self):
        rng = np.random.default_rng(2)
        X = rng.random((100, 3))
        y = X @ np.array([1.0, 2.0, -1.0]) + rng.normal(0, 0.01, 100)
        scores = cross_val_score(lambda: ElasticNet(0.0), X, y, cv=5, rng=3)
        assert scores.shape == (5,)
        assert scores.min() > 0.95

    def test_factory_gets_fresh_model_each_fold(self):
        calls = []

        class Spy(ElasticNet):
            def __init__(self):
                super().__init__(0.0)
                calls.append(self)

        rng = np.random.default_rng(4)
        X, y = rng.random((30, 2)), rng.random(30)
        cross_val_score(Spy, X, y, cv=3, rng=5)
        assert len(calls) == 3
        assert len(set(map(id, calls))) == 3
