"""Parallel-training parity: worker count must not change the forest."""

import numpy as np
import pytest

from repro.ml import ExtraTreesRegressor, RandomForestRegressor


def make_data(n=120, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 6))
    y = 3 * X[:, 0] + np.sin(5 * X[:, 1]) + rng.normal(0, 0.05, n)
    return X, y


def assert_forests_identical(a, b):
    assert len(a.trees_) == len(b.trees_)
    np.testing.assert_array_equal(a.oob_mask_, b.oob_mask_)
    Xq = np.random.default_rng(99).random((50, a._X_train.shape[1]))
    for ta, tb in zip(a.trees_, b.trees_):
        np.testing.assert_array_equal(ta.predict(Xq), tb.predict(Xq))
        for name in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(getattr(ta.nodes_, name),
                                  getattr(tb.nodes_, name)), name
        assert np.array_equal(ta.feature_importances_,
                              tb.feature_importances_)


@pytest.mark.parametrize("cls", [RandomForestRegressor, ExtraTreesRegressor])
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_parallel_fit_matches_serial(cls, backend):
    X, y = make_data()
    serial = cls(20, rng=7).fit(X, y)
    par = cls(20, n_jobs=2, parallel_backend=backend, rng=7).fit(X, y)
    assert_forests_identical(serial, par)


@pytest.mark.parametrize("cls", [RandomForestRegressor, ExtraTreesRegressor])
@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("n_jobs", [2, 3])
def test_tree_groups_match_serial_bitwise(n_jobs, backend, cls):
    """Workers get contiguous groups of trees (23 trees: uneven groups);
    every tree, its bootstrap and the forest's MDI stay bit-identical."""
    X, y = make_data(n=80, seed=6)
    serial = cls(23, max_features=0.5, rng=12).fit(X, y)
    par = cls(23, max_features=0.5, n_jobs=n_jobs, parallel_backend=backend,
              rng=12).fit(X, y)
    assert_forests_identical(serial, par)
    assert np.array_equal(serial.feature_importances_,
                          par.feature_importances_)
    for name in ("feature", "threshold", "left", "right", "value"):
        assert np.array_equal(getattr(serial.nodes_, name),
                              getattr(par.nodes_, name)), name


@pytest.mark.parametrize("cls", [RandomForestRegressor, ExtraTreesRegressor])
def test_env_var_controls_default(cls, monkeypatch):
    X, y = make_data(seed=3)
    serial = cls(10, rng=1).fit(X, y)
    monkeypatch.setenv("ROBOTUNE_JOBS", "2")
    par = cls(10, parallel_backend="thread", rng=1).fit(X, y)
    assert_forests_identical(serial, par)


def test_oob_score_unchanged_by_jobs():
    X, y = make_data(seed=5)
    s1 = RandomForestRegressor(25, rng=4).fit(X, y).oob_score()
    s2 = RandomForestRegressor(25, n_jobs=3, parallel_backend="thread",
                               rng=4).fit(X, y).oob_score()
    assert s1 == s2
