"""Tests for coordinate-descent Lasso / ElasticNet."""

import numpy as np
import pytest

from repro.ml import ElasticNet, Lasso


def linear_data(n=200, p=8, seed=0, noise=0.05):
    rng = np.random.default_rng(seed)
    X = rng.random((n, p))
    w = np.zeros(p)
    w[:3] = [3.0, -2.0, 1.5]
    y = X @ w + 0.7 + rng.normal(0, noise, n)
    return X, y, w


class TestLinearRegression:
    """``alpha = 0``: plain least squares on the coordinate-descent path."""

    def test_recovers_coefficients(self):
        X, y, w = linear_data()
        model = ElasticNet(0.0).fit(X, y)
        np.testing.assert_allclose(model.coef_, w, atol=0.1)
        assert model.intercept_ == pytest.approx(0.7, abs=0.15)

    def test_r2_high(self):
        X, y, _ = linear_data()
        assert ElasticNet(0.0).fit(X, y).score(X, y) > 0.95


class TestLasso:
    def test_sparsity_kills_irrelevant_coefficients(self):
        X, y, _ = linear_data(noise=0.01)
        model = Lasso(alpha=0.05).fit(X, y)
        assert np.all(np.abs(model.coef_[3:]) < 0.05)
        assert np.abs(model.coef_[0]) > 1.0

    def test_huge_alpha_zeroes_everything(self):
        X, y, _ = linear_data()
        model = Lasso(alpha=100.0).fit(X, y)
        np.testing.assert_allclose(model.coef_, 0.0, atol=1e-9)
        assert model.intercept_ == pytest.approx(y.mean())

    def test_alpha_zero_matches_least_squares(self):
        X, y, _ = linear_data(n=100)
        l0 = Lasso(alpha=0.0, max_iter=3000, tol=1e-10).fit(X, y)
        A = np.column_stack([X, np.ones(len(X))])
        ls = np.linalg.lstsq(A, y, rcond=None)[0][:-1]
        np.testing.assert_allclose(l0.coef_, ls, atol=1e-3)


class TestElasticNet:
    def test_ridge_limit_shrinks_but_keeps_all(self):
        X, y, _ = linear_data(noise=0.01)
        model = ElasticNet(alpha=0.5, l1_ratio=0.0).fit(X, y)
        assert np.abs(model.coef_[0]) > 0.3
        lasso_like = ElasticNet(alpha=0.5, l1_ratio=1.0).fit(X, y)
        assert np.count_nonzero(np.abs(model.coef_) > 1e-8) >= \
            np.count_nonzero(np.abs(lasso_like.coef_) > 1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            ElasticNet(alpha=-1.0)
        with pytest.raises(ValueError):
            ElasticNet(1.0, l1_ratio=1.5)
        with pytest.raises(ValueError):
            ElasticNet().fit(np.zeros(5), np.zeros(5))
        with pytest.raises(RuntimeError):
            ElasticNet().predict(np.zeros((2, 2)))

    def test_constant_feature_handled(self):
        X, y, _ = linear_data(n=80)
        X[:, 4] = 1.0
        model = ElasticNet(0.01).fit(X, y)
        assert np.isfinite(model.coef_).all()

    def test_predict_shape_check(self):
        X, y, _ = linear_data(n=50)
        model = ElasticNet(0.01).fit(X, y)
        with pytest.raises(ValueError):
            model.predict(np.zeros((3, 2)))

    def test_converges_and_records_iterations(self):
        X, y, _ = linear_data()
        model = ElasticNet(0.01).fit(X, y)
        assert 1 <= model.n_iter_ <= model.max_iter
