"""Tests for Gaussian-process regression."""

import numpy as np
import pytest

from repro.gp import GaussianProcessRegressor, Matern52


def smooth_data(n=40, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 2))
    y = np.sin(4 * X[:, 0]) + 0.5 * X[:, 1] + rng.normal(0, noise, n)
    return X, y


class TestInterpolation:
    def test_noise_free_interpolates_training_points(self):
        X, y = smooth_data()
        kernel = Matern52(noise=1e-6,
                          bounds=((1e-4, 1e4), (1e-2, 1e2), (1e-9, 1e-4)))
        gp = GaussianProcessRegressor(kernel, rng=0).fit(X, y)
        np.testing.assert_allclose(gp.predict(X), y, atol=1e-2)

    def test_uncertainty_small_at_data_large_far_away(self):
        X, y = smooth_data()
        gp = GaussianProcessRegressor(rng=0).fit(X, y)
        _, s_at = gp.predict(X[:5], return_std=True)
        _, s_far = gp.predict(np.full((1, 2), 5.0), return_std=True)
        assert s_far[0] > s_at.max()

    def test_generalizes_on_smooth_function(self):
        X, y = smooth_data(n=60, seed=1)
        Xq, yq = smooth_data(n=30, seed=2)
        gp = GaussianProcessRegressor(rng=0).fit(X, y)
        rmse = np.sqrt(np.mean((gp.predict(Xq) - yq) ** 2))
        assert rmse < 0.15


class TestNoise:
    def test_white_kernel_absorbs_noise(self):
        X, y = smooth_data(n=80, seed=3, noise=0.2)
        gp = GaussianProcessRegressor(rng=0).fit(X, y)
        # Learned noise level should be meaningful (not collapsed to 0).
        noise = gp.kernel.noise
        assert noise > 1e-4

    def test_predicts_latent_not_noisy(self):
        X, y = smooth_data(n=120, seed=4, noise=0.3)
        Xq, yq = smooth_data(n=50, seed=5, noise=0.0)
        gp = GaussianProcessRegressor(rng=0).fit(X, y)
        rmse = np.sqrt(np.mean((gp.predict(Xq) - yq) ** 2))
        assert rmse < 0.3


class TestMarginalLikelihood:
    def test_optimization_improves_mll(self):
        X, y = smooth_data(n=50, seed=6)
        fixed = GaussianProcessRegressor(optimize=False, rng=0).fit(X, y)
        tuned = GaussianProcessRegressor(rng=0).fit(X, y)
        assert tuned.log_marginal_likelihood() >= \
            fixed.log_marginal_likelihood() - 1e-6

    def test_lml_evaluates_arbitrary_theta_without_side_effect(self):
        X, y = smooth_data(n=30)
        gp = GaussianProcessRegressor(rng=0).fit(X, y)
        theta = gp.kernel.theta.copy()
        gp.log_marginal_likelihood(theta + 1.0)
        np.testing.assert_allclose(gp.kernel.theta, theta)


class TestValidationAndEdges:
    def test_rejects_bad_shapes(self):
        gp = GaussianProcessRegressor()
        with pytest.raises(ValueError):
            gp.fit(np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError):
            gp.fit(np.zeros((4, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            gp.fit(np.zeros((0, 2)), np.zeros(0))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            GaussianProcessRegressor().predict(np.zeros((1, 2)))

    def test_predict_wrong_width(self):
        X, y = smooth_data(n=10)
        gp = GaussianProcessRegressor(optimize=False, rng=0).fit(X, y)
        with pytest.raises(ValueError):
            gp.predict(np.zeros((2, 5)))

    def test_single_point_fit(self):
        gp = GaussianProcessRegressor(rng=0).fit(np.array([[0.5, 0.5]]),
                                                 np.array([3.0]))
        mu = gp.predict(np.array([[0.5, 0.5]]))
        assert np.isfinite(mu[0])

    def test_constant_targets(self):
        X = np.random.default_rng(7).random((10, 2))
        y = np.full(10, 42.0)
        gp = GaussianProcessRegressor(rng=0).fit(X, y)
        np.testing.assert_allclose(gp.predict(X), 42.0, atol=1e-6)

    def test_duplicate_points_dont_crash(self):
        X = np.tile(np.array([[0.3, 0.3]]), (8, 1))
        y = np.random.default_rng(8).normal(0, 0.1, 8)
        gp = GaussianProcessRegressor(rng=0).fit(X, y)
        assert np.isfinite(gp.predict(X)).all()

    def test_kernel_template_not_mutated(self):
        X, y = smooth_data(n=20)
        template = Matern52()
        theta_before = template.theta.copy()
        GaussianProcessRegressor(template, rng=0).fit(X, y)
        np.testing.assert_allclose(template.theta, theta_before)
