"""Tests for the GP covariance kernel, ``c·Matérn5/2 + σ²·[x = x′]``."""

import math

import numpy as np
import pytest

from repro.gp import GaussianProcessRegressor, Matern52
from repro.gp.kernels import scaled_distances


def random_points(n=12, dim=3, seed=0):
    return np.random.default_rng(seed).random((n, dim))


#: The kernel in the regimes its terms dominate: signal-only, long and
#: short length scales, noise as large as the signal, the defaults.
ALL_KERNELS = [
    lambda: Matern52(variance=2.0, length_scale=100.0, noise=1e-6),
    lambda: Matern52(variance=1.0, length_scale=0.7, noise=1e-3),
    lambda: Matern52(variance=1.0, length_scale=0.05, noise=1e-6),
    lambda: Matern52(variance=0.1, length_scale=0.5, noise=0.1),
    lambda: Matern52(),
]


class TestKernelAlgebra:
    """The training covariance's matrix properties in every regime."""

    @pytest.mark.parametrize("make", ALL_KERNELS)
    def test_symmetric_psd(self, make):
        X = random_points()
        K = make()(X)
        np.testing.assert_allclose(K, K.T, atol=1e-12)
        eig = np.linalg.eigvalsh(K + 1e-10 * np.eye(len(X)))
        assert eig.min() > -1e-8

    @pytest.mark.parametrize("make", ALL_KERNELS)
    def test_diag_matches_full(self, make):
        # The training diagonal is the signal variance plus the noise.
        X = random_points()
        k = make()
        np.testing.assert_allclose(np.diag(k(X)), k.variance + k.noise,
                                   rtol=1e-12)

    def test_sum_and_product_compose(self):
        # The one kernel is the composition it replaces: the signal
        # variance times a unit Matérn, plus the noise on the diagonal.
        X = random_points()
        unit = Matern52(variance=1.0, length_scale=0.5, noise=1e-6)
        k = Matern52(variance=3.0, length_scale=0.5, noise=0.25)
        np.testing.assert_allclose(k(X), 3.0 * unit(X, X)
                                   + 0.25 * np.eye(len(X)), rtol=1e-12)
        np.testing.assert_allclose(k(X, X), 3.0 * unit(X, X), rtol=1e-12)

    @pytest.mark.parametrize("make", ALL_KERNELS)
    def test_theta_roundtrip(self, make):
        k = make()
        theta = k.theta.copy()
        k.theta = theta + 0.3
        np.testing.assert_allclose(k.theta, theta + 0.3, atol=1e-12)
        assert k.bounds.shape == (len(theta), 2)

    def test_theta_order_bounds_and_start(self):
        k = Matern52()
        np.testing.assert_array_equal(
            k.theta, [0.0, math.log(0.5), math.log(1e-2)])
        np.testing.assert_allclose(
            np.exp(k.bounds), [[1e-4, 1e4], [1e-2, 1e2], [1e-6, 1e1]],
            rtol=1e-12)


class TestMatern52:
    def test_unit_at_zero_distance(self):
        X = random_points(5)
        k = Matern52(variance=1.0, length_scale=1.0)
        np.testing.assert_allclose(np.diag(k(X, X)), 1.0)

    def test_monotone_decreasing_in_distance(self):
        k = Matern52(length_scale=1.0)
        x = np.zeros((1, 1))
        d = np.linspace(0, 5, 50)[:, None]
        vals = k(x, d)[0]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_lengthscale_controls_reach(self):
        x = np.zeros((1, 1))
        y = np.array([[1.0]])
        assert Matern52(length_scale=2.0)(x, y)[0, 0] \
            > Matern52(length_scale=0.2)(x, y)[0, 0]

    def test_theta_stack_matches_the_kernel_at_each_theta(self):
        # The likelihood's (k, 3) stack evaluates each theta without
        # touching the kernel, bit for bit as the kernel set to that
        # theta would.
        X = random_points(7)
        S = scaled_distances(X, X)
        k = Matern52()
        thetas = np.array([[0.3, -0.2, -3.0], [-1.0, 0.5, -6.0]])
        K, dK = k.latent_and_length_gradient(S, thetas)
        assert K.shape == dK.shape == (2, 7, 7)
        np.testing.assert_array_equal(k.theta, Matern52().theta)
        for j, theta in enumerate(thetas):
            k.theta = theta
            assert np.array_equal(K[j], k.latent(S))


class TestWhiteKernel:
    def test_only_on_training_diagonal(self):
        X = random_points(6)
        k = Matern52(noise=0.5)
        K = k(X)
        np.testing.assert_allclose(K - k(X, X.copy()), 0.5 * np.eye(6),
                                   atol=1e-12)

    def test_latent_diag_zero(self):
        # The noise adds nothing to the latent prior variance: far from
        # the data the posterior std tends to sqrt(c), not sqrt(c + σ²).
        X = random_points(4, dim=2)
        y = np.array([0.0, 1.0, 0.5, 2.0])
        gp = GaussianProcessRegressor(
            Matern52(variance=2.0, noise=0.7), optimize=False,
            normalize_y=False).fit(X, y)
        _, std = gp.predict(np.full((1, 2), 50.0), return_std=True)
        np.testing.assert_allclose(std[0], math.sqrt(2.0), rtol=1e-12)

    def test_composite_latent_diag_excludes_noise(self):
        X = random_points(4)
        k = Matern52(variance=2.0, length_scale=1.0, noise=0.7)
        np.testing.assert_allclose(np.diag(k(X, X.copy())), 2.0)
        np.testing.assert_allclose(np.diag(k(X)), 2.7)

    def test_cross_covariance_has_no_noise_term(self):
        # Any noise level gives the same cross covariance bits, and the
        # training covariance differs from it on the diagonal only.
        X = random_points(9)
        Y = np.vstack([X[:3], random_points(4, seed=1)])
        loud = Matern52(variance=1.3, length_scale=0.4, noise=5.0)
        quiet = Matern52(variance=1.3, length_scale=0.4, noise=1e-6)
        assert np.array_equal(loud(X, Y), quiet(X, Y))
        assert np.array_equal(loud(X, X), quiet(X, X))
        off = ~np.eye(9, dtype=bool)
        assert np.array_equal(loud(X)[off], loud(X, X)[off])


class TestValidation:
    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            Matern52(length_scale=-1.0)
        with pytest.raises(ValueError):
            Matern52(noise=0.0)
        with pytest.raises(ValueError):
            Matern52(variance=-2.0)
        with pytest.raises(ValueError):
            Matern52(bounds=((1e-4, 1e4), (1e-2, 1e2)))
        with pytest.raises(TypeError):
            Matern52(0.5)
