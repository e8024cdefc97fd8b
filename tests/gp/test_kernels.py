"""Tests for GP covariance kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gp import (ConstantKernel, Matern52, Product, Sum,
                      WhiteKernel)


def random_points(n=12, dim=3, seed=0):
    return np.random.default_rng(seed).random((n, dim))


ALL_KERNELS = [
    lambda: ConstantKernel(2.0),
    lambda: Matern52(0.7) * Matern52(1.3),
    lambda: Matern52(0.5),
    lambda: WhiteKernel(0.1),
    lambda: ConstantKernel(1.5) * Matern52(0.5) + WhiteKernel(0.01),
]


class TestKernelAlgebra:
    @pytest.mark.parametrize("make", ALL_KERNELS)
    def test_symmetric_psd(self, make):
        X = random_points()
        K = make()(X)
        np.testing.assert_allclose(K, K.T, atol=1e-12)
        eig = np.linalg.eigvalsh(K + 1e-10 * np.eye(len(X)))
        assert eig.min() > -1e-8

    @pytest.mark.parametrize("make", ALL_KERNELS)
    def test_diag_matches_full(self, make):
        X = random_points()
        k = make()
        np.testing.assert_allclose(k.diag(X), np.diag(k(X)), atol=1e-12)

    def test_sum_and_product_compose(self):
        X = random_points()
        a, b = Matern52(0.5), ConstantKernel(3.0)
        np.testing.assert_allclose((a + b)(X), a(X) + b(X))
        np.testing.assert_allclose((a * b)(X), a(X) * b(X))

    @pytest.mark.parametrize("make", ALL_KERNELS)
    def test_theta_roundtrip(self, make):
        k = make()
        theta = k.theta.copy()
        k.theta = theta + 0.3
        np.testing.assert_allclose(k.theta, theta + 0.3, atol=1e-12)
        assert k.bounds.shape == (len(theta), 2)


class TestMatern52:
    def test_unit_at_zero_distance(self):
        X = random_points(5)
        np.testing.assert_allclose(np.diag(Matern52(1.0)(X)), 1.0)

    def test_monotone_decreasing_in_distance(self):
        k = Matern52(1.0)
        x = np.zeros((1, 1))
        d = np.linspace(0, 5, 50)[:, None]
        vals = k(x, d)[0]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_lengthscale_controls_reach(self):
        x = np.zeros((1, 1))
        y = np.array([[1.0]])
        assert Matern52(2.0)(x, y)[0, 0] > Matern52(0.2)(x, y)[0, 0]


class TestWhiteKernel:
    def test_only_on_training_diagonal(self):
        X = random_points(6)
        k = WhiteKernel(0.5)
        np.testing.assert_allclose(k(X), 0.5 * np.eye(6))
        np.testing.assert_allclose(k(X, X.copy()), 0.0)

    def test_latent_diag_zero(self):
        X = random_points(4)
        np.testing.assert_allclose(WhiteKernel(0.5).latent_diag(X), 0.0)

    def test_composite_latent_diag_excludes_noise(self):
        X = random_points(4)
        k = ConstantKernel(2.0) * Matern52(1.0) + WhiteKernel(0.7)
        np.testing.assert_allclose(k.latent_diag(X), 2.0)
        np.testing.assert_allclose(k.diag(X), 2.7)


class TestValidation:
    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            Matern52(-1.0)
        with pytest.raises(ValueError):
            WhiteKernel(0.0)
        with pytest.raises(ValueError):
            ConstantKernel(-2.0)
