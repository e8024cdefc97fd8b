"""Gradient checks: analytic kernel/NLL/posterior gradients vs central
differences.

Every analytic derivative shipped by the gradient tentpole is validated
against a numerical oracle to 1e-6: ∂K/∂θ for each kernel and for
sum/product compositions, the marginal-likelihood gradient (trace
identity), and the posterior input-gradients returned by
``predict_with_gradient`` — across random spaces and dimensions.
"""

import copy
import zlib

import numpy as np
import pytest
from scipy.optimize import minimize

from repro.gp import GaussianProcessRegressor, LowRankGaussianProcessRegressor
from repro.gp.gpr import default_bo_kernel
from repro.gp.kernels import (ConstantKernel, Kernel, Matern52, RBF, Sum,
                              WhiteKernel)

EPS = 1e-6
TOL = 1e-6


def central_difference_theta(kernel, X, eps=EPS):
    """Numerical ∂K/∂θ stack for any kernel."""
    theta0 = kernel.theta.copy()
    grads = []
    for i in range(len(theta0)):
        tp = theta0.copy()
        tp[i] += eps
        kernel.theta = tp
        Kp = kernel(X)
        tm = theta0.copy()
        tm[i] -= eps
        kernel.theta = tm
        Km = kernel(X)
        grads.append((Kp - Km) / (2.0 * eps))
    kernel.theta = theta0
    return np.stack(grads)


def central_difference_input(kernel, x, X, eps=EPS):
    """Numerical ∂k(x, X)/∂x Jacobian for any kernel."""
    num = np.zeros((X.shape[0], len(x)))
    for j in range(len(x)):
        xp = x.copy()
        xp[j] += eps
        xm = x.copy()
        xm[j] -= eps
        num[:, j] = (kernel(xp[None], X)[0] - kernel(xm[None], X)[0]) \
            / (2.0 * eps)
    return num


def kernel_zoo():
    return {
        "constant": ConstantKernel(2.5),
        "rbf": RBF(0.7),
        "matern52": Matern52(0.45),
        "white": WhiteKernel(0.03),
        "sum": Matern52(0.6) + WhiteKernel(0.05),
        "product": ConstantKernel(1.7) * RBF(0.5),
        "default_bo": default_bo_kernel(),
        "deep": (ConstantKernel(1.3) * Matern52(0.4)
                 + ConstantKernel(0.6) * RBF(0.9) + WhiteKernel(0.02)),
    }


class TestKernelThetaGradients:
    @pytest.mark.parametrize("name", sorted(kernel_zoo()))
    @pytest.mark.parametrize("dim", [1, 3, 6])
    def test_matches_central_differences(self, name, dim):
        kernel = kernel_zoo()[name]
        rng = np.random.default_rng(zlib.crc32(f"{name}|{dim}".encode()))
        X = rng.random((9, dim))
        analytic = kernel.theta_gradient(X)
        numeric = central_difference_theta(kernel, X)
        np.testing.assert_allclose(analytic, numeric, atol=TOL)

    @pytest.mark.parametrize("name", sorted(kernel_zoo()))
    def test_value_matches_call(self, name):
        kernel = kernel_zoo()[name]
        X = np.random.default_rng(0).random((8, 4))
        K, grads = kernel.value_and_theta_gradient(X)
        np.testing.assert_allclose(K, kernel(X), atol=1e-12)
        assert len(grads) == len(kernel.theta)

    def test_cached_d2_path_matches_direct(self):
        from repro.gp.kernels import _cdist_sq
        kernel = default_bo_kernel()
        X = np.random.default_rng(3).random((10, 5))
        d2 = _cdist_sq(X, X)
        K1, g1 = kernel.value_and_theta_gradient(X)
        K2, g2 = kernel.value_and_theta_gradient(X, d2=d2)
        np.testing.assert_allclose(K1, K2, atol=1e-12)
        for a, b in zip(g1, g2):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_returned_matrices_do_not_alias(self):
        # The contract allows callers to mutate K (diagonal jitter).
        kernel = default_bo_kernel()
        X = np.random.default_rng(4).random((6, 3))
        K, grads = kernel.value_and_theta_gradient(X)
        snapshot = [g.copy() for g in grads]
        K += 123.0
        for g, s in zip(grads, snapshot):
            np.testing.assert_array_equal(g, s)

    def test_base_class_raises(self):
        # Every gradient hook is abstract: a kernel missing one fails at
        # construction instead of at its first hyperparameter fit.
        class Bare(Kernel):
            def __call__(self, X, Y=None):
                return np.zeros((len(X), len(X if Y is None else Y)))

            def diag(self, X):
                return np.zeros(len(X))

            @property
            def theta(self):
                return np.array([])

            @theta.setter
            def theta(self, value):
                pass

            @property
            def bounds(self):
                return np.empty((0, 2))

        with pytest.raises(TypeError, match="abstract") as exc:
            Bare()
        for hook in ("value_and_theta_gradient",
                     "cross_value_and_theta_gradient", "diag_theta_gradient",
                     "latent_diag_theta_gradient",
                     "value_and_input_gradient"):
            assert hook in str(exc.value)


class TestKernelInputGradients:
    @pytest.mark.parametrize("name", sorted(kernel_zoo()))
    @pytest.mark.parametrize("dim", [1, 4])
    def test_matches_central_differences(self, name, dim):
        kernel = kernel_zoo()[name]
        rng = np.random.default_rng(zlib.crc32(f"{name}|{dim}|in".encode()))
        X = rng.random((11, dim))
        x = rng.random(dim)
        _, analytic = kernel.value_and_input_gradient(x, X)
        numeric = central_difference_input(kernel, x, X)
        assert analytic.shape == (11, dim)
        np.testing.assert_allclose(analytic, numeric, atol=TOL)

    def test_white_noise_contributes_zero(self):
        X = np.random.default_rng(1).random((5, 3))
        x = X[2].copy()  # even exactly on a training point
        np.testing.assert_array_equal(
            WhiteKernel(0.5).value_and_input_gradient(x, X)[1],
            np.zeros((5, 3)))


def make_gp_data(n=30, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, dim))
    y = np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2 + 0.05 * rng.standard_normal(n)
    return X, y


class TestNLLGradient:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_central_differences(self, seed):
        X, y = make_gp_data(seed=seed)
        gp = GaussianProcessRegressor(rng=seed, optimize=False).fit(X, y)
        kernel = copy.deepcopy(gp.kernel)
        theta = kernel.theta.copy()
        _, grad = gp._nll_and_grad(theta, kernel)
        for i in range(len(theta)):
            tp = theta.copy()
            tp[i] += EPS
            tm = theta.copy()
            tm[i] -= EPS
            num = (gp._nll(tp, copy.deepcopy(gp.kernel))
                   - gp._nll(tm, copy.deepcopy(gp.kernel))) / (2.0 * EPS)
            assert abs(grad[i] - num) < 1e-4 * max(1.0, abs(num))

    def test_value_matches_plain_nll(self):
        X, y = make_gp_data(seed=3)
        gp = GaussianProcessRegressor(rng=3, optimize=False).fit(X, y)
        kernel = copy.deepcopy(gp.kernel)
        theta = kernel.theta + 0.1
        nll, _ = gp._nll_and_grad(theta, kernel)
        assert nll == pytest.approx(gp._nll(theta, copy.deepcopy(gp.kernel)),
                                    abs=1e-9)

    def test_unfactorizable_theta_returns_sentinel(self):
        X, y = make_gp_data(seed=4)
        gp = GaussianProcessRegressor(rng=4, optimize=False).fit(X, y)
        kernel = copy.deepcopy(gp.kernel)
        # Huge signal variance + negligible noise: numerically singular.
        bad = np.array([80.0, 10.0, -40.0])
        nll, grad = gp._nll_and_grad(bad, kernel)
        assert nll == 1e25
        np.testing.assert_array_equal(grad, np.zeros(3))


class TestAnalyticFit:
    def test_reaches_finite_difference_likelihood(self):
        X, y = make_gp_data(n=40, seed=5)
        ag = GaussianProcessRegressor(rng=5).fit(X, y)
        # The finite-difference optimum from the same three starts the
        # regressor uses (incumbent theta + two seeded uniform draws).
        gp = GaussianProcessRegressor(rng=5, optimize=False).fit(X, y)
        bounds = gp.kernel.bounds
        starts = [gp.kernel.theta]
        rng = np.random.default_rng(5)
        starts += [rng.uniform(bounds[:, 0], bounds[:, 1]) for _ in range(2)]
        fd_nll = min(
            minimize(gp._nll, start, args=(copy.deepcopy(gp.kernel),),
                     method="L-BFGS-B", bounds=bounds,
                     options={"maxiter": 100}).fun
            for start in starts)
        # The exact gradient should match or beat the FD optimum.
        assert -ag.log_marginal_likelihood() <= fd_nll + 1e-3

    @pytest.mark.parametrize("lowrank", [False, True])
    def test_multi_start_parity_across_worker_counts(self, lowrank):
        # One multi-start optimizer serves both regressors.
        X, y = make_gp_data(n=25, seed=7)
        thetas = []
        for n_jobs in (1, 2, 4):
            if lowrank:
                gp = LowRankGaussianProcessRegressor(
                    rng=7, n_jobs=n_jobs, n_restarts=3, n_inducing=10)
            else:
                gp = GaussianProcessRegressor(rng=7, n_jobs=n_jobs,
                                              n_restarts=3)
            thetas.append(gp.fit(X, y).kernel.theta.copy())
        np.testing.assert_array_equal(thetas[0], thetas[1])
        np.testing.assert_array_equal(thetas[0], thetas[2])


class TestPosteriorGradients:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("extended", [False, True])
    def test_matches_central_differences(self, seed, extended):
        # extended: the last five rows arrive through a rank-k update, the
        # factor every off-schedule refit of the BO engine produces.
        X, y = make_gp_data(seed=10 + seed)
        if extended:
            gp = GaussianProcessRegressor(rng=seed).fit(X[:-5], y[:-5])
            gp.update(X, y)
        else:
            gp = GaussianProcessRegressor(rng=seed).fit(X, y)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            x = rng.random(X.shape[1])
            mu, sigma, dmu, dsigma = gp.predict_with_gradient(x)
            for j in range(len(x)):
                xp = x.copy()
                xp[j] += EPS
                xm = x.copy()
                xm[j] -= EPS
                mp, sp = gp.predict(xp[None], return_std=True)
                mm, sm = gp.predict(xm[None], return_std=True)
                assert abs((mp[0] - mm[0]) / (2 * EPS) - dmu[j]) < TOL * 10
                assert abs((sp[0] - sm[0]) / (2 * EPS) - dsigma[j]) < TOL * 10

    def test_value_parity_with_fast_predict(self):
        X, y = make_gp_data(seed=13)
        gp = GaussianProcessRegressor(rng=13).fit(X, y)
        x = np.random.default_rng(13).random(X.shape[1])
        mu, sigma, _, _ = gp.predict_with_gradient(x)
        m, s = gp.fast_predict(x[None])
        assert mu == m[0]
        assert sigma == s[0]

    def test_clipped_variance_zeroes_sigma_gradient(self):
        # Querying an exact training point of a jitter-free noiseless GP
        # drives the posterior variance onto the 1e-12 clip floor, where
        # sigma is constant — its reported gradient must be zero to match.
        rng = np.random.default_rng(14)
        X = rng.random((8, 3))
        y = X[:, 0] * 2.0
        gp = GaussianProcessRegressor(kernel=Matern52(1.0), alpha=0.0,
                                      optimize=False, rng=14).fit(X, y)
        _, sigma, _, dsigma = gp.predict_with_gradient(X[4])
        assert sigma == np.sqrt(1e-12) * gp._y_std
        np.testing.assert_array_equal(dsigma, np.zeros(3))

    def test_requires_fit(self):
        gp = GaussianProcessRegressor()
        with pytest.raises(RuntimeError):
            gp.predict_with_gradient(np.zeros(2))
