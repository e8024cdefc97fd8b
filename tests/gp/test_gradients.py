"""Gradient checks: analytic kernel/NLL/posterior gradients vs central
differences.

Every analytic derivative is validated against a numerical oracle: the
kernel's ∂K/∂θ in each regime of ``c·Matérn + σ²·I``, the
marginal-likelihood gradient (trace identity, with the closed-form c-
and σ²-partials) across training-set sizes and stacked starts, and the
posterior input-gradients returned by ``predict_with_gradient`` —
across random spaces and dimensions.
"""

import zlib

import numpy as np
import pytest
from scipy.optimize import minimize

from repro.gp import (GaussianProcessRegressor,
                      LowRankGaussianProcessRegressor, Matern52)
from repro.gp.kernels import scaled_distances

EPS = 1e-6
TOL = 1e-6


def central_difference_theta(kernel, X, eps=EPS):
    """Numerical ∂K/∂θ stack of the training covariance."""
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


def latent_and_length_gradient(kernel, X):
    """The kernel's latent covariance of *X* and its ∂/∂log ℓ at its own
    hyperparameters, a stack of one."""
    K, dK = kernel.latent_and_length_gradient(scaled_distances(X, X),
                                              kernel.theta[None])
    return K[0], dK[0]


def analytic_theta(kernel, X):
    """∂K/∂θ from the kernel: the latent block for log c, the kernel's
    own ∂/∂log ℓ, the noise on the diagonal for log σ²."""
    K, dK = latent_and_length_gradient(kernel, X)
    return np.stack([K, dK, kernel.noise * np.eye(len(X))])


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
    """The kernel in the regimes its terms dominate (named as in
    ``test_value_and_input_gradient``)."""
    return {
        "constant": Matern52(variance=2.5, length_scale=100.0),
        "matern52": Matern52(variance=1.0, length_scale=0.45),
        "white": Matern52(variance=1e-3, length_scale=0.3, noise=0.03),
        "sum": Matern52(variance=1.0, length_scale=0.6, noise=0.05),
        "product": Matern52(variance=1.7, length_scale=0.5),
        "default_bo": Matern52(),
        "deep": Matern52(variance=30.0, length_scale=0.08, noise=0.02),
    }


class TestKernelThetaGradients:
    @pytest.mark.parametrize("name", sorted(kernel_zoo()))
    @pytest.mark.parametrize("dim", [1, 3, 6])
    def test_matches_central_differences(self, name, dim):
        kernel = kernel_zoo()[name]
        rng = np.random.default_rng(zlib.crc32(f"{name}|{dim}".encode()))
        X = rng.random((9, dim))
        analytic = analytic_theta(kernel, X)
        numeric = central_difference_theta(kernel, X)
        np.testing.assert_allclose(analytic, numeric, atol=TOL)

    @pytest.mark.parametrize("name", sorted(kernel_zoo()))
    def test_value_matches_call(self, name):
        # The likelihood's covariance plus the noise diagonal is the
        # training covariance, bit for bit.
        kernel = kernel_zoo()[name]
        kernel.theta = kernel.theta  # the likelihood reads exp(θ)
        X = np.random.default_rng(0).random((8, 4))
        K, _ = latent_and_length_gradient(kernel, X)
        K[np.diag_indices(8)] += kernel.noise
        assert np.array_equal(K, kernel(X))

    def test_cached_d2_path_matches_direct(self):
        # The fit's cached scaled distances give the direct covariance,
        # exactly after a fit and to rounding after a rank-k extension.
        X = np.random.default_rng(3).random((10, 5))
        y = X[:, 0] - X[:, 1]
        gp = GaussianProcessRegressor(optimize=False).fit(X[:7], y[:7])
        kernel = gp.kernel
        assert np.array_equal(kernel.latent(gp._S), kernel(X[:7], X[:7]))
        gp.update(X, y)
        np.testing.assert_allclose(kernel.latent(gp._S), kernel(X, X),
                                   rtol=1e-12, atol=1e-14)

    def test_returned_matrices_do_not_alias(self):
        # The contract allows callers to mutate K (diagonal jitter).
        kernel = Matern52()
        X = np.random.default_rng(4).random((6, 3))
        K, dK = latent_and_length_gradient(kernel, X)
        snapshot = dK.copy()
        K += 123.0
        np.testing.assert_array_equal(dK, snapshot)


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
        loud = Matern52(noise=0.5).value_and_input_gradient(x, X)[1]
        quiet = Matern52(noise=1e-6).value_and_input_gradient(x, X)[1]
        np.testing.assert_array_equal(loud, quiet)
        np.testing.assert_array_equal(loud[2], np.zeros(3))


def make_gp_data(n=30, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, dim))
    y = np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2 + 0.05 * rng.standard_normal(n)
    return X, y


def dense_nll_and_grad(gp, theta):
    """The likelihood and its gradient the dense way: every partial as
    ½ tr((K⁻¹ − ααᵀ) ∂K/∂θ_j) with explicit matrices."""
    kernel = Matern52()
    kernel.theta = theta
    n = len(gp._X)
    K = kernel(gp._X) + gp.alpha * np.eye(n)
    Kinv = np.linalg.inv(K)
    a = Kinv @ gp._y
    W = Kinv - np.outer(a, a)
    nll = 0.5 * gp._y @ a + 0.5 * np.linalg.slogdet(K)[1] \
        + 0.5 * n * np.log(2.0 * np.pi)
    grads = analytic_theta(kernel, gp._X)
    return nll, np.array([0.5 * np.sum(W * G) for G in grads])


class TestNLLGradient:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_central_differences(self, seed):
        X, y = make_gp_data(seed=seed)
        gp = GaussianProcessRegressor(rng=seed, optimize=False).fit(X, y)
        theta = gp.kernel.theta.copy()
        _, grad = gp._nll_and_grad(theta)
        for i in range(len(theta)):
            tp = theta.copy()
            tp[i] += EPS
            tm = theta.copy()
            tm[i] -= EPS
            num = (gp._nll_and_grad(tp)[0]
                   - gp._nll_and_grad(tm)[0]) / (2.0 * EPS)
            assert abs(grad[i] - num) < 1e-4 * max(1.0, abs(num))

    @pytest.mark.parametrize("n", [20, 60, 100])
    def test_matches_central_differences_by_size(self, n):
        # Off the optimum, at the sizes a session fits, every partial of
        # the closed form matches the slope of the likelihood itself.
        X, y = make_gp_data(n=n, dim=6, seed=n)
        gp = GaussianProcessRegressor(optimize=False).fit(X, y)
        rng = np.random.default_rng(n)
        bounds = gp.kernel.bounds
        for theta in [gp.kernel.theta, np.array([1.2, -0.4, -2.5]),
                      rng.uniform(bounds[:, 0] / 2, bounds[:, 1] / 2)]:
            _, grad = gp._nll_and_grad(theta)
            for i in range(3):
                step = np.zeros(3)
                step[i] = EPS
                num = (gp._nll_and_grad(theta + step)[0]
                       - gp._nll_and_grad(theta - step)[0]) / (2.0 * EPS)
                assert abs(grad[i] - num) < 1e-5 * max(1.0, abs(num))

    def test_stack_with_an_unfactorizable_start(self):
        # A 3-start stack: the singular start gets the sentinel and a
        # zero gradient, and the others equal their solo evaluations.
        X, y = make_gp_data(n=40, seed=6)
        gp = GaussianProcessRegressor(optimize=False).fit(X, y)
        thetas = np.array([gp.kernel.theta, [80.0, 10.0, -40.0],
                           [0.5, -1.0, -3.0]])
        nll, grad = gp._nll_and_grad(thetas)
        assert nll.shape == (3,) and grad.shape == (3, 3)
        assert nll[1] == 1e25
        np.testing.assert_array_equal(grad[1], np.zeros(3))
        for j in (0, 2):
            solo_nll, solo_grad = gp._nll_and_grad(thetas[j])
            assert nll[j] == solo_nll
            assert np.array_equal(grad[j], solo_grad)
            step = np.zeros(3)
            for i in range(3):
                step[:] = 0.0
                step[i] = EPS
                num = (gp._nll_and_grad(thetas[j] + step)[0]
                       - gp._nll_and_grad(thetas[j] - step)[0]) / (2 * EPS)
                assert abs(grad[j, i] - num) < 1e-5 * max(1.0, abs(num))

    @pytest.mark.parametrize("n", [20, 60, 100])
    def test_closed_form_partials_match_the_dense_trace(self, n):
        # ∂/∂log c and ∂/∂log σ² come from tr W, yᵀα and αᵀα; they
        # equal the dense contractions against ∂K/∂θ they replace.
        X, y = make_gp_data(n=n, dim=6, seed=n + 1)
        gp = GaussianProcessRegressor(optimize=False).fit(X, y)
        for theta in [gp.kernel.theta, np.array([0.7, -0.6, -1.5]),
                      np.array([-2.0, 0.3, -9.0])]:
            nll, grad = gp._nll_and_grad(theta)
            dense_nll, dense_grad = dense_nll_and_grad(gp, theta)
            np.testing.assert_allclose(nll, dense_nll, rtol=1e-9)
            np.testing.assert_allclose(grad, dense_grad, rtol=1e-7,
                                       atol=1e-7 * np.abs(dense_grad).max())

    def test_value_matches_plain_nll(self):
        X, y = make_gp_data(seed=3)
        gp = GaussianProcessRegressor(rng=3, optimize=False).fit(X, y)
        theta = gp.kernel.theta + 0.1
        nll, _ = gp._nll_and_grad(theta)
        assert nll == pytest.approx(dense_nll_and_grad(gp, theta)[0],
                                    abs=1e-9)
        assert gp.log_marginal_likelihood(theta) == -nll

    def test_unfactorizable_theta_returns_sentinel(self):
        X, y = make_gp_data(seed=4)
        gp = GaussianProcessRegressor(rng=4, optimize=False).fit(X, y)
        # Huge signal variance + negligible noise: numerically singular.
        bad = np.array([80.0, 10.0, -40.0])
        nll, grad = gp._nll_and_grad(bad)
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
            minimize(lambda t: gp._nll_and_grad(t)[0], start,
                     method="L-BFGS-B", bounds=bounds,
                     options={"maxiter": 100}).fun
            for start in starts)
        # The exact gradient should match or beat the FD optimum.
        assert -ag.log_marginal_likelihood() <= fd_nll + 1e-3


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
        # Querying an exact training point of a jitter-free, nearly
        # noiseless GP drives the posterior variance onto the 1e-12 clip
        # floor, where sigma is constant — its reported gradient must be
        # zero to match.
        rng = np.random.default_rng(14)
        X = rng.random((8, 3))
        y = X[:, 0] * 2.0
        kernel = Matern52(length_scale=1.0, noise=1e-14)
        gp = GaussianProcessRegressor(kernel=kernel, alpha=0.0,
                                      optimize=False, rng=14).fit(X, y)
        _, sigma, _, dsigma = gp.predict_with_gradient(X[4])
        assert sigma == np.sqrt(1e-12) * gp._y_std
        np.testing.assert_array_equal(dsigma, np.zeros(3))

    def test_requires_fit(self):
        gp = GaussianProcessRegressor()
        with pytest.raises(RuntimeError):
            gp.predict_with_gradient(np.zeros(2))

    @pytest.mark.parametrize("kind", ["exact", "lowrank"])
    def test_block_of_points_matches_each_point(self, kind):
        # The refine's batched call: a (k, d) block gives each point's
        # moments and gradients, to rounding (one BLAS call per block
        # instead of per point), and its moments equal fast_predict's
        # for the same block bit for bit.
        X, y = make_gp_data(n=40, seed=15)
        if kind == "lowrank":
            gp = LowRankGaussianProcessRegressor(n_inducing=16,
                                                 rng=15).fit(X, y)
        else:
            gp = GaussianProcessRegressor(rng=15).fit(X, y)
        U = np.random.default_rng(15).random((3, X.shape[1]))
        U[1] = X[7]
        mu, sigma, dmu, dsigma = gp.predict_with_gradient(U)
        assert mu.shape == sigma.shape == (3,)
        assert dmu.shape == dsigma.shape == (3, X.shape[1])
        for i, u in enumerate(U):
            m, s, dm, ds = gp.predict_with_gradient(u)
            np.testing.assert_allclose(mu[i], m, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(sigma[i], s, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(dmu[i], dm, rtol=1e-9, atol=1e-10)
            np.testing.assert_allclose(dsigma[i], ds, rtol=1e-7, atol=1e-9)
        m, s = gp.fast_predict(U)
        assert mu.tobytes() == m.tobytes()
        assert sigma.tobytes() == s.tobytes()
