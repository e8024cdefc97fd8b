"""Low-rank (Nyström/SoR) GP: exactness, convergence, and update laws.

The three Hypothesis properties are the subsystem's contract:

1. With every training point inducing (m = n), the low-rank posterior IS
   the exact GP posterior.
2. Predictions approach the exact GP's as the inducing budget grows.
3. ``update()`` is indistinguishable from refitting from scratch on the
   concatenated data.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gp import (GaussianProcessRegressor,
                      LowRankGaussianProcessRegressor, Matern52,
                      select_inducing)


def _data(seed: int, n: int, dim: int = 3):
    rng = np.random.default_rng(seed)
    X = rng.random((n, dim))
    y = np.sin(3.0 * X[:, 0]) + 0.5 * X[:, 1] ** 2 \
        + 0.1 * rng.standard_normal(n)
    return X, y


def _kernel():
    return Matern52(variance=1.0, length_scale=0.7, noise=0.05)


def _dense_sor_nll(gp, theta):
    """The SoR likelihood the dense way: ``Qσ = KnmKmm⁻¹Kmn + ΛI``
    formed explicitly, then a log-determinant and a solve."""
    kernel = Matern52()
    kernel.theta = theta
    Z, X, y = gp._Z, gp._X, gp._y
    jitter = gp.alpha if gp.alpha > 0 else 1e-10
    Kmm = kernel(Z, Z) + jitter * np.eye(len(Z))
    Knm = kernel(X, Z)
    lam = max(kernel.noise + gp.alpha, 1e-12)
    Q = Knm @ np.linalg.solve(Kmm, Knm.T) + lam * np.eye(len(X))
    return 0.5 * (y @ np.linalg.solve(Q, y) + np.linalg.slogdet(Q)[1]
                  + len(X) * np.log(2.0 * np.pi))


class TestExactnessAtFullRank:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 30))
    def test_m_equals_n_reproduces_exact_gp(self, seed, n):
        X, y = _data(seed, n)
        exact = GaussianProcessRegressor(_kernel(), optimize=False).fit(X, y)
        low = LowRankGaussianProcessRegressor(
            _kernel(), n_inducing=n, optimize=False).fit(X, y)
        Q = np.random.default_rng(seed + 1).random((40, X.shape[1]))
        mu_e, sd_e = exact.predict(Q, return_std=True)
        mu_l, sd_l = low.predict(Q, return_std=True)
        np.testing.assert_allclose(mu_l, mu_e, atol=1e-6, rtol=1e-6)
        np.testing.assert_allclose(sd_l, sd_e, atol=1e-5, rtol=1e-4)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_full_rank_nll_matches_exact(self, seed):
        X, y = _data(seed, 20)
        exact = GaussianProcessRegressor(_kernel(), optimize=False).fit(X, y)
        low = LowRankGaussianProcessRegressor(
            _kernel(), n_inducing=20, optimize=False).fit(X, y)
        theta = low.kernel.theta
        np.testing.assert_allclose(low.log_marginal_likelihood(theta),
                                   exact.log_marginal_likelihood(theta),
                                   atol=1e-6, rtol=1e-8)


class TestConvergenceInInducingBudget:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_error_vs_exact_shrinks_as_m_grows(self, seed):
        X, y = _data(seed, 60, dim=2)
        Q = np.random.default_rng(seed + 1).random((80, 2))
        mu_exact = GaussianProcessRegressor(
            _kernel(), optimize=False).fit(X, y).predict(Q)

        def rmse(m: int) -> float:
            gp = LowRankGaussianProcessRegressor(
                _kernel(), n_inducing=m, optimize=False).fit(X, y)
            return float(np.sqrt(np.mean((gp.predict(Q) - mu_exact) ** 2)))

        coarse, mid, full = rmse(5), rmse(30), rmse(60)
        # Monotone up to small numerical slack; exact at full rank.
        assert full <= 1e-6
        assert mid <= coarse + 1e-9
        assert full <= mid + 1e-9


class TestUpdateEqualsRefit:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n0=st.integers(5, 25), n1=st.integers(1, 10))
    def test_update_equals_fit_from_scratch(self, seed, n0, n1):
        X, y = _data(seed, n0 + n1)
        inc = LowRankGaussianProcessRegressor(
            _kernel(), n_inducing=12, optimize=False)
        inc.fit(X[:n0], y[:n0])
        inc.update(X, y)
        scratch = LowRankGaussianProcessRegressor(
            _kernel(), n_inducing=12, optimize=False).fit(X, y)
        Q = np.random.default_rng(seed + 1).random((30, X.shape[1]))
        mu_i, sd_i = inc.predict(Q, return_std=True)
        mu_s, sd_s = scratch.predict(Q, return_std=True)
        np.testing.assert_array_equal(mu_i, mu_s)
        np.testing.assert_array_equal(sd_i, sd_s)

    def test_update_preserves_optimize_flag(self):
        X, y = _data(0, 12)
        gp = LowRankGaussianProcessRegressor(_kernel(), n_inducing=6,
                                             optimize=True, n_restarts=0)
        gp.fit(X, y)
        gp.update(X, y)
        assert gp.optimize is True


class TestInducingSelection:
    def test_deterministic_and_unique(self):
        X, _ = _data(3, 40)
        k = _kernel()
        a = select_inducing(k, X, 10)
        b = select_inducing(k, X, 10)
        np.testing.assert_array_equal(a, b)
        assert len(set(a.tolist())) == len(a)

    def test_duplicate_rows_not_selected_twice(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.random((5, 2))] * 4)  # every point 4x
        idx = select_inducing(_kernel(), X, 12)
        # Conditional variance of an already-covered duplicate is ~0, so
        # selection stops at the 5 distinct rows.
        assert len(idx) == 5
        assert len({tuple(X[i]) for i in idx}) == len(idx)

    def test_budget_clamped_to_n(self):
        X, _ = _data(1, 8)
        assert len(select_inducing(_kernel(), X, 50)) <= 8


class TestApiParity:
    """The low-rank GP honours the exact GP's interface contract."""

    def test_fast_predict_matches_predict(self):
        X, y = _data(5, 30)
        gp = LowRankGaussianProcessRegressor(
            _kernel(), n_inducing=10, optimize=False).fit(X, y)
        Q = np.random.default_rng(6).random((20, 3))
        mu, sd = gp.predict(Q, return_std=True)
        mu_f, sd_f = gp.fast_predict(Q)
        np.testing.assert_allclose(mu_f, mu)
        np.testing.assert_allclose(sd_f, sd)

    def test_predict_with_gradient_matches_fd(self):
        X, y = _data(7, 30)
        gp = LowRankGaussianProcessRegressor(
            _kernel(), n_inducing=12, optimize=False).fit(X, y)
        x = np.array([0.4, 0.5, 0.6])
        mu, sd, dmu, dsd = gp.predict_with_gradient(x)
        eps = 1e-6
        for j in range(3):
            xp, xm = x.copy(), x.copy()
            xp[j] += eps
            xm[j] -= eps
            mp, sp = gp.predict(xp[None], return_std=True)
            mm, sm = gp.predict(xm[None], return_std=True)
            assert dmu[j] == pytest.approx((mp[0] - mm[0]) / (2 * eps),
                                           rel=1e-4, abs=1e-6)
            assert dsd[j] == pytest.approx((sp[0] - sm[0]) / (2 * eps),
                                           rel=1e-4, abs=1e-6)

    def test_train_views_and_inducing_indices(self):
        X, y = _data(8, 25)
        gp = LowRankGaussianProcessRegressor(
            _kernel(), n_inducing=9, optimize=False).fit(X, y)
        np.testing.assert_array_equal(gp.X_train_, X)
        idx = gp.inducing_indices_
        assert len(idx) == 9
        assert set(idx.tolist()) <= set(range(25))

    def test_rejects_bad_shapes(self):
        gp = LowRankGaussianProcessRegressor(optimize=False)
        with pytest.raises(ValueError):
            gp.fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            LowRankGaussianProcessRegressor(n_inducing=0)

    def test_hyperopt_improves_likelihood(self):
        X, y = _data(9, 40, dim=2)
        base = LowRankGaussianProcessRegressor(
            _kernel(), n_inducing=12, optimize=False).fit(X, y)
        tuned = LowRankGaussianProcessRegressor(
            _kernel(), n_inducing=12, optimize=True, n_restarts=1,
            rng=0).fit(X, y)
        assert tuned.log_marginal_likelihood(tuned.kernel.theta) >= \
            base.log_marginal_likelihood(base.kernel.theta) - 1e-9

    def test_analytic_gradient_matches_numeric_nll_slope(self):
        X, y = _data(11, 30)
        gp = LowRankGaussianProcessRegressor(
            _kernel(), n_inducing=10, optimize=False).fit(X, y)
        theta = gp.kernel.theta.copy()
        eps = 1e-5
        for t in (theta, theta + np.array([0.4, -0.3, 0.8])):
            nll, grad = gp._nll_and_grad(t)
            # m < n: the value is the SoR likelihood, not the exact one.
            assert nll == pytest.approx(_dense_sor_nll(gp, t), rel=1e-10)
            for j in range(len(t)):
                tp, tm = t.copy(), t.copy()
                tp[j] += eps
                tm[j] -= eps
                fd = (gp._nll_and_grad(tp)[0]
                      - gp._nll_and_grad(tm)[0]) / (2 * eps)
                assert grad[j] == pytest.approx(fd, rel=1e-3, abs=1e-6)
