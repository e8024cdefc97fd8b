"""The GP's direct LAPACK pair keeps the bits and the failure modes of
scipy.linalg's ``cho_factor``/``cho_solve``/``solve_triangular``.

Each case runs the regressors twice: as they are, and with
``repro.gp``'s private ``_potrf``/``_potrs``/``_trtrs`` swapped for
shims over the scipy wrappers.  Fits (including the multi-start
likelihood optimization that calls ``_nll_and_grad``), predictions,
likelihood gradients and raised errors must match exactly;
``predict_with_gradient`` must also equal the reference in
``kernel_reference`` (``solve_triangular`` and the reference kernel
Jacobian).
"""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, solve_triangular

import kernel_reference
from repro.gp import (GaussianProcessRegressor,
                      LowRankGaussianProcessRegressor, Matern52, gpr, lowrank)

SIZES = [1, 2, 30, 120]


def _wrapper_potrf(a, check_finite=True):
    return cho_factor(a, lower=True, check_finite=check_finite)[0]


def _wrapper_potrs(c, b, check_finite=True):
    return cho_solve((c, True), b, check_finite=check_finite)


def _wrapper_trtrs(c, b, trans=0, check_finite=True):
    return solve_triangular(c, b, trans=trans, lower=True,
                            check_finite=check_finite)


def on_wrappers(fn):
    """Run *fn* with the scipy wrappers in place of the LAPACK calls."""
    with pytest.MonkeyPatch.context() as mp:
        for module in (gpr, lowrank):
            mp.setattr(module, "_potrf", _wrapper_potrf)
            mp.setattr(module, "_potrs", _wrapper_potrs)
            mp.setattr(module, "_trtrs", _wrapper_trtrs)
        return fn()


def outcome(fn):
    """Return value, or the raised error's type and message."""
    try:
        return ("ok", fn())
    except Exception as exc:  # compared by the caller, not swallowed
        return ("raised", type(exc), str(exc))


def data(n, dim=5, seed=0):
    rng = np.random.default_rng([n, dim, seed])
    X = rng.random((n, dim))
    y = np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2 + 0.05 * rng.standard_normal(n)
    return X, y


def make(kind, n, **kwargs):
    X, y = data(n)
    if kind == "lowrank":
        return LowRankGaussianProcessRegressor(
            n_inducing=max(1, n // 2), rng=n, n_restarts=1,
            **kwargs).fit(X, y)
    return GaussianProcessRegressor(rng=n, n_restarts=1, **kwargs).fit(X, y)


def assert_bitwise(a, b):
    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("kind", ["exact", "lowrank"])
@pytest.mark.parametrize("n", SIZES)
def test_fit_predict_and_likelihood_match_the_wrappers(kind, n):
    gp = make(kind, n)
    ref = on_wrappers(lambda: make(kind, n))
    assert_bitwise(gp.kernel.theta, ref.kernel.theta)
    assert_bitwise(gp._weights, ref._weights)
    if kind == "exact":
        assert_bitwise(gp._chol, ref._chol)
    else:
        assert_bitwise(gp._Lm, ref._Lm)
        assert_bitwise(gp._LB, ref._LB)

    rng = np.random.default_rng([n, 1])
    Q = rng.random((9, gp._X.shape[1]))
    Q[0] = gp._X[0]
    for got, want in zip(gp.predict(Q, return_std=True),
                         on_wrappers(lambda: ref.predict(Q, return_std=True))):
        assert_bitwise(got, want)
    for q in Q:
        got = gp.predict_with_gradient(q)
        want = kernel_reference.predict_with_gradient(ref, q)
        for g, w in zip(got, want):
            assert_bitwise(g, w)

    bounds = gp.kernel.bounds
    for theta in [gp.kernel.theta] + [rng.uniform(bounds[:, 0], bounds[:, 1])
                                      for _ in range(3)]:
        nll, grad = gp._nll_and_grad(theta)
        nll_r, grad_r = on_wrappers(lambda: ref._nll_and_grad(theta))
        assert_bitwise(nll, nll_r)
        assert_bitwise(grad, grad_r)


def test_pair_equals_the_wrappers_on_random_spd_systems():
    rng = np.random.default_rng(11)
    for n in SIZES:
        A = rng.random((n, n))
        K = A @ A.T + n * np.eye(n)
        c = gpr._potrf(K)
        assert_bitwise(c, cho_factor(K, lower=True)[0])
        for b in (rng.random(n), rng.random((n, 1)), np.eye(n)):
            assert_bitwise(gpr._potrs(c, b), cho_solve((c, True), b))
            assert_bitwise(gpr._potrs(c, b, check_finite=False),
                           cho_solve((c, True), b, check_finite=False))
        # dpotrf's Fortran-ordered factor, and the C-ordered ones of
        # numpy's Cholesky and of np.tril that the low-rank GP solves with.
        for L in (c, np.linalg.cholesky(K), np.tril(c)):
            for b in (rng.random(n), rng.random((n, 1)),
                      rng.random((3, n)).T, np.eye(n)):
                for trans in (0, 1):
                    assert_bitwise(gpr._trtrs(L, b, trans),
                                   _wrapper_trtrs(L, b, trans))
    singular = np.diag([1.0, 0.0, 1.0])
    got = outcome(lambda: gpr._trtrs(singular, np.ones(3)))
    assert got[:2] == ("raised", np.linalg.LinAlgError)
    assert got == outcome(lambda: _wrapper_trtrs(singular, np.ones(3)))


def test_rank_k_update_then_predict_matches_the_wrappers():
    # The factor a rank-k update extends, and the solves on it, keep the
    # wrappers' bits too.
    X, y = data(40)
    Q = np.random.default_rng(2).random((5, X.shape[1]))

    def run():
        gp = GaussianProcessRegressor(rng=0, n_restarts=1).fit(X[:30], y[:30])
        gp.update(X, y)
        return gp, gp.predict(Q, return_std=True), \
            gp.predict_with_gradient(Q)
    gp, got_p, got_g = run()
    ref, want_p, want_g = on_wrappers(run)
    assert gp._chol.shape == (40, 40)
    assert_bitwise(gp._chol, ref._chol)
    for got, want in zip(got_p + got_g, want_p + want_g):
        assert_bitwise(got, want)


@pytest.mark.parametrize("optimize", [False, True])
def test_nan_target_raises_the_wrappers_value_error(optimize):
    X, y = data(12)
    y[4] = np.nan

    def fit():
        return GaussianProcessRegressor(rng=0, optimize=optimize).fit(X, y)
    got = outcome(fit)
    assert got[:2] == ("raised", ValueError)
    assert "infs or NaNs" in got[2]
    assert got == on_wrappers(lambda: outcome(fit))


def test_nan_covariance_raises_the_wrappers_value_error():
    X, y = data(12)
    X[3, 1] = np.nan

    def fit():
        return GaussianProcessRegressor(rng=0, optimize=False).fit(X, y)
    got = outcome(fit)
    assert got[:2] == ("raised", ValueError)
    assert got == on_wrappers(lambda: outcome(fit))

    gp = make("exact", 12, optimize=False)
    theta = np.full(len(gp.kernel.theta), np.nan)
    for call in (lambda: gp._nll_and_grad(theta),
                 lambda: gp.log_marginal_likelihood(theta)):
        got = outcome(call)
        assert got[:2] == ("raised", ValueError)
        assert got == on_wrappers(lambda: outcome(call))


def test_not_positive_definite_likelihood_is_the_sentinel():
    gp = make("exact", 30, optimize=False)
    # Huge signal variance + negligible noise: numerically singular.
    bad = np.array([80.0, 10.0, -40.0])
    nll, grad = gp._nll_and_grad(bad)
    assert nll == 1e25
    assert_bitwise(grad, np.zeros(3))
    assert gp.log_marginal_likelihood(bad) == -1e25
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        gpr._potrf(-np.eye(3))


def test_singular_training_covariance_escalates_jitter(monkeypatch):
    # Repeated rows and next to no noise: the first factorization fails
    # and _precompute retries with growing jitter, exactly as with the
    # wrapper.
    X, y = data(5, dim=2)
    X, y = np.vstack([X, X, X]), np.arange(15.0)
    kernel = Matern52(noise=1e-300)

    def fit():
        return GaussianProcessRegressor(kernel, alpha=0.0,
                                        optimize=False).fit(X, y)
    failures = []
    real = gpr._potrf

    def spy(a, check_finite=True):
        try:
            return real(a, check_finite)
        except np.linalg.LinAlgError:
            failures.append(a.shape)
            raise
    monkeypatch.setattr(gpr, "_potrf", spy)
    gp = fit()
    monkeypatch.undo()
    assert failures
    ref = on_wrappers(fit)
    assert_bitwise(gp._chol, ref._chol)
    assert_bitwise(gp._weights, ref._weights)
