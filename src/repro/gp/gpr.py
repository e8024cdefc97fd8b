"""Gaussian-process regression with marginal-likelihood hyperparameter fit.

The surrogate model of the paper's BO engine (§3.4).  Given observations
``(X, y)`` and the kernel (:class:`repro.gp.kernels.Matern52`), the
posterior at any point is a normal distribution whose mean is the
model's estimate of the objective and whose variance quantifies
uncertainty.  Kernel hyperparameters are chosen by maximizing the log
marginal likelihood with the box-constrained L-BFGS of
:mod:`repro.gp.lbfgs`, from several starts stepped in lockstep: each
step evaluates every live start's likelihood in one call.
"""

from __future__ import annotations

import copy
import math

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtrs

from ..obs import as_tracer
from ..utils.rng import as_generator
from .kernels import Matern52, scaled_distances
from .lbfgs import minimize

__all__ = ["GaussianProcessRegressor"]

_LOG_2PI = math.log(2.0 * math.pi)


def _potrf(a: np.ndarray, check_finite: bool = True) -> np.ndarray:
    """Lower Cholesky factor of *a* straight from LAPACK ``dpotrf``.

    The routine, arguments and checks of scipy.linalg's lower-triangular
    factor wrapper, without that wrapper's per-call cost (about as much
    again as the factorization at the sizes a BO session fits):
    ``ValueError`` for a non-finite (when *check_finite*) or non-square
    *a*, ``np.linalg.LinAlgError`` when *a* is not positive definite.
    As there, the upper triangle keeps *a*'s entries.
    """
    if check_finite:
        a = np.asarray_chkfinite(a)
    if a.ndim != 2:
        raise ValueError("Input array needs to be 2D but received a "
                         f"{a.ndim}d-array.")
    if a.shape[0] != a.shape[1]:
        raise ValueError("Input array is expected to be square but has "
                         f"the shape: {a.shape}.")
    c, info = dpotrf(a, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in {-info}-th "
                         'argument on entry to "POTRF".')
    return c


def _potrs(c: np.ndarray, b: np.ndarray,
           check_finite: bool = True) -> np.ndarray:
    """Solve ``A x = b`` given :func:`_potrf`'s factor *c* of ``A``.

    LAPACK ``dpotrs`` with the checks of scipy.linalg's matching solve
    wrapper: ``ValueError`` for non-finite inputs (when *check_finite*),
    a non-square *c* or mismatched shapes.
    """
    if check_finite:
        b = np.asarray_chkfinite(b)
        c = np.asarray_chkfinite(c)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("The factored matrix c is not square.")
    if c.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible dimensions ({c.shape} and {b.shape})")
    x, info = dpotrs(c, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal "
                         "potrs")
    return x


def _trtrs(c: np.ndarray, b: np.ndarray, trans: int = 0,
           check_finite: bool = True) -> np.ndarray:
    """Solve ``L x = b`` (or ``Lᵀ x = b`` with *trans* 1), ``L`` the
    lower triangle of *c*.

    LAPACK ``dtrtrs`` called as scipy.linalg's ``solve_triangular(c, b,
    lower=True)`` calls it, so both return the same bits: a C-ordered
    *c* goes in as its transpose, the upper triangle of a Fortran-ordered
    matrix.  That wrapper's per-call cost (about 10 µs) is several times
    the solve's at the sizes a BO session polishes.  Raises like it:
    ``ValueError`` for non-finite inputs (when *check_finite*),
    ``np.linalg.LinAlgError`` for a zero on the diagonal.
    """
    if check_finite:
        b = np.asarray_chkfinite(b)
        c = np.asarray_chkfinite(c)
    if c.flags.f_contiguous:
        x, info = dtrtrs(c, b, lower=1, trans=trans)
    else:
        x, info = dtrtrs(c.T, b, lower=0, trans=1 - trans)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal "
                         "trtrs")
    return x


#: Likelihood starts whose covariances are built in one stacked block:
#: as many as fit 16384 float64 entries (128 KiB) per matrix.  Stacking
#: shares each NumPy call among the starts, which pays at small n; past
#: this size the block's temporaries made it slower than one start at a
#: time (docs/PERFORMANCE.md, "One lockstep optimizer").
_STACK_ELEMENTS = 16384

#: Upper-triangle contraction weights by size: 1 on the diagonal, 2
#: above it, 0 below.
_TRIU_WEIGHTS: dict[int, np.ndarray] = {}


def _triu_weights(n: int) -> np.ndarray:
    """Weights that turn a sum over a symmetric matrix's entries into a
    sum over its upper triangle; treat the result as read-only."""
    w = _TRIU_WEIGHTS.get(n)
    if w is None:
        if len(_TRIU_WEIGHTS) > 8:
            _TRIU_WEIGHTS.clear()
        w = _TRIU_WEIGHTS[n] = np.tri(n).T + np.tri(n, k=-1).T
    return w


class _LikelihoodGP:
    """What both regressors share: construction, target normalization,
    the multi-start marginal-likelihood fit and the training-set views.

    Subclasses supply ``fit`` and ``_nll_and_grad``: the negative log
    marginal likelihood and its exact θ-gradient at one θ, or at each row
    of a ``(k, 3)`` stack, evaluated without touching ``self.kernel``.
    """

    def __init__(self, kernel: Matern52 | None = None, *,
                 alpha: float = 1e-10, normalize_y: bool = True,
                 n_restarts: int = 2, optimize: bool = True,
                 rng: np.random.Generator | int | None = None,
                 tracer=None):
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.kernel = copy.deepcopy(kernel) if kernel is not None \
            else Matern52()
        self.alpha = alpha
        self.normalize_y = normalize_y
        self.n_restarts = n_restarts
        self.optimize = optimize
        self.rng = rng
        self.tracer = as_tracer(tracer)
        self._fitted = False

    def _refit(self, X: np.ndarray, y: np.ndarray):
        """``fit`` at the current hyperparameters, never re-optimizing."""
        saved_optimize = self.optimize
        self.optimize = False
        try:
            return self.fit(X, y)
        finally:
            self.optimize = saved_optimize

    def _normalize_targets(self, y: np.ndarray) -> None:
        self._y_raw = y.copy()
        if self.normalize_y:
            self._y_mean = float(y.mean())
            self._y_std = float(y.std())
            if self._y_std == 0.0:
                self._y_std = 1.0
        else:
            self._y_mean, self._y_std = 0.0, 1.0
        self._y = (y - self._y_mean) / self._y_std

    def log_marginal_likelihood(self, theta: np.ndarray | None = None) -> float:
        """Log marginal likelihood at *theta* (default: current kernel)."""
        if theta is None:
            theta = self.kernel.theta
        return -float(self._nll_and_grad(np.asarray(theta, dtype=float))[0])

    def _optimize_theta(self) -> None:
        """Multi-start L-BFGS-B on the exact likelihood gradient.

        Starts are the incumbent theta plus ``n_restarts`` uniform draws
        inside the bounds.  They run in lockstep (:mod:`repro.gp.lbfgs`):
        each step is one ``_nll_and_grad`` call for the live starts, which
        leaves ``self.kernel`` alone, so it only ever holds the winner.
        The best value wins; ties go to the earlier start.  The
        ``gp.hyperopt`` timer covers the optimization and the
        ``gp.hyperopt.evals`` counter adds its likelihood evaluations,
        summed over the starts.
        """
        rng = as_generator(self.rng)
        bounds = self.kernel.bounds
        starts = [self.kernel.theta]
        for _ in range(self.n_restarts):
            starts.append(rng.uniform(bounds[:, 0], bounds[:, 1]))
        with self.tracer.timer("gp.hyperopt"):
            res = minimize(lambda thetas, rows: self._nll_and_grad(thetas),
                           np.vstack(starts), bounds, maxiter=100)
        self.tracer.count("gp.hyperopt.evals", res.nfev)
        best_theta, best_nll = self.kernel.theta, np.inf
        for theta, nll in zip(res.x, res.fun):
            if nll < best_nll:
                best_nll, best_theta = float(nll), theta
        self.kernel.theta = best_theta

    @property
    def X_train_(self) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("GP is not fitted")
        return self._X


class GaussianProcessRegressor(_LikelihoodGP):
    """GP regression on the unit hypercube.

    Parameters
    ----------
    kernel:
        A :class:`~repro.gp.kernels.Matern52`; defaults to its paper
        settings.  The instance is deep-copied so callers can reuse
        kernel templates.
    alpha:
        Jitter added to the training covariance diagonal for numerical
        stability (on top of the kernel's noise).
    normalize_y:
        Standardize targets to zero mean / unit variance internally;
        predictions are transformed back.  Recommended when objective
        magnitudes vary wildly across workloads.
    n_restarts:
        Random restarts (beyond the incumbent theta) for the marginal
        likelihood optimization, which L-BFGS-B runs on the exact
        gradient (:meth:`_nll_and_grad`).
    optimize:
        If False, keep the kernel's current hyperparameters (useful for
        tests and for very small training sets).
    tracer:
        Optional :class:`repro.obs.Tracer`: each (re)fit, including a
        rank-k :meth:`update`, emits a ``gp.fit`` event and accumulates
        in the ``gp.fit`` timer; :meth:`predict` calls bump the
        ``gp.predict``/``gp.predict.points`` counters.  The single-point
        :meth:`fast_predict` and :meth:`predict_with_gradient` paths are
        deliberately left uninstrumented.
    """

    # -- fitting ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcessRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if y.shape != (X.shape[0],):
            raise ValueError("y must be 1-D with len(y) == len(X)")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on empty data")
        self._X = X
        # √5·r is hyperparameter-free: one computation serves every
        # likelihood evaluation, the factorization and later refits.
        self._S = scaled_distances(X, X)
        self._normalize_targets(y)

        optimized = self.optimize and X.shape[0] >= 2
        with self.tracer.timer("gp.fit"):
            if optimized:
                self._optimize_theta()
            self._precompute()
        self._fitted = True
        self.tracer.emit("gp.fit", {"n": int(X.shape[0]),
                                    "optimized": bool(optimized),
                                    "incremental": False,
                                    "theta": self.kernel.theta})
        return self

    def update(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcessRegressor":
        """Warm refit: extend the model with appended observations.

        When *X* equals the previous training matrix with zero or more new
        rows appended and the kernel hyperparameters are unchanged since
        the last factorization, the Cholesky factor is extended with a
        rank-k update (:math:`O(kn^2)`) instead of refactorized
        (:math:`O(n^3)`); the target normalization and the weight vector
        are always recomputed exactly.  Any other change — shrunk or
        reordered rows, different feature count, new hyperparameters —
        falls back to a full :meth:`fit`.  The update never re-optimizes
        hyperparameters, matching ``optimize=False`` fits.

        The extended factor is mathematically exact; it differs from a
        from-scratch factorization only by floating-point rounding (parity
        within ~1e-8 is covered by tests).
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if (not self._fitted or X.ndim != 2
                or y.shape != (X.shape[0],)
                or X.shape[1] != self._X.shape[1]
                or X.shape[0] < self._X.shape[0]
                or not np.array_equal(self.kernel.theta, self._theta_chol)
                or not np.array_equal(X[: self._X.shape[0]], self._X)):
            return self._refit(X, y)
        n_old = self._X.shape[0]
        if X.shape[0] == n_old:
            if not np.array_equal(self._y_raw, y):
                self._normalize_targets(y)
                self._weights = _potrs(self._chol, self._y)
            return self
        with self.tracer.timer("gp.fit"):
            extended = self._extend_cholesky(X[n_old:])
            if extended:
                self._X = X
                self._normalize_targets(y)
                self._weights = _potrs(self._chol, self._y)
        if not extended:
            # Appended block made the factor numerically unstable: refit.
            return self._refit(X, y)
        self.tracer.emit("gp.fit", {"n": int(X.shape[0]),
                                    "optimized": False,
                                    "incremental": True,
                                    "theta": self.kernel.theta})
        return self

    def _extend_cholesky(self, X_new: np.ndarray) -> bool:
        """Append rows to the training set via a rank-k Cholesky update."""
        n_old = self._X.shape[0]
        k = X_new.shape[0]
        S12 = scaled_distances(self._X, X_new)
        S22 = scaled_distances(X_new, X_new)
        K12 = self.kernel.latent(S12)
        K22 = self.kernel.latent(S22)
        K22[np.diag_indices(k)] += self.kernel.noise + self.alpha
        L = self._chol
        B = _trtrs(L, K12, check_finite=False)
        try:
            Ls = np.linalg.cholesky(K22 - B.T @ B)
        except np.linalg.LinAlgError:
            return False
        n = n_old + k
        # Fortran order, as dpotrf returns it: LAPACK reads it uncopied.
        c = np.zeros((n, n), order="F")
        c[:n_old, :n_old] = L
        c[n_old:, :n_old] = B.T
        c[n_old:, n_old:] = Ls
        self._chol = c
        S = np.empty((n, n))
        S[:n_old, :n_old] = self._S
        S[:n_old, n_old:] = S12
        S[n_old:, :n_old] = S12.T
        S[n_old:, n_old:] = S22
        self._S = S
        return True

    def _nll_and_grad(self, theta: np.ndarray):
        """Negative log marginal likelihood and its exact θ-gradient.

        *theta* is one ``(3,)`` vector, giving ``(nll, grad)``, or a
        ``(k, 3)`` stack, giving ``(k,)`` values and ``(k, 3)``
        gradients.  The starts' covariances and their ``∂K/∂log ℓ`` are
        built stacked from the cached scaled distances, in blocks of
        :data:`_STACK_ELEMENTS`; each start is then factorized on its
        own.  One that is not positive definite gets the ``1e25``
        sentinel and a zero gradient without stopping the others.

        With ``α = K⁻¹y`` and ``W = K⁻¹ − ααᵀ`` the trace identity
        (Rasmussen & Williams, eq. 5.9) gives ``∂NLL/∂θ_j = ½ tr(W
        ∂K/∂θ_j)``.  Only the length scale needs the n×n contraction;
        the kernel's form gives the other two in closed form, from
        ``tr W = tr K⁻¹ − αᵀα`` (``K⁻¹`` from the Cholesky factor, LAPACK
        ``dpotri``):

        * ``∂K/∂log c = K − (σ² + alpha)·I`` and ``αᵀKα = yᵀα``, so
          ``∂NLL/∂log c = ½[n − yᵀα − (σ² + alpha)·tr W]``;
        * ``∂K/∂log σ² = σ²·I``, so ``∂NLL/∂log σ² = ½σ²·tr W``.
        """
        thetas = np.atleast_2d(np.asarray(theta, dtype=float))
        n = self._X.shape[0]
        block = max(1, _STACK_ELEMENTS // (n * n))
        parts = [self._stacked_nll_and_grad(thetas[i:i + block])
                 for i in range(0, len(thetas), block)]
        nll = np.concatenate([v for v, _ in parts])
        grad = np.concatenate([g for _, g in parts])
        if np.ndim(theta) == 1:
            return float(nll[0]), grad[0]
        return nll, grad

    def _stacked_nll_and_grad(self, thetas: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_nll_and_grad` of one stacked block of starts."""
        k, n = thetas.shape[0], self._X.shape[0]
        y = self._y
        K, dK = self.kernel.latent_and_length_gradient(self._S, thetas)
        noise = np.exp(thetas[:, 2])
        diag = noise + self.alpha
        K.reshape(k, n * n)[:, ::n + 1] += diag[:, None]
        # Weighted so that a sum against the upper triangle of the
        # transposed dpotri output (which holds K⁻¹'s lower triangle)
        # is the full trace, and so that αᵀ(∂K)α is one product.
        dK *= _triu_weights(n)
        nll = np.full(k, 1e25)
        grad = np.zeros((k, 3))
        for j in range(k):
            try:
                L = _potrf(K[j])
            except np.linalg.LinAlgError:
                continue
            a = _potrs(L, y)
            inv, info = dpotri(L, lower=1)
            if info != 0:
                raise np.linalg.LinAlgError(
                    f"dpotri failed with info={info}")
            ya = float(y @ a)
            nll[j] = 0.5 * ya + float(np.log(L.diagonal()).sum()) \
                + 0.5 * n * _LOG_2PI
            tr_w = float(inv.trace()) - float(a @ a)
            g = dK[j]
            grad[j] = (0.5 * (n - ya - diag[j] * tr_w),
                       0.5 * (float(np.vdot(inv.T, g)) - float(a @ (g @ a))),
                       0.5 * noise[j] * tr_w)
        return nll, grad

    def _precompute(self) -> None:
        K = self.kernel.latent(self._S)
        diag = np.diag_indices_from(K)
        K[diag] += self.kernel.noise + self.alpha
        # Escalate jitter if the optimized kernel is barely positive definite.
        jitter = self.alpha if self.alpha > 0 else 1e-10
        for _ in range(8):
            try:
                self._chol = _potrf(K)
                break
            except np.linalg.LinAlgError:
                K[diag] += jitter
                jitter *= 10.0
        else:  # pragma: no cover - pathological kernels only
            raise np.linalg.LinAlgError("covariance matrix not positive definite")
        self._theta_chol = self.kernel.theta.copy()
        self._weights = _potrs(self._chol, self._y)

    # -- prediction ---------------------------------------------------------------
    def _latent_var(self, Ks: np.ndarray, check_finite: bool
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior variance of the latent objective for the cross
        covariance rows *Ks*, and ``L⁻¹Ksᵀ``: the prior ``c`` less
        ``‖L⁻¹k‖²``, from one triangular solve."""
        v = _trtrs(self._chol, Ks.T, check_finite=check_finite)
        return self.kernel.variance - np.einsum("ij,ij->j", v, v), v

    def predict(self, X: np.ndarray, return_std: bool = False):
        """Posterior mean (and optionally standard deviation) at *X*.

        The kernel's noise enters the training covariance but not the
        cross covariance, so the returned std is the uncertainty of the
        latent objective, not of a noisy observation.
        """
        if not self._fitted:
            raise RuntimeError("GP is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self._X.shape[1]:
            raise ValueError(f"X must have shape (n, {self._X.shape[1]})")
        self.tracer.count("gp.predict")
        self.tracer.count("gp.predict.points", X.shape[0])
        Ks = self.kernel(X, self._X)
        mean = Ks @ self._weights
        mean = mean * self._y_std + self._y_mean
        if not return_std:
            return mean
        var, _ = self._latent_var(Ks, check_finite=True)
        var = np.maximum(var, 1e-12)
        std = np.sqrt(var) * self._y_std
        return mean, std

    def fast_predict(self, X: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and std without input validation or finiteness
        checks, for callers that query one fitted model many times with
        single points.

        Arithmetic is identical to ``predict(X, return_std=True)``; only
        the defensive ``asarray``/shape/finite checks are skipped, so both
        entry points return the same bits for valid input.
        """
        Ks = self.kernel(X, self._X)
        mean = Ks @ self._weights
        mean = mean * self._y_std + self._y_mean
        var, _ = self._latent_var(Ks, check_finite=False)
        var = np.maximum(var, 1e-12)
        std = np.sqrt(var) * self._y_std
        return mean, std

    def predict_with_gradient(self, x: np.ndarray):
        """Posterior mean/std plus their input gradients.

        For a single point *x* of shape ``(d,)`` returns ``(mu, sigma,
        dmu, dsigma)``: two floats and the gradients ``∂μ/∂x`` and
        ``∂σ/∂x``, each of shape ``(d,)``.  A ``(k, d)`` block of points
        gives ``(k,)`` means and stds and ``(k, d)`` gradients from one
        kernel pass.

        ``∂μ/∂x = (∂k/∂x)ᵀ K⁻¹y`` and ``∂σ²/∂x = −2 (K⁻¹k)ᵀ ∂k/∂x`` (the
        prior variance does not depend on x), with ``K⁻¹k`` the
        transposed solve of the variance's ``L⁻¹k``.  When the variance
        hits the numerical floor the σ-gradient is zeroed, making it
        consistent with the clipped value :meth:`predict` returns.  Mean
        and std match :meth:`fast_predict` of the same points
        bit-for-bit.
        """
        if not self._fitted:
            raise RuntimeError("GP is not fitted")
        x = np.asarray(x, dtype=float)
        xq = np.atleast_2d(x)
        # One kernel pass gives the rows and their Jacobians; mean/std
        # arithmetic mirrors fast_predict exactly (same shapes, same
        # reductions) so both entry points return the same bits.
        Ks, dk = self.kernel.value_and_input_gradient(xq, self._X)
        mean = Ks @ self._weights
        mean = mean * self._y_std + self._y_mean
        var, v = self._latent_var(Ks, check_finite=False)
        clipped = var < 1e-12
        var = np.maximum(var, 1e-12)
        std = np.sqrt(var) * self._y_std
        u = _trtrs(self._chol, v, trans=1, check_finite=False)
        dkT = dk.transpose(0, 2, 1)
        dmu = (dkT @ self._weights) * self._y_std
        dvar = -2.0 * (dkT @ u.T[:, :, None])[:, :, 0]
        dsigma = dvar / (2.0 * np.sqrt(var))[:, None] * self._y_std
        dsigma[clipped] = 0.0
        if x.ndim == 1:
            return float(mean[0]), float(std[0]), dmu[0], dsigma[0]
        return mean, std, dmu, dsigma
