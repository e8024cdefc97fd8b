"""Gaussian-process regression with marginal-likelihood hyperparameter fit.

The surrogate model of the paper's BO engine (§3.4).  Given observations
``(X, y)`` and a kernel, the posterior at any point is a normal
distribution whose mean is the model's estimate of the objective and whose
variance quantifies uncertainty.  Kernel hyperparameters are chosen by
maximizing the log marginal likelihood with the box-constrained L-BFGS
of :mod:`repro.gp.lbfgs`, from several starts stepped in lockstep: each
step evaluates every live start's likelihood in one call.
"""

from __future__ import annotations

import copy
import math

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs

from ..obs import as_tracer
from ..utils.rng import as_generator
from .kernels import ConstantKernel, Kernel, Matern52, WhiteKernel, _cdist_sq
from .lbfgs import minimize

__all__ = ["GaussianProcessRegressor", "default_bo_kernel"]

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


#: Likelihood starts whose covariances are built in one stacked block:
#: as many as fit 16384 float64 entries (128 KiB) per matrix.  Stacking
#: shares each NumPy call among the starts, which pays at small n; past
#: this size the block's temporaries made it slower than one start at a
#: time (docs/PERFORMANCE.md, "One lockstep optimizer").
_STACK_ELEMENTS = 16384

#: Lower-triangle contraction weights by size: 1 on the diagonal, 2
#: below it, 0 above.
_TRIL_WEIGHTS: dict[int, np.ndarray] = {}


def _tril_weights(n: int) -> np.ndarray:
    """Weights that turn a sum over a symmetric matrix's entries into a
    sum over its lower triangle; treat the result as read-only."""
    w = _TRIL_WEIGHTS.get(n)
    if w is None:
        if len(_TRIL_WEIGHTS) > 8:
            _TRIL_WEIGHTS.clear()
        w = _TRIL_WEIGHTS[n] = np.tri(n) + np.tri(n, k=-1)
    return w


def default_bo_kernel() -> Kernel:
    """The paper's kernel: scaled Matérn 5/2 plus white observation noise."""
    return ConstantKernel(1.0) * Matern52(0.5, bounds=(1e-2, 1e2)) \
        + WhiteKernel(1e-2, bounds=(1e-6, 1e1))


class _LikelihoodGP:
    """What both regressors share: construction, target normalization,
    the multi-start marginal-likelihood fit and the training-set views.

    Subclasses supply ``fit``, ``_nll`` (value only) and
    ``_nll_and_grad`` (value and exact theta-gradient at one theta, or
    at each row of a ``(k, p)`` stack, computed on a private kernel
    copy).
    """

    def __init__(self, kernel: Kernel | None = None, *, alpha: float = 1e-10,
                 normalize_y: bool = True, n_restarts: int = 2,
                 optimize: bool = True,
                 rng: np.random.Generator | int | None = None,
                 tracer=None):
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.kernel = copy.deepcopy(kernel) if kernel is not None \
            else default_bo_kernel()
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
        saved = self.kernel.theta
        try:
            return -self._nll(np.asarray(theta, dtype=float))
        finally:
            self.kernel.theta = saved

    def _optimize_theta(self) -> None:
        """Multi-start L-BFGS-B on the exact likelihood gradient.

        Starts are the incumbent theta plus ``n_restarts`` uniform draws
        inside the bounds.  They run in lockstep (:mod:`repro.gp.lbfgs`):
        each step is one ``_nll_and_grad`` call for the live starts, on
        one private kernel copy, so ``self.kernel`` only ever holds the
        winner.  The best value wins; ties go to the earlier start.  The
        ``gp.hyperopt`` timer covers the optimization and the
        ``gp.hyperopt.evals`` counter adds its likelihood evaluations,
        summed over the starts.
        """
        rng = as_generator(self.rng)
        bounds = self.kernel.bounds
        starts = [self.kernel.theta]
        for _ in range(self.n_restarts):
            starts.append(rng.uniform(bounds[:, 0], bounds[:, 1]))
        kernel = copy.deepcopy(self.kernel)
        with self.tracer.timer("gp.hyperopt"):
            res = minimize(lambda thetas, rows: self._nll_and_grad(
                thetas, kernel), np.vstack(starts), bounds, maxiter=100)
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
        Covariance function; defaults to :func:`default_bo_kernel`.  The
        instance is deep-copied so callers can reuse kernel templates.
    alpha:
        Jitter added to the training covariance diagonal for numerical
        stability (on top of any white-noise kernel).
    normalize_y:
        Standardize targets to zero mean / unit variance internally;
        predictions are transformed back.  Recommended when objective
        magnitudes vary wildly across workloads.
    n_restarts:
        Random restarts (beyond the incumbent theta) for the marginal
        likelihood optimization, which L-BFGS-B runs on the exact
        gradient from the kernels' ``∂K/∂θ`` and the Rasmussen–Williams
        trace identity.
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
        # Pairwise squared distances are hyperparameter-independent; cache
        # them so likelihood restarts and refits reuse one computation.
        self._d2 = _cdist_sq(X, X)
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
        K12 = self.kernel(self._X, X_new)
        K22 = self.kernel(X_new) + self.alpha * np.eye(k)
        L = self._chol
        B = solve_triangular(L, K12, lower=True, check_finite=False)
        S = K22 - B.T @ B
        try:
            Ls = np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            return False
        n = n_old + k
        c = np.zeros((n, n))
        c[:n_old, :n_old] = L
        c[n_old:, :n_old] = B.T
        c[n_old:, n_old:] = Ls
        self._chol = c
        # Extend the cached squared-distance matrix with the new block.
        d2 = np.empty((n, n))
        d2[:n_old, :n_old] = self._d2
        cross = _cdist_sq(self._X, X_new)
        d2[:n_old, n_old:] = cross
        d2[n_old:, :n_old] = cross.T
        d2[n_old:, n_old:] = _cdist_sq(X_new, X_new)
        self._d2 = d2
        return True

    def _K_train(self, kernel: Kernel | None = None) -> np.ndarray:
        """Training covariance (without jitter), from cached distances when
        the kernel supports it."""
        kernel = self.kernel if kernel is None else kernel
        try:
            return kernel.from_sq_dists(self._d2)
        except NotImplementedError:
            return kernel(self._X)

    def _nll(self, theta: np.ndarray, kernel: Kernel | None = None) -> float:
        """Negative log marginal likelihood at the given hyperparameters.

        Operates on *kernel* when given (the multi-start's private
        copy), else mutates ``self.kernel`` in place.
        """
        kernel = self.kernel if kernel is None else kernel
        kernel.theta = theta
        K = self._K_train(kernel) + self.alpha * np.eye(self._X.shape[0])
        try:
            L = _potrf(K)
        except np.linalg.LinAlgError:
            return 1e25
        a = _potrs(L, self._y)
        n = self._X.shape[0]
        logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
        return 0.5 * float(self._y @ a) + 0.5 * logdet + 0.5 * n * _LOG_2PI

    def _nll_and_grad(self, theta: np.ndarray, kernel: Kernel):
        """Negative log marginal likelihood and its exact theta-gradient.

        *theta* is one ``(p,)`` vector, giving ``(nll, grad)``, or a
        ``(k, p)`` stack, giving ``(k,)`` values and ``(k, p)``
        gradients.  The starts' covariances and their θ-gradients are
        built stacked from the cached distances, in blocks of
        :data:`_STACK_ELEMENTS` (*kernel*'s own theta is not read).
        Each start is then factorized on its own; one that is not
        positive definite gets the ``1e25`` sentinel and a zero gradient
        without stopping the others.  The trace identity (Rasmussen &
        Williams, eq. 5.9)

        ``∂NLL/∂θ_j = ½ tr((K⁻¹ − ααᵀ) ∂K/∂θ_j)``,  ``α = K⁻¹ y``

        turns every partial into one O(n²) contraction, with ``K⁻¹``
        formed from the Cholesky factor (LAPACK ``dpotri``).
        """
        thetas = np.atleast_2d(np.asarray(theta, dtype=float))
        n = self._X.shape[0]
        block = max(1, _STACK_ELEMENTS // (n * n))
        parts = [self._stacked_nll_and_grad(thetas[i:i + block], kernel)
                 for i in range(0, len(thetas), block)]
        nll = np.concatenate([v for v, _ in parts])
        grad = np.concatenate([g for _, g in parts])
        if np.ndim(theta) == 1:
            return float(nll[0]), grad[0]
        return nll, grad

    def _stacked_nll_and_grad(self, thetas: np.ndarray, kernel: Kernel
                              ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_nll_and_grad` of one stacked block of starts."""
        k, n = thetas.shape[0], self._X.shape[0]
        K, grads = kernel.value_and_theta_gradient(self._X, d2=self._d2,
                                                   theta=thetas)
        K[:, np.arange(n), np.arange(n)] += self.alpha
        nll = np.full(k, 1e25)
        M = np.zeros((k, n, n))
        failed = np.zeros(k, dtype=bool)
        for j in range(k):
            try:
                L = _potrf(K[j])
            except np.linalg.LinAlgError:
                failed[j] = True
                continue
            a = _potrs(L, self._y)
            logdet = 2.0 * float(np.log(L.diagonal()).sum())
            nll[j] = 0.5 * float(self._y @ a) + 0.5 * logdet \
                + 0.5 * n * _LOG_2PI
            # K⁻¹ − ααᵀ on and below the diagonal, weighted so that its
            # sum against a symmetric ∂K/∂θ is the full trace.  LAPACK
            # dpotri writes K⁻¹'s lower triangle; the upper one keeps
            # K's entries, which the weights zero.
            inv, info = dpotri(L, lower=1)
            if info != 0:
                raise np.linalg.LinAlgError(
                    f"dpotri failed with info={info}")
            inv -= a[:, None] * a
            M[j] = inv * _tril_weights(n)
        grad = 0.5 * np.stack([np.einsum("kij,kij->k", M, G) for G in grads],
                              axis=1)
        grad[failed] = 0.0
        return nll, grad

    def _precompute(self) -> None:
        K = self._K_train() + self.alpha * np.eye(self._X.shape[0])
        # Escalate jitter if the optimized kernel is barely positive definite.
        jitter = self.alpha if self.alpha > 0 else 1e-10
        for _ in range(8):
            try:
                self._chol = _potrf(K + 0.0)
                break
            except np.linalg.LinAlgError:
                K = K + jitter * np.eye(K.shape[0])
                jitter *= 10.0
        else:  # pragma: no cover - pathological kernels only
            raise np.linalg.LinAlgError("covariance matrix not positive definite")
        self._theta_chol = self.kernel.theta.copy()
        self._weights = _potrs(self._chol, self._y)

    # -- prediction ---------------------------------------------------------------
    def predict(self, X: np.ndarray, return_std: bool = False):
        """Posterior mean (and optionally standard deviation) at *X*.

        The white-noise component contributes to training covariance but
        not to cross covariance, so the returned std is the uncertainty of
        the latent objective, not of a noisy observation.
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
        v = _potrs(self._chol, Ks.T)
        var = self.kernel.latent_diag(X) - np.einsum("ij,ji->i", Ks, v)
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
        v = _potrs(self._chol, Ks.T, check_finite=False)
        var = self.kernel.latent_diag(X) - np.einsum("ij,ji->i", Ks, v)
        var = np.maximum(var, 1e-12)
        std = np.sqrt(var) * self._y_std
        return mean, std

    def predict_with_gradient(self, x: np.ndarray):
        """Posterior mean/std plus their input gradients.

        For a single point *x* of shape ``(d,)`` returns ``(mu, sigma,
        dmu, dsigma)``: two floats and the gradients ``∂μ/∂x`` and
        ``∂σ/∂x``, each of shape ``(d,)``.  A ``(k, d)`` block of points
        gives ``(k,)`` means and stds and ``(k, d)`` gradients from one
        kernel pass and one solve.

        ``∂μ/∂x = (∂k/∂x)ᵀ K⁻¹y`` and ``∂σ²/∂x = −2 (K⁻¹k)ᵀ ∂k/∂x``
        (every stationary kernel in this package has an input-independent
        prior variance, so ``latent_diag`` contributes nothing).  When the
        variance hits the numerical floor the σ-gradient is zeroed, making
        it consistent with the clipped value :meth:`predict` returns.
        Mean and std match :meth:`fast_predict` of the same points
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
        v = _potrs(self._chol, Ks.T, check_finite=False)
        var = self.kernel.latent_diag(xq) - np.einsum("ij,ji->i", Ks, v)
        clipped = var < 1e-12
        var = np.maximum(var, 1e-12)
        std = np.sqrt(var) * self._y_std
        dkT = dk.transpose(0, 2, 1)
        dmu = (dkT @ self._weights) * self._y_std
        dvar = -2.0 * (dkT @ v.T[:, :, None])[:, :, 0]
        dsigma = dvar / (2.0 * np.sqrt(var))[:, None] * self._y_std
        dsigma[clipped] = 0.0
        if x.ndim == 1:
            return float(mean[0]), float(std[0]), dmu[0], dsigma[0]
        return mean, std, dmu, dsigma
