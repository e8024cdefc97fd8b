"""Gaussian-process regression with marginal-likelihood hyperparameter fit.

The surrogate model of the paper's BO engine (§3.4).  Given observations
``(X, y)`` and a kernel, the posterior at any point is a normal
distribution whose mean is the model's estimate of the objective and whose
variance quantifies uncertainty.  Kernel hyperparameters are chosen by
maximizing the log marginal likelihood with L-BFGS-B (multi-start).
"""

from __future__ import annotations

import copy
import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.optimize import minimize

from ..obs import as_tracer
from ..utils.parallel import parallel_map
from ..utils.rng import as_generator
from .kernels import ConstantKernel, Kernel, Matern52, WhiteKernel, _cdist_sq

__all__ = ["GaussianProcessRegressor", "default_bo_kernel"]

_LOG_2PI = math.log(2.0 * math.pi)


def default_bo_kernel() -> Kernel:
    """The paper's kernel: scaled Matérn 5/2 plus white observation noise."""
    return ConstantKernel(1.0) * Matern52(0.5, bounds=(1e-2, 1e2)) \
        + WhiteKernel(1e-2, bounds=(1e-6, 1e1))


class _LikelihoodGP:
    """What both regressors share: construction, target normalization,
    the multi-start marginal-likelihood fit and the training-set views.

    Subclasses supply ``fit``, ``_nll`` (value only) and
    ``_nll_and_grad`` (value and exact theta-gradient, computed on a
    private kernel copy).
    """

    def __init__(self, kernel: Kernel | None = None, *, alpha: float = 1e-10,
                 normalize_y: bool = True, n_restarts: int = 2,
                 optimize: bool = True, n_jobs: int | None = None,
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
        self.n_jobs = n_jobs
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

        One fused value-and-gradient call per step shares a single
        factorization between the NLL and all its partial derivatives.
        Starts are the incumbent theta plus ``n_restarts`` uniform draws
        inside the bounds; the best is kept in start order.
        """
        rng = as_generator(self.rng)
        bounds = self.kernel.bounds
        starts = [self.kernel.theta]
        for _ in range(self.n_restarts):
            starts.append(rng.uniform(bounds[:, 0], bounds[:, 1]))

        def _run_start(start: np.ndarray) -> tuple[float, np.ndarray]:
            # Each restart optimizes a private kernel copy, so threaded
            # workers never race on shared hyperparameter state and the
            # result matches the serial loop bit-for-bit.
            res = minimize(self._nll_and_grad, start,
                           args=(copy.deepcopy(self.kernel),), jac=True,
                           method="L-BFGS-B", bounds=bounds,
                           options={"maxiter": 100})
            return float(res.fun), res.x

        results = parallel_map(_run_start, starts, n_jobs=self.n_jobs,
                               backend="thread", tracer=self.tracer)
        best_theta, best_nll = self.kernel.theta, np.inf
        for fun, x in results:
            if fun < best_nll:
                best_nll, best_theta = fun, x
        self.kernel.theta = best_theta

    @property
    def X_train_(self) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("GP is not fitted")
        return self._X

    @property
    def y_train_(self) -> np.ndarray:
        """Training targets in original (denormalized) units."""
        if not self._fitted:
            raise RuntimeError("GP is not fitted")
        return self._y * self._y_std + self._y_mean


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
    n_jobs:
        Workers for the multi-start likelihood optimization (``None``
        defers to ``ROBOTUNE_JOBS``).  Each restart runs on a private
        kernel copy and winners are chosen in start order, so the fitted
        model is identical for any worker count.
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
                self._weights = cho_solve(self._chol, self._y)
            return self
        with self.tracer.timer("gp.fit"):
            extended = self._extend_cholesky(X[n_old:])
            if extended:
                self._X = X
                self._normalize_targets(y)
                self._weights = cho_solve(self._chol, self._y)
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
        L = self._chol[0]
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
        self._chol = (c, True)
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

        Operates on *kernel* when given (a private copy during parallel
        multi-start), else mutates ``self.kernel`` in place.
        """
        kernel = self.kernel if kernel is None else kernel
        kernel.theta = theta
        K = self._K_train(kernel) + self.alpha * np.eye(self._X.shape[0])
        try:
            L = cho_factor(K, lower=True)
        except np.linalg.LinAlgError:
            return 1e25
        a = cho_solve(L, self._y)
        n = self._X.shape[0]
        logdet = 2.0 * float(np.sum(np.log(np.diag(L[0]))))
        return 0.5 * float(self._y @ a) + 0.5 * logdet + 0.5 * n * _LOG_2PI

    def _nll_and_grad(self, theta: np.ndarray, kernel: Kernel
                      ) -> tuple[float, np.ndarray]:
        """Negative log marginal likelihood and its exact theta-gradient.

        One fused call shares a single covariance build and Cholesky
        between the value and all partial derivatives, using the trace
        identity (Rasmussen & Williams, eq. 5.9)

        ``∂NLL/∂θ_j = ½ tr((K⁻¹ − ααᵀ) ∂K/∂θ_j)``,  ``α = K⁻¹ y``.
        """
        kernel.theta = theta
        n = self._X.shape[0]
        K, grads = kernel.value_and_theta_gradient(self._X, d2=self._d2)
        K[np.diag_indices_from(K)] += self.alpha
        try:
            L = cho_factor(K, lower=True)
        except np.linalg.LinAlgError:
            return 1e25, np.zeros(len(theta))
        a = cho_solve(L, self._y)
        logdet = 2.0 * float(np.sum(np.log(np.diag(L[0]))))
        nll = 0.5 * float(self._y @ a) + 0.5 * logdet + 0.5 * n * _LOG_2PI
        # M = K⁻¹ − ααᵀ turns every partial into one O(n²) contraction.
        M = cho_solve(L, np.eye(n), check_finite=False)
        M -= np.outer(a, a)
        grad = np.array([0.5 * np.sum(M * G) for G in grads])
        return nll, grad

    def _precompute(self) -> None:
        K = self._K_train() + self.alpha * np.eye(self._X.shape[0])
        # Escalate jitter if the optimized kernel is barely positive definite.
        jitter = self.alpha if self.alpha > 0 else 1e-10
        for _ in range(8):
            try:
                self._chol = cho_factor(K + 0.0, lower=True)
                break
            except np.linalg.LinAlgError:
                K = K + jitter * np.eye(K.shape[0])
                jitter *= 10.0
        else:  # pragma: no cover - pathological kernels only
            raise np.linalg.LinAlgError("covariance matrix not positive definite")
        self._theta_chol = self.kernel.theta.copy()
        self._weights = cho_solve(self._chol, self._y)

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
        v = cho_solve(self._chol, Ks.T)
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
        v = cho_solve(self._chol, Ks.T, check_finite=False)
        var = self.kernel.latent_diag(X) - np.einsum("ij,ji->i", Ks, v)
        var = np.maximum(var, 1e-12)
        std = np.sqrt(var) * self._y_std
        return mean, std

    def predict_with_gradient(self, x: np.ndarray
                              ) -> tuple[float, float, np.ndarray, np.ndarray]:
        """Posterior mean/std at a single point plus their input gradients.

        Returns ``(mu, sigma, dmu, dsigma)`` where the gradients are
        ``∂μ/∂x`` and ``∂σ/∂x``, each of shape ``(d,)``:

        ``∂μ/∂x = (∂k/∂x)ᵀ K⁻¹y`` and ``∂σ²/∂x = −2 (K⁻¹k)ᵀ ∂k/∂x``
        (every stationary kernel in this package has an input-independent
        prior variance, so ``latent_diag`` contributes nothing).  When the
        variance hits the numerical floor the σ-gradient is zeroed, making
        it consistent with the clipped value :meth:`predict` returns.
        Mean and std match :meth:`fast_predict` bit-for-bit.
        """
        if not self._fitted:
            raise RuntimeError("GP is not fitted")
        x = np.asarray(x, dtype=float)
        xq = x[None, :]
        # Mean/std arithmetic mirrors fast_predict exactly (same shapes,
        # same reductions) so both entry points return the same bits.
        Ks = self.kernel(xq, self._X)
        mean = Ks @ self._weights
        mean = mean * self._y_std + self._y_mean
        v = cho_solve(self._chol, Ks.T, check_finite=False)
        var = self.kernel.latent_diag(xq) - np.einsum("ij,ji->i", Ks, v)
        clipped = var[0] < 1e-12
        var = np.maximum(var, 1e-12)
        std = np.sqrt(var) * self._y_std
        dk = self.kernel.input_gradient(x, self._X)
        dmu = (dk.T @ self._weights) * self._y_std
        if clipped:
            dsigma = np.zeros_like(x)
        else:
            dvar = -2.0 * (dk.T @ v[:, 0])
            dsigma = dvar / (2.0 * float(np.sqrt(var[0]))) * self._y_std
        return float(mean[0]), float(std[0]), dmu, dsigma
