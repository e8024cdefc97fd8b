"""Low-rank (subset-of-regressors) Gaussian-process regression.

Scales the surrogate past the exact GP's O(n³) fit and O(n·n_cand)
prediction: warm-starting from accumulated journals (LOCAT-style
datasize-aware transfer) means fitting on hundreds-to-thousands of prior
observations, where the dense Cholesky dominates wall time.

The approximation is the classical Nyström / subset-of-regressors (SoR)
family (Quiñonero-Candela & Rasmussen, 2005): m inducing points Z ⊆ X
summarize the training set, the marginal likelihood uses the SoR
covariance ``Q = KnmKmm⁻¹Kmn + diag(Λ)``, and predictions use the DTC
predictive variance (same marginal likelihood, but the variance behaves
like a GP's far from data instead of collapsing to zero — essential for
the exploration term of BO acquisitions).  Fit is O(n·m²), prediction is
O(m²) per point, and at m = n the model reproduces the exact GP's mean,
variance and likelihood (covered by property tests).

Inducing points are chosen by deterministic greedy max-variance —
pivoted-Cholesky selection on the latent kernel — so the same data and
hyperparameters always produce the same model; the optional RNG only
seeds the multi-start likelihood optimization, exactly like the exact
regressor.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .gpr import _LikelihoodGP
from .kernels import Kernel

__all__ = ["LowRankGaussianProcessRegressor", "select_inducing"]

_LOG_2PI = math.log(2.0 * math.pi)

#: Conditional-variance floor below which greedy selection stops early:
#: remaining points are numerically inside the span of the chosen set.
_SELECT_FLOOR = 1e-12


def select_inducing(kernel: Kernel, X: np.ndarray, m: int) -> np.ndarray:
    """Indices of ``min(m, n)`` inducing points via greedy max-variance.

    Pivoted-Cholesky selection on the latent kernel: each step picks the
    point with the largest conditional prior variance given the points
    already chosen, then downdates the remaining variances — equivalent
    to greedily minimizing the Nyström trace error.  Deterministic: ties
    break toward the lowest index and no random numbers are drawn.  Runs
    in O(n·m²) time and O(n·m) memory; kernel columns are computed on
    demand so the full n×n covariance is never formed.
    """
    n = X.shape[0]
    m = min(m, n)
    d = kernel.latent_diag(X).astype(float).copy()
    rows = np.empty((m, n))
    chosen: list[int] = []
    for j in range(m):
        i = int(np.argmax(d))
        if d[i] <= _SELECT_FLOOR:
            break
        col = kernel(X, X[i:i + 1])[:, 0]
        if j:
            col = col - rows[:j].T @ rows[:j, i]
        rows[j] = col / math.sqrt(d[i])
        d -= rows[j] ** 2
        np.maximum(d, 0.0, out=d)
        d[i] = 0.0
        chosen.append(i)
    return np.asarray(chosen, dtype=int)


class LowRankGaussianProcessRegressor(_LikelihoodGP):
    """SoR/DTC approximation of :class:`~repro.gp.GaussianProcessRegressor`.

    Drop-in for the exact regressor: identical constructor semantics plus
    ``n_inducing``, and the full prediction API (``fit`` / ``update`` /
    ``predict`` / ``fast_predict`` / ``predict_with_gradient`` /
    ``log_marginal_likelihood``), so :class:`repro.core.BOEngine`, the
    acquisition portfolio and :class:`repro.core.LocalPenalizer` work
    unchanged.

    Parameters mirror the exact GP (hyperparameters are fit by the same
    multi-start optimizer, on the SoR likelihood's exact gradient);
    additionally:

    n_inducing:
        Maximum number of inducing points m.  Fit costs O(n·m²) and each
        prediction O(m²); at ``m >= n`` the model equals the exact GP.

    ``update`` never re-optimizes hyperparameters and always equals an
    ``optimize=False`` fit from scratch on the concatenated data — with
    an O(n·m²) refit there is nothing to gain from extending a factor,
    and the exact-equality property keeps warm-started sessions
    reproducible.
    """

    def __init__(self, kernel: Kernel | None = None, *,
                 n_inducing: int = 96, **kwargs):
        super().__init__(kernel, **kwargs)
        if n_inducing < 1:
            raise ValueError("n_inducing must be >= 1")
        self.n_inducing = n_inducing

    # -- fitting ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray
            ) -> "LowRankGaussianProcessRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if y.shape != (X.shape[0],):
            raise ValueError("y must be 1-D with len(y) == len(X)")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on empty data")
        self._X = X
        self._normalize_targets(y)
        # Inducing points are chosen once per fit, at the incoming
        # hyperparameters, and held fixed through likelihood optimization:
        # a moving support would make the objective discontinuous.
        self._inducing = select_inducing(self.kernel, X, self.n_inducing)
        self._Z = X[self._inducing]

        optimized = self.optimize and X.shape[0] >= 2
        with self.tracer.timer("gp.fit"):
            if optimized:
                self._optimize_theta()
            self._precompute()
        self._fitted = True
        self.tracer.emit("gp.fit", {"n": int(X.shape[0]),
                                    "optimized": bool(optimized),
                                    "incremental": False,
                                    "theta": self.kernel.theta,
                                    "mode": "lowrank",
                                    "m": int(self._Z.shape[0])})
        return self

    def update(self, X: np.ndarray, y: np.ndarray
               ) -> "LowRankGaussianProcessRegressor":
        """Refit on the (typically extended) data without re-optimizing.

        Exactly equal to ``fit`` with ``optimize=False`` on the same
        arrays — including re-running inducing selection, since appended
        observations can shift which points best summarize the set.
        """
        return self._refit(X, y)

    def _noise_diag(self, kernel: Kernel) -> np.ndarray:
        """Per-point observation-noise variance Λ (white noise + jitter)."""
        lam = kernel.diag(self._X) - kernel.latent_diag(self._X) + self.alpha
        return np.maximum(lam, _SELECT_FLOOR)

    def _factor(self, kernel: Kernel, jitter: float):
        """Shared SoR factorization at the kernel's current theta.

        Returns ``(Lm, V, LB, lam)`` where ``Lm = chol(Kmm + jitter·I)``,
        ``V = Lm⁻¹Kmn`` scaled by ``Λ^{-1/2}`` column-wise is used to form
        ``B = I + VΛ⁻¹Vᵀ`` with ``LB = chol(B)``.  Raises
        ``np.linalg.LinAlgError`` if Kmm is not positive definite at this
        jitter level.
        """
        Z, X = self._Z, self._X
        Kmm = kernel(Z, Z)
        Kmm[np.diag_indices_from(Kmm)] += jitter
        Lm = np.linalg.cholesky(Kmm)
        Kmn = kernel(Z, X)
        V = solve_triangular(Lm, Kmn, lower=True, check_finite=False)
        lam = self._noise_diag(kernel)
        Vs = V / np.sqrt(lam)[None, :]
        B = Vs @ Vs.T
        B[np.diag_indices_from(B)] += 1.0
        LB = np.linalg.cholesky(B)
        return Lm, V, LB, lam

    def _nll(self, theta: np.ndarray, kernel: Kernel | None = None) -> float:
        """Negative log marginal likelihood of the SoR model at *theta*.

        ``NLL = ½[yᵀQσ⁻¹y + log|Qσ| + n log 2π]`` with
        ``Qσ = KnmKmm⁻¹Kmn + diag(Λ)``; both terms reduce to the m×m
        factor B via the matrix-inversion and determinant lemmas:
        ``log|Qσ| = log|B| + Σᵢ log Λᵢ`` and
        ``yᵀQσ⁻¹y = yᵀΛ⁻¹y − ‖LB⁻¹VΛ⁻¹y‖²``.
        """
        kernel = self.kernel if kernel is None else kernel
        kernel.theta = theta
        jitter = self.alpha if self.alpha > 0 else 1e-10
        try:
            Lm, V, LB, lam = self._factor(kernel, jitter)
        except np.linalg.LinAlgError:
            return 1e25
        yt = self._y / np.sqrt(lam)
        beta = (V / np.sqrt(lam)[None, :]) @ yt
        gamma = solve_triangular(LB, beta, lower=True, check_finite=False)
        n = self._X.shape[0]
        logdet = 2.0 * float(np.sum(np.log(np.diag(LB)))) \
            + float(np.sum(np.log(lam)))
        quad = float(yt @ yt) - float(gamma @ gamma)
        return 0.5 * (quad + logdet + n * _LOG_2PI)

    def _nll_and_grad(self, theta: np.ndarray, kernel: Kernel
                      ) -> tuple[float, np.ndarray]:
        """NLL and its exact theta-gradient in O(n·m²) per parameter.

        The trace identity ``∂NLL/∂θ = ½ tr(P ∂Qσ/∂θ)`` with
        ``P = Qσ⁻¹ − ααᵀ`` is contracted against the low-rank structure
        ``∂Qσ/∂θ = ĠᵀA + AᵀĠ − AᵀK̇mmA + diag(λ̇)`` (``A = Kmm⁻¹Kmn``)
        without ever forming an n×n matrix: the three pieces become
        elementwise sums against ``AP`` (m×n), ``APAᵀ`` (m×m) and
        ``diag(P)`` (n).
        """
        kernel.theta = theta
        jitter = self.alpha if self.alpha > 0 else 1e-10
        Z, X = self._Z, self._X
        Kmm, dKmm = kernel.cross_value_and_theta_gradient(Z, Z)
        Kmm[np.diag_indices_from(Kmm)] += jitter
        try:
            Lm = np.linalg.cholesky(Kmm)
        except np.linalg.LinAlgError:
            return 1e25, np.zeros(len(theta))
        Kmn, dKmn = kernel.cross_value_and_theta_gradient(Z, X)
        diag_all, ddiag = kernel.diag_theta_gradient(X)
        latent, dlatent = kernel.latent_diag_theta_gradient(X)
        lam = np.maximum(diag_all - latent + self.alpha, _SELECT_FLOOR)
        dlam = [gd - gl for gd, gl in zip(ddiag, dlatent)]

        sqrt_lam = np.sqrt(lam)
        V = solve_triangular(Lm, Kmn, lower=True, check_finite=False)
        Vs = V / sqrt_lam[None, :]
        B = Vs @ Vs.T
        B[np.diag_indices_from(B)] += 1.0
        LB_factor = cho_factor(B, lower=True)
        LB = np.tril(LB_factor[0])

        n = X.shape[0]
        yt = self._y / sqrt_lam
        beta = Vs @ yt
        gamma = solve_triangular(LB, beta, lower=True, check_finite=False)
        logdet = 2.0 * float(np.sum(np.log(np.diag(LB)))) \
            + float(np.sum(np.log(lam)))
        quad = float(yt @ yt) - float(gamma @ gamma)
        nll = 0.5 * (quad + logdet + n * _LOG_2PI)

        # α = Qσ⁻¹y = (y − Kmnᵀ w)/Λ with w = Lm⁻ᵀB⁻¹VΛ⁻¹y.
        c = cho_solve(LB_factor, beta, check_finite=False)
        w = solve_triangular(Lm, c, lower=True, trans="T", check_finite=False)
        alpha_vec = (self._y - Kmn.T @ w) / lam
        # A = Kmm⁻¹Kmn and AP = AQσ⁻¹ − (Aα)αᵀ, both m×n.
        A = solve_triangular(Lm, V, lower=True, trans="T", check_finite=False)
        D = A / lam[None, :]
        G1 = D @ Kmn.T
        R = solve_triangular(
            Lm, cho_solve(LB_factor, V / lam[None, :], check_finite=False),
            lower=True, trans="T", check_finite=False)
        AP = D - G1 @ R - np.outer(A @ alpha_vec, alpha_vec)
        W = AP @ A.T
        # diag(P) = 1/Λ − colsum((LB⁻¹V)²)/Λ² − α².
        U = solve_triangular(LB, V, lower=True, check_finite=False)
        diag_p = 1.0 / lam - np.sum(U ** 2, axis=0) / lam ** 2 \
            - alpha_vec ** 2
        grad = np.array([
            float(np.sum(AP * g_mn)) - 0.5 * float(np.sum(W * g_mm))
            + 0.5 * float(diag_p @ g_lam)
            for g_mn, g_mm, g_lam in zip(dKmn, dKmm, dlam)])
        return nll, grad

    def _precompute(self) -> None:
        jitter = self.alpha if self.alpha > 0 else 1e-10
        for _ in range(8):
            try:
                Lm, V, LB, lam = self._factor(self.kernel, jitter)
                break
            except np.linalg.LinAlgError:
                jitter *= 10.0
        else:  # pragma: no cover - pathological kernels only
            raise np.linalg.LinAlgError(
                "inducing covariance not positive definite")
        self._Lm, self._LB = Lm, LB
        yt = self._y / np.sqrt(lam)
        beta = (V / np.sqrt(lam)[None, :]) @ yt
        c = solve_triangular(LB, beta, lower=True, check_finite=False)
        c = solve_triangular(LB, c, lower=True, trans="T", check_finite=False)
        # Mean weights in inducing space: μ(x) = k(x, Z)ᵀ w.
        self._weights = solve_triangular(Lm, c, lower=True, trans="T",
                                         check_finite=False)
        self._theta_chol = self.kernel.theta.copy()

    # -- prediction ---------------------------------------------------------------
    def _mean_var(self, X: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Normalized posterior mean and DTC variance at *X*.

        ``var = k** − ‖Lm⁻¹k*‖² + ‖LB⁻¹Lm⁻¹k*‖²`` — prior variance minus
        the Nyström explained part, plus the posterior uncertainty of the
        inducing values; far from data it approaches the prior variance
        like the exact GP's.  Also returns the two triangular solves for
        gradient reuse.
        """
        Ks = self.kernel(X, self._Z)
        mean = Ks @ self._weights
        a = solve_triangular(self._Lm, Ks.T, lower=True, check_finite=False)
        t = solve_triangular(self._LB, a, lower=True, check_finite=False)
        var = self.kernel.latent_diag(X) - np.sum(a ** 2, axis=0) \
            + np.sum(t ** 2, axis=0)
        return mean, var, a, t

    def predict(self, X: np.ndarray, return_std: bool = False):
        """Posterior mean (and optionally std) at *X*; same contract as
        the exact regressor, including the latent-variance convention."""
        if not self._fitted:
            raise RuntimeError("GP is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self._X.shape[1]:
            raise ValueError(f"X must have shape (n, {self._X.shape[1]})")
        self.tracer.count("gp.predict")
        self.tracer.count("gp.predict.points", X.shape[0])
        mean, var, _, _ = self._mean_var(X)
        mean = mean * self._y_std + self._y_mean
        if not return_std:
            return mean
        var = np.maximum(var, 1e-12)
        std = np.sqrt(var) * self._y_std
        return mean, std

    def fast_predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean and std without validation or counters — the refinement
        hot path.  Arithmetic identical to :meth:`predict`."""
        mean, var, _, _ = self._mean_var(X)
        mean = mean * self._y_std + self._y_mean
        var = np.maximum(var, 1e-12)
        std = np.sqrt(var) * self._y_std
        return mean, std

    def predict_with_gradient(self, x: np.ndarray
                              ) -> tuple[float, float, np.ndarray, np.ndarray]:
        """Mean/std at a single point plus their input gradients.

        Same return contract as the exact regressor: ``(mu, sigma, dmu,
        dsigma)`` with the σ-gradient zeroed when the variance hits the
        numerical floor.
        """
        if not self._fitted:
            raise RuntimeError("GP is not fitted")
        x = np.asarray(x, dtype=float)
        xq = x[None, :]
        mean, var, a, t = self._mean_var(xq)
        mean = mean * self._y_std + self._y_mean
        clipped = var[0] < 1e-12
        var = np.maximum(var, 1e-12)
        std = np.sqrt(var) * self._y_std
        dk = self.kernel.input_gradient(x, self._Z)
        dmu = (dk.T @ self._weights) * self._y_std
        if clipped:
            dsigma = np.zeros_like(x)
        else:
            g = solve_triangular(self._Lm, dk, lower=True, check_finite=False)
            h = solve_triangular(self._LB, g, lower=True, check_finite=False)
            dvar = -2.0 * (g.T @ a[:, 0]) + 2.0 * (h.T @ t[:, 0])
            dsigma = dvar / (2.0 * float(np.sqrt(var[0]))) * self._y_std
        return float(mean[0]), float(std[0]), dmu, dsigma

    @property
    def inducing_indices_(self) -> np.ndarray:
        """Row indices of the training points used as inducing points."""
        if not self._fitted:
            raise RuntimeError("GP is not fitted")
        return self._inducing
