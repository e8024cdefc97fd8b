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

from .gpr import _LikelihoodGP, _potrf, _potrs, _trtrs
from .kernels import Matern52, _sq_norms, scaled_distances

__all__ = ["LowRankGaussianProcessRegressor", "select_inducing"]

_LOG_2PI = math.log(2.0 * math.pi)

#: Conditional-variance floor below which greedy selection stops early:
#: remaining points are numerically inside the span of the chosen set.
_SELECT_FLOOR = 1e-12


def select_inducing(kernel: Matern52, X: np.ndarray, m: int) -> np.ndarray:
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
    d = np.full(n, kernel.variance)
    rows = np.empty((m, n))
    xx = _sq_norms(X)
    chosen: list[int] = []
    for j in range(m):
        i = int(np.argmax(d))
        if d[i] <= _SELECT_FLOOR:
            break
        col = kernel.latent(scaled_distances(X, X[i:i + 1], xx))[:, 0]
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

    def __init__(self, kernel: Matern52 | None = None, *,
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
        # Scaled distances are hyperparameter-free: one computation
        # serves every likelihood evaluation and the factorization.
        self._Smm = scaled_distances(self._Z, self._Z)
        self._Smn = scaled_distances(self._Z, X)

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

    def _lam(self, noise: float) -> float:
        """Observation-noise variance Λ at kernel noise *noise*: the
        noise plus the jitter ``alpha``, the same for every point."""
        return max(noise + self.alpha, _SELECT_FLOOR)

    def _factor(self, jitter: float):
        """Shared SoR factorization at the kernel's current theta.

        Returns ``(Lm, V, LB, lam)`` where ``Lm = chol(Kmm + jitter·I)``,
        ``V = Lm⁻¹Kmn``, scaled by ``Λ^{-1/2}``, forms ``B = I +
        VΛ⁻¹Vᵀ`` with ``LB = chol(B)``.  Raises
        ``np.linalg.LinAlgError`` if Kmm is not positive definite at this
        jitter level.
        """
        Kmm = self.kernel.latent(self._Smm)
        Kmm[np.diag_indices_from(Kmm)] += jitter
        Lm = np.linalg.cholesky(Kmm)
        V = _trtrs(Lm, self.kernel.latent(self._Smn), check_finite=False)
        lam = self._lam(self.kernel.noise)
        Vs = V / math.sqrt(lam)
        B = Vs @ Vs.T
        B[np.diag_indices_from(B)] += 1.0
        LB = np.linalg.cholesky(B)
        return Lm, V, LB, lam

    def _nll_and_grad(self, theta: np.ndarray):
        """NLL and its exact theta-gradient, the exact regressor's
        contract: one ``(3,)`` theta gives ``(nll, grad)``, a ``(k, 3)``
        stack ``(k,)`` values and ``(k, 3)`` gradients.  The starts of a
        stack are evaluated one by one."""
        if np.ndim(theta) == 1:
            return self._start_nll_and_grad(np.asarray(theta, dtype=float))
        pairs = [self._start_nll_and_grad(t) for t in theta]
        return (np.array([nll for nll, _ in pairs]),
                np.array([grad for _, grad in pairs]))

    def _start_nll_and_grad(self, theta: np.ndarray
                            ) -> tuple[float, np.ndarray]:
        """NLL of the SoR model and its exact theta-gradient in O(n·m²).

        ``NLL = ½[yᵀQσ⁻¹y + log|Qσ| + n log 2π]`` with
        ``Qσ = KnmKmm⁻¹Kmn + ΛI``; both terms reduce to the m×m factor B
        via the matrix-inversion and determinant lemmas:
        ``log|Qσ| = log|B| + n log Λ`` and
        ``yᵀQσ⁻¹y = yᵀy/Λ − ‖LB⁻¹VΛ⁻¹y‖²``.

        The trace identity ``∂NLL/∂θ = ½ tr(P ∂Qσ/∂θ)`` with
        ``P = Qσ⁻¹ − ααᵀ`` is contracted against the low-rank structure
        ``∂Qσ/∂θ = ĠᵀA + AᵀĠ − AᵀK̇mmA + λ̇I`` (``A = Kmm⁻¹Kmn``)
        without ever forming an n×n matrix: the pieces become
        elementwise sums against ``AP`` (m×n), ``APAᵀ`` (m×m) and
        ``diag(P)`` (n).  ``∂/∂log c`` of a latent block is the block
        itself, ``∂/∂log ℓ`` comes from the kernel, and only Λ moves
        with ``log σ²``.
        """
        jitter = self.alpha if self.alpha > 0 else 1e-10
        t = theta[None]
        Kmm, dKmm = (a[0] for a in
                     self.kernel.latent_and_length_gradient(self._Smm, t))
        Kj = Kmm.copy()
        Kj[np.diag_indices_from(Kj)] += jitter
        try:
            Lm = np.linalg.cholesky(Kj)
        except np.linalg.LinAlgError:
            return 1e25, np.zeros(len(theta))
        Kmn, dKmn = (a[0] for a in
                     self.kernel.latent_and_length_gradient(self._Smn, t))
        noise = float(np.exp(theta[2]))
        lam = self._lam(noise)
        sqrt_lam = math.sqrt(lam)
        V = _trtrs(Lm, Kmn, check_finite=False)
        Vs = V / sqrt_lam
        B = Vs @ Vs.T
        B[np.diag_indices_from(B)] += 1.0
        LB_factor = _potrf(B)
        LB = np.tril(LB_factor)

        n = self._X.shape[0]
        yt = self._y / sqrt_lam
        beta = Vs @ yt
        gamma = _trtrs(LB, beta, check_finite=False)
        logdet = 2.0 * float(np.sum(np.log(np.diag(LB)))) \
            + n * math.log(lam)
        quad = float(yt @ yt) - float(gamma @ gamma)
        nll = 0.5 * (quad + logdet + n * _LOG_2PI)

        # α = Qσ⁻¹y = (y − Kmnᵀ w)/Λ with w = Lm⁻ᵀB⁻¹VΛ⁻¹y.
        c = _potrs(LB_factor, beta, check_finite=False)
        w = _trtrs(Lm, c, trans=1, check_finite=False)
        alpha_vec = (self._y - Kmn.T @ w) / lam
        # A = Kmm⁻¹Kmn and AP = AQσ⁻¹ − (Aα)αᵀ, both m×n.
        A = _trtrs(Lm, V, trans=1, check_finite=False)
        D = A / lam
        G1 = D @ Kmn.T
        R = _trtrs(
            Lm, _potrs(LB_factor, V / lam, check_finite=False),
            trans=1, check_finite=False)
        AP = D - G1 @ R - np.outer(A @ alpha_vec, alpha_vec)
        W = AP @ A.T
        # diag(P) = 1/Λ − colsum((LB⁻¹V)²)/Λ² − α².
        U = _trtrs(LB, V, check_finite=False)
        diag_p = 1.0 / lam - np.sum(U ** 2, axis=0) / lam ** 2 \
            - alpha_vec ** 2
        grad = np.array([
            float(np.sum(AP * Kmn)) - 0.5 * float(np.sum(W * Kmm)),
            float(np.sum(AP * dKmn)) - 0.5 * float(np.sum(W * dKmm)),
            0.5 * noise * float(diag_p.sum())])
        return nll, grad

    def _precompute(self) -> None:
        jitter = self.alpha if self.alpha > 0 else 1e-10
        for _ in range(8):
            try:
                Lm, V, LB, lam = self._factor(jitter)
                break
            except np.linalg.LinAlgError:
                jitter *= 10.0
        else:  # pragma: no cover - pathological kernels only
            raise np.linalg.LinAlgError(
                "inducing covariance not positive definite")
        self._Lm, self._LB = Lm, LB
        yt = self._y / math.sqrt(lam)
        beta = (V / math.sqrt(lam)) @ yt
        c = _trtrs(LB, beta, check_finite=False)
        c = _trtrs(LB, c, trans=1, check_finite=False)
        # Mean weights in inducing space: μ(x) = k(x, Z)ᵀ w.
        self._weights = _trtrs(Lm, c, trans=1, check_finite=False)
        self._theta_chol = self.kernel.theta.copy()

    # -- prediction ---------------------------------------------------------------
    def _latent_var(self, Ks: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """DTC variance of the latent objective for the cross covariance
        rows ``Ks = k(X, Z)``.

        ``var = c − ‖Lm⁻¹k*‖² + ‖LB⁻¹Lm⁻¹k*‖²`` — prior variance minus
        the Nyström explained part, plus the posterior uncertainty of the
        inducing values; far from data it approaches the prior variance
        like the exact GP's.  Also returns the two triangular solves for
        gradient reuse.
        """
        a = _trtrs(self._Lm, Ks.T, check_finite=False)
        t = _trtrs(self._LB, a, check_finite=False)
        var = self.kernel.variance - np.sum(a ** 2, axis=0) \
            + np.sum(t ** 2, axis=0)
        return var, a, t

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
        Ks = self.kernel(X, self._Z)
        mean = Ks @ self._weights
        mean = mean * self._y_std + self._y_mean
        if not return_std:
            return mean
        var, _, _ = self._latent_var(Ks)
        var = np.maximum(var, 1e-12)
        std = np.sqrt(var) * self._y_std
        return mean, std

    def fast_predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean and std without validation or counters.  Arithmetic
        identical to :meth:`predict`."""
        Ks = self.kernel(X, self._Z)
        mean = Ks @ self._weights
        mean = mean * self._y_std + self._y_mean
        var, _, _ = self._latent_var(Ks)
        var = np.maximum(var, 1e-12)
        std = np.sqrt(var) * self._y_std
        return mean, std

    def predict_with_gradient(self, x: np.ndarray):
        """Mean/std plus their input gradients, at one ``(d,)`` point or
        a ``(k, d)`` block.

        Same return contract as the exact regressor: ``(mu, sigma, dmu,
        dsigma)`` with the σ-gradient zeroed when the variance hits the
        numerical floor.
        """
        if not self._fitted:
            raise RuntimeError("GP is not fitted")
        x = np.asarray(x, dtype=float)
        xq = np.atleast_2d(x)
        # One kernel pass gives the rows and their Jacobians.
        k, dk = self.kernel.value_and_input_gradient(xq, self._Z)
        mean = k @ self._weights
        mean = mean * self._y_std + self._y_mean
        var, a, t = self._latent_var(k)
        clipped = var < 1e-12
        var = np.maximum(var, 1e-12)
        std = np.sqrt(var) * self._y_std
        dmu = (dk.transpose(0, 2, 1) @ self._weights) * self._y_std
        # The Jacobians side by side as the right-hand sides of one
        # solve per factor, then back to one (d, m) block per point.
        q, m, d = dk.shape
        rhs = dk.transpose(1, 0, 2).reshape(m, q * d)
        g = _trtrs(self._Lm, rhs, check_finite=False)
        h = _trtrs(self._LB, g, check_finite=False)
        gT = g.reshape(m, q, d).transpose(1, 2, 0)
        hT = h.reshape(m, q, d).transpose(1, 2, 0)
        dvar = -2.0 * (gT @ a.T[:, :, None])[:, :, 0] \
            + 2.0 * (hT @ t.T[:, :, None])[:, :, 0]
        dsigma = dvar / (2.0 * np.sqrt(var))[:, None] * self._y_std
        dsigma[clipped] = 0.0
        if x.ndim == 1:
            return float(mean[0]), float(std[0]), dmu[0], dsigma[0]
        return mean, std, dmu, dsigma

    @property
    def inducing_indices_(self) -> np.ndarray:
        """Row indices of the training points used as inducing points."""
        if not self._fitted:
            raise RuntimeError("GP is not fitted")
        return self._inducing
