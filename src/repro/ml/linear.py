"""L1/L2-regularized linear regression via cyclic coordinate descent.

Implements Lasso and ElasticNet (Friedman, Hastie & Tibshirani, 2010) —
the two linear baselines the paper compares against tree ensembles in
Figure 2.  Features and target are internally centred (and features
optionally scaled) so the intercept is handled exactly.
"""

from __future__ import annotations

import numpy as np

from .metrics import r2_score

__all__ = ["Lasso", "ElasticNet"]


def _soft_threshold(z: float, gamma: float) -> float:
    """The soft-thresholding operator S(z, gamma)."""
    if z > gamma:
        return z - gamma
    if z < -gamma:
        return z + gamma
    return 0.0


class ElasticNet:
    """Linear model with combined L1 and L2 penalties.

    Minimizes ``(1 / 2n) ||y - Xw||² + alpha * l1_ratio * ||w||₁
    + 0.5 * alpha * (1 - l1_ratio) * ||w||²``.

    Parameters
    ----------
    alpha:
        Overall regularization strength.
    l1_ratio:
        Mix between L1 (1.0 = Lasso) and L2 (0.0 = ridge-like).
    max_iter, tol:
        Coordinate-descent sweep budget and convergence threshold on the
        maximum coefficient update.
    normalize:
        Scale features to unit standard deviation before fitting
        (coefficients are rescaled back).
    """

    def __init__(self, alpha: float = 1.0, *, l1_ratio: float = 0.5,
                 max_iter: int = 1000, tol: float = 1e-6,
                 normalize: bool = True):
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        if not 0.0 <= l1_ratio <= 1.0:
            raise ValueError("l1_ratio must be in [0, 1]")
        self.alpha = alpha
        self.l1_ratio = l1_ratio
        self.max_iter = max_iter
        self.tol = tol
        self.normalize = normalize
        self._fitted = False

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ElasticNet":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if y.shape != (X.shape[0],):
            raise ValueError("y must be 1-D with len(y) == len(X)")
        n, p = X.shape
        x_mean = X.mean(axis=0)
        y_mean = float(y.mean())
        Xc = X - x_mean
        if self.normalize:
            x_scale = Xc.std(axis=0)
            x_scale[x_scale == 0.0] = 1.0
        else:
            x_scale = np.ones(p)
        Xc = Xc / x_scale
        yc = y - y_mean

        w = np.zeros(p)
        resid = yc.copy()  # resid = yc - Xc @ w, maintained incrementally
        col_sq = np.einsum("ij,ij->j", Xc, Xc) / n
        l1 = self.alpha * self.l1_ratio
        l2 = self.alpha * (1.0 - self.l1_ratio)
        self.n_iter_ = 0
        for sweep in range(self.max_iter):
            max_delta = 0.0
            for j in range(p):
                if col_sq[j] == 0.0:
                    continue
                wj = w[j]
                # Partial residual correlation for coordinate j.
                rho = float(Xc[:, j] @ resid) / n + col_sq[j] * wj
                new_wj = _soft_threshold(rho, l1) / (col_sq[j] + l2)
                delta = new_wj - wj
                if delta != 0.0:
                    resid -= delta * Xc[:, j]
                    w[j] = new_wj
                    max_delta = max(max_delta, abs(delta))
            self.n_iter_ = sweep + 1
            if max_delta <= self.tol:
                break

        self.coef_ = w / x_scale
        self.intercept_ = y_mean - float(self.coef_ @ x_mean)
        self.n_features_ = p
        self._fitted = True
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for each row of *X*."""
        if not self._fitted:
            raise RuntimeError(f"{type(self).__name__} is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(f"X must have shape (n, {self.n_features_})")
        return X @ self.coef_ + self.intercept_

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """R² of :meth:`predict` on the given data."""
        return r2_score(np.asarray(y, dtype=float), self.predict(X))


class Lasso(ElasticNet):
    """L1-only special case of :class:`ElasticNet` (``l1_ratio = 1``)."""

    def __init__(self, alpha: float = 1.0, *, max_iter: int = 1000,
                 tol: float = 1e-6, normalize: bool = True):
        super().__init__(alpha, l1_ratio=1.0, max_iter=max_iter, tol=tol,
                         normalize=normalize)
