"""Reference kernel rows, Jacobians and the posterior gradient built on them.

The kernel's formulas written out on their own, reading only the
kernel's three hyperparameters: ``covariance`` is the latent
``c·Matérn`` cross covariance, ``input_gradient`` its Jacobian in the
query point, each from its own distance computation.
``predict_with_gradient`` computes a fitted regressor's posterior and
its input gradients from them, with scipy.linalg's ``solve_triangular``
for every solve.  Tests pin the library's fused hook and LAPACK calls
to these bit for bit, and ``benchmarks/test_perf_smoke.py`` times them
as the reference refine evaluation.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular

from repro.gp import GaussianProcessRegressor, LowRankGaussianProcessRegressor

__all__ = ["covariance", "input_gradient", "predict_with_gradient"]


def _scaled(kernel, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``s = √5·‖x − y‖/ℓ`` between the rows of X and Y."""
    d2 = np.sum(X ** 2, axis=1)[:, None] + np.sum(Y ** 2, axis=1)[None, :] \
        - 2.0 * (X @ Y.T)
    return math.sqrt(5.0) * np.sqrt(np.maximum(d2, 0.0)) / kernel.length_scale


def covariance(kernel, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Latent cross covariance ``c·(1 + s + s²/3)e^{−s}``."""
    s = _scaled(kernel, X, Y)
    return (1.0 + s + s * s / 3.0) * (kernel.variance * np.exp(-s))


def input_gradient(kernel, x: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Jacobian ``∂k(x, X_j)/∂x = −(5c/3ℓ²)(1 + s)e^{−s}(x − X_j)``,
    shape ``(n, d)``."""
    s = _scaled(kernel, x[None, :], X)[0]
    coef = (-5.0 / (3.0 * kernel.length_scale ** 2)) * (1.0 + s) \
        * (kernel.variance * np.exp(-s))
    return coef[:, None] * (x[None, :] - X)


def predict_with_gradient(gp, x: np.ndarray
                          ) -> tuple[float, float, np.ndarray, np.ndarray]:
    """``gp.predict_with_gradient(x)`` for either regressor, from
    :func:`covariance`, :func:`input_gradient` and ``solve_triangular``
    on the regressor's factors."""
    x = np.asarray(x, dtype=float)
    xq = x[None, :]
    if isinstance(gp, LowRankGaussianProcessRegressor):
        return _lowrank_predict_with_gradient(gp, x, xq)
    assert isinstance(gp, GaussianProcessRegressor)
    Ks = covariance(gp.kernel, xq, gp._X)
    mean = Ks @ gp._weights
    mean = mean * gp._y_std + gp._y_mean
    a = solve_triangular(gp._chol, Ks.T, lower=True, check_finite=False)
    var = gp.kernel.variance - np.einsum("ij,ij->j", a, a)
    clipped = var[0] < 1e-12
    var = np.maximum(var, 1e-12)
    std = np.sqrt(var) * gp._y_std
    dk = input_gradient(gp.kernel, x, gp._X)
    dmu = (dk.T @ gp._weights) * gp._y_std
    if clipped:
        dsigma = np.zeros_like(x)
    else:
        u = solve_triangular(gp._chol, a, lower=True, trans="T",
                             check_finite=False)
        dvar = -2.0 * (dk.T @ u[:, 0])
        dsigma = dvar / (2.0 * float(np.sqrt(var[0]))) * gp._y_std
    return float(mean[0]), float(std[0]), dmu, dsigma


def _lowrank_predict_with_gradient(gp, x, xq):
    Ks = covariance(gp.kernel, xq, gp._Z)
    mean = Ks @ gp._weights
    a = solve_triangular(gp._Lm, Ks.T, lower=True, check_finite=False)
    t = solve_triangular(gp._LB, a, lower=True, check_finite=False)
    var = gp.kernel.variance - np.sum(a ** 2, axis=0) \
        + np.sum(t ** 2, axis=0)
    mean = mean * gp._y_std + gp._y_mean
    clipped = var[0] < 1e-12
    var = np.maximum(var, 1e-12)
    std = np.sqrt(var) * gp._y_std
    dk = input_gradient(gp.kernel, x, gp._Z)
    dmu = (dk.T @ gp._weights) * gp._y_std
    if clipped:
        dsigma = np.zeros_like(x)
    else:
        g = solve_triangular(gp._Lm, dk, lower=True, check_finite=False)
        h = solve_triangular(gp._LB, g, lower=True, check_finite=False)
        dvar = -2.0 * (g.T @ a[:, 0]) + 2.0 * (h.T @ t[:, 0])
        dsigma = dvar / (2.0 * float(np.sqrt(var[0]))) * gp._y_std
    return float(mean[0]), float(std[0]), dmu, dsigma
