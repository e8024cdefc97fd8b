"""Reference kernel Jacobians and the posterior gradient built on them.

``input_gradient`` holds each kernel class's input Jacobian written on
its own: composites re-evaluate their children's rows instead of taking
them from ``value_and_input_gradient``.  ``predict_with_gradient``
computes a fitted regressor's posterior and its input gradients the
same way, with the kernel row from a separate ``kernel(x[None], X)``
call and scipy.linalg's ``cho_solve`` for the exact GP's solve.  Tests
pin the library's fused hook and LAPACK calls to these bit-for-bit, and
``benchmarks/test_perf_smoke.py`` times them as the reference refine
evaluation.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from repro.gp import (ConstantKernel, GaussianProcessRegressor,
                      LowRankGaussianProcessRegressor, Matern52, Product, Sum,
                      WhiteKernel)

__all__ = ["input_gradient", "predict_with_gradient"]


def input_gradient(kernel, x: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Jacobian ``∂k(x, X_j)/∂x``, shape ``(n, d)``."""
    if isinstance(kernel, (ConstantKernel, WhiteKernel)):
        return np.zeros((X.shape[0], x.shape[0]))
    if isinstance(kernel, Matern52):
        diff = x[None, :] - X
        r = np.sqrt(np.sum(diff ** 2, axis=1))
        s = math.sqrt(5.0) * r / kernel.length_scale
        coef = -(5.0 / (3.0 * kernel.length_scale ** 2)) * (1.0 + s) \
            * np.exp(-s)
        return coef[:, None] * diff
    if isinstance(kernel, Sum):
        return input_gradient(kernel.k1, x, X) \
            + input_gradient(kernel.k2, x, X)
    if isinstance(kernel, Product):
        xq = x[None, :]
        k1 = kernel.k1(xq, X)[0]
        k2 = kernel.k2(xq, X)[0]
        g1 = input_gradient(kernel.k1, x, X)
        g2 = input_gradient(kernel.k2, x, X)
        return g1 * k2[:, None] + k1[:, None] * g2
    raise TypeError(f"no reference Jacobian for {type(kernel).__name__}")


def predict_with_gradient(gp, x: np.ndarray
                          ) -> tuple[float, float, np.ndarray, np.ndarray]:
    """``gp.predict_with_gradient(x)`` for either regressor, from a
    separate kernel row, :func:`input_gradient` and (exact GP)
    ``cho_solve`` on the regressor's factor."""
    x = np.asarray(x, dtype=float)
    xq = x[None, :]
    if isinstance(gp, LowRankGaussianProcessRegressor):
        return _lowrank_predict_with_gradient(gp, x, xq)
    assert isinstance(gp, GaussianProcessRegressor)
    Ks = gp.kernel(xq, gp._X)
    mean = Ks @ gp._weights
    mean = mean * gp._y_std + gp._y_mean
    v = cho_solve((gp._chol, True), Ks.T, check_finite=False)
    var = gp.kernel.latent_diag(xq) - np.einsum("ij,ji->i", Ks, v)
    clipped = var[0] < 1e-12
    var = np.maximum(var, 1e-12)
    std = np.sqrt(var) * gp._y_std
    dk = input_gradient(gp.kernel, x, gp._X)
    dmu = (dk.T @ gp._weights) * gp._y_std
    if clipped:
        dsigma = np.zeros_like(x)
    else:
        dvar = -2.0 * (dk.T @ v[:, 0])
        dsigma = dvar / (2.0 * float(np.sqrt(var[0]))) * gp._y_std
    return float(mean[0]), float(std[0]), dmu, dsigma


def _lowrank_predict_with_gradient(gp, x, xq):
    Ks = gp.kernel(xq, gp._Z)
    mean = Ks @ gp._weights
    a = solve_triangular(gp._Lm, Ks.T, lower=True, check_finite=False)
    t = solve_triangular(gp._LB, a, lower=True, check_finite=False)
    var = gp.kernel.latent_diag(xq) - np.sum(a ** 2, axis=0) \
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
