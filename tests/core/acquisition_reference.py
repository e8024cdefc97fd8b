"""Acquisition utilities and busy-point penalties on ``scipy.stats.norm``.

The library evaluates the standard normal CDF with ``scipy.special.ndtr``
and its density with a one-line NumPy helper, so that
``scipy.stats`` stays out of the tuner's import path.  These functions
are the same formulas on ``norm.cdf``/``norm.pdf``; tests pin the
library to them bit-for-bit and ``benchmarks/test_perf_smoke.py`` times
them as the reference refine evaluation.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import norm

from repro.core.acquisition import (ExpectedImprovement, LowerConfidenceBound,
                                    ProbabilityOfImprovement)

__all__ = ["utility", "gradient", "penalties"]

_EPS = 1e-12


def utility(acq, mu, sigma, f_best) -> np.ndarray:
    """``acq(mu, sigma, f_best)``."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if isinstance(acq, LowerConfidenceBound):
        return -(mu - acq.kappa * sigma)
    d = f_best - mu - acq.xi
    if isinstance(acq, ProbabilityOfImprovement):
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(sigma > _EPS, d / np.maximum(sigma, _EPS), np.nan)
        out = norm.cdf(z)
        return np.where(sigma > _EPS, out, (d > 0).astype(float))
    assert isinstance(acq, ExpectedImprovement)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = d / np.maximum(sigma, _EPS)
    ei = d * norm.cdf(z) + sigma * norm.pdf(z)
    return np.where(sigma > _EPS, np.maximum(ei, 0.0), 0.0)


def gradient(acq, mu, sigma, dmu, dsigma, f_best) -> np.ndarray:
    """The gradient half of ``acq.value_and_gradient(mu, sigma, dmu,
    dsigma, f_best)`` for scalar moments."""
    if isinstance(acq, LowerConfidenceBound):
        return -dmu + acq.kappa * dsigma
    if sigma <= _EPS:
        return np.zeros_like(dmu)
    z = (f_best - mu - acq.xi) / sigma
    if isinstance(acq, ProbabilityOfImprovement):
        return norm.pdf(z) * (-dmu - z * dsigma) / sigma
    assert isinstance(acq, ExpectedImprovement)
    return -norm.cdf(z) * dmu + norm.pdf(z) * dsigma


def penalties(penalizer, U: np.ndarray) -> np.ndarray:
    """``penalizer.penalties(U)`` from the penalizer's prepared state."""
    U = np.asarray(U, dtype=float)
    out = np.ones(len(U))
    for j in range(len(penalizer._pending)):
        dist = np.linalg.norm(U - penalizer._pending[j], axis=1)
        gap = penalizer._mu[j] - penalizer._f_best
        z = (penalizer._L * dist - gap) / (np.sqrt(2.0) * penalizer._sigma[j])
        out *= norm.cdf(z)
    return out
