"""Acquisition functions for minimization (paper §3.4, eqs. 2-4).

All three are expressed as *utilities to maximize* over candidate points,
with the paper's adaptation to minimizing execution time:

* ``PI(x) = P(f(x) <= f(x+) - xi) = Phi(d / sigma(x))``
* ``EI(x) = d Phi(d/sigma) + sigma phi(d/sigma)`` (0 where sigma = 0)
* ``LCB(x) = mu(x) - kappa sigma(x)`` — the point with the lowest bound is
  most promising, so its utility is ``-LCB``.

where ``d = f(x+) - mu(x) - xi``, ``Phi``/``phi`` are the standard normal
CDF/PDF, and ``xi``/``kappa`` trade exploration against exploitation
(paper defaults: xi = 0.01, kappa = 1.96).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np
from scipy.special import ndtr

__all__ = ["AcquisitionFunction", "ProbabilityOfImprovement",
           "ExpectedImprovement", "LowerConfidenceBound",
           "DEFAULT_XI", "DEFAULT_KAPPA"]

DEFAULT_XI = 0.01
DEFAULT_KAPPA = 1.96

_EPS = 1e-12

_SQRT_2PI = np.sqrt(2 * np.pi)


def _norm_pdf(z) -> np.ndarray:
    """Standard normal density, bit-for-bit what ``scipy.stats.norm.pdf``
    returns (its ``_norm_pdf`` after exact ``(z - 0)/1`` steps).

    *z* is taken as an array (0-d for a scalar) so NumPy's array
    ``square`` and ``exp`` loops run, as they do inside scipy.stats; a
    Python-float ``**`` would call C ``pow`` instead.  NaN gives NaN and
    ``±inf`` gives 0.0.  ``norm.cdf`` likewise reduces to ``ndtr``, which
    maps NaN, ``+inf`` and ``-inf`` to NaN, 1.0 and 0.0 as it does.
    """
    z = np.asarray(z, dtype=float)
    return np.exp(-z**2/2.0) / _SQRT_2PI


class AcquisitionFunction(ABC):
    """Utility of candidate points under a GP posterior (maximize)."""

    name: str = ""

    @abstractmethod
    def __call__(self, mu: np.ndarray, sigma: np.ndarray,
                 f_best: float) -> np.ndarray:
        """Utility for candidates with posterior mean *mu*, std *sigma*,
        given the best (lowest) observed objective *f_best*.

        Inputs are expected in a standardized objective scale so the
        ``xi``/``kappa`` knobs keep their published meaning across
        workloads with wildly different magnitudes.
        """

    def value_and_gradient(self, mu: float, sigma: float, dmu: np.ndarray,
                           dsigma: np.ndarray, f_best: float
                           ) -> tuple[float, np.ndarray]:
        """Utility at one point and its closed-form gradient with respect
        to the input point, sharing their intermediates.

        *mu*/*sigma* are the scalar posterior moments at the point and
        *dmu*/*dsigma* their input gradients (shape ``(d,)``, e.g. from
        ``GaussianProcessRegressor.predict_with_gradient``); the chain
        rule turns them into ``∂utility/∂u``.  The value has the bits
        ``__call__`` gives for the one-point arrays.  Where the utility
        is piecewise-flat in ``sigma <= eps`` regions the gradient is
        zero, matching the clipped values ``__call__`` returns.
        """
        raise NotImplementedError


class ProbabilityOfImprovement(AcquisitionFunction):
    """Eq. 2: probability of improving on the incumbent by at least xi."""

    name = "PI"

    def __init__(self, xi: float = DEFAULT_XI):
        self.xi = float(xi)

    def __call__(self, mu, sigma, f_best):
        mu = np.asarray(mu, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        d = f_best - mu - self.xi
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(sigma > _EPS, d / np.maximum(sigma, _EPS), np.nan)
        out = ndtr(z)
        # Deterministic points improve with probability 0 or 1.
        out = np.where(sigma > _EPS, out, (d > 0).astype(float))
        return out

    def value_and_gradient(self, mu, sigma, dmu, dsigma, f_best):
        # PI = Φ(z), z = (f_best − μ − ξ)/σ  ⇒  ∇PI = φ(z)(−∇μ − z∇σ)/σ.
        d = f_best - mu - self.xi
        if not sigma > _EPS:
            return float(d > 0), np.zeros_like(dmu)
        z = d / sigma
        return (float(ndtr(z)),
                _norm_pdf(z) * (-dmu - z * dsigma) / sigma)


class ExpectedImprovement(AcquisitionFunction):
    """Eq. 3: expected improvement over the incumbent."""

    name = "EI"

    def __init__(self, xi: float = DEFAULT_XI):
        self.xi = float(xi)

    def __call__(self, mu, sigma, f_best):
        mu = np.asarray(mu, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        d = f_best - mu - self.xi
        with np.errstate(divide="ignore", invalid="ignore"):
            z = d / np.maximum(sigma, _EPS)
        ei = d * ndtr(z) + sigma * _norm_pdf(z)
        return np.where(sigma > _EPS, np.maximum(ei, 0.0), 0.0)

    def value_and_gradient(self, mu, sigma, dmu, dsigma, f_best):
        # EI = dΦ(z) + σφ(z) with d = f_best − μ − ξ, z = d/σ.  The φ′
        # terms cancel (d − σz = 0), leaving ∇EI = −Φ(z)∇μ + φ(z)∇σ.
        if not sigma > _EPS:
            return 0.0, np.zeros_like(dmu)
        d = f_best - mu - self.xi
        z = d / sigma
        cdf, pdf = ndtr(z), _norm_pdf(z)
        return (float(np.maximum(d * cdf + sigma * pdf, 0.0)),
                -cdf * dmu + pdf * dsigma)


class LowerConfidenceBound(AcquisitionFunction):
    """Eq. 4: optimistic lower bound; utility is its negation."""

    name = "LCB"

    def __init__(self, kappa: float = DEFAULT_KAPPA):
        if kappa < 0:
            raise ValueError("kappa must be non-negative")
        self.kappa = float(kappa)

    def __call__(self, mu, sigma, f_best):
        mu = np.asarray(mu, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        return -(mu - self.kappa * sigma)

    def value_and_gradient(self, mu, sigma, dmu, dsigma, f_best):
        # Utility is −μ + κσ, linear in the posterior moments.
        return float(-(mu - self.kappa * sigma)), -dmu + self.kappa * dsigma
