"""Busy-point penalization for asynchronous acquisition optimization.

When the BO engine runs asynchronously, some configurations are *in
flight* — dispatched to a worker, outcome unknown.  Proposing the next
point as if they did not exist re-proposes the same region over and over;
the constant-liar trick (fantasize an outcome, refit) fixes that but pays
a GP refactorization per pending point and biases the posterior by
whatever lie was told.

Local penalization (González et al., *Batch Bayesian Optimization via
Local Penalization*, AISTATS 2016) instead multiplies the acquisition
utility by a penalty factor per pending point:

    phi_j(x) = Phi( (L ||x - x_j|| - (mu(x_j) - M)) / (sqrt(2) sigma(x_j)) )

where ``M`` is the best observed (standardized) objective, ``mu/sigma``
the GP posterior at the pending point and ``L`` a Lipschitz estimate of
the objective.  Each factor is ~0 inside the ball around ``x_j`` that the
pending evaluation is expected to resolve (radius ``(mu_j - M)/L``) and
→1 outside it, so the penalized acquisition steers new proposals away
from regions a worker is already exploring — without touching the GP.

Everything here operates on the engine's *standardized* objective scale
(see ``BOEngine._standardized``), where the acquisition functions live.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from ..gp.gpr import GaussianProcessRegressor

__all__ = ["LocalPenalizer"]

#: Lipschitz floor: a flat posterior would give an infinite exclusion
#: radius, pinning the whole space; treat it as "weakly sloped" instead.
_L_FLOOR = 1e-6
#: Posterior-std floor at pending points (a pending point the GP is
#: certain about still needs a finite-width penalty transition).
_SIGMA_FLOOR = 1e-6


class LocalPenalizer:
    """Multiplicative acquisition penalties around in-flight points.

    One instance per proposal: :meth:`prepare` computes the per-pending
    posterior moments and the Lipschitz estimate once, then
    :meth:`penalties` scores any candidate set against them.
    """

    def __init__(self, gp: GaussianProcessRegressor, pending: np.ndarray,
                 y_mean: float, y_std: float, f_best: float):
        """Precompute penalty state for one proposal.

        Parameters
        ----------
        gp:
            The fitted surrogate (raw objective scale).
        pending:
            In-flight points, shape ``(m, d)`` with ``m >= 1``.
        y_mean / y_std:
            The standardization applied to observations, so penalty
            moments live on the same scale as the acquisition inputs.
        f_best:
            Best observed objective, standardized (the ``M`` above).
        """
        self._pending = np.atleast_2d(np.asarray(pending, dtype=float))
        mu, sigma = gp.predict(self._pending, return_std=True)
        self._mu = (mu - y_mean) / y_std
        self._sigma = np.maximum(sigma / y_std, _SIGMA_FLOOR)
        self._f_best = float(f_best)
        self._L = self._lipschitz(gp, y_std)

    def _lipschitz(self, gp: GaussianProcessRegressor,
                   y_std: float) -> float:
        """Estimate of the objective's Lipschitz constant, standardized.

        The max posterior-mean gradient norm over the pending points and
        the training incumbent — the places the search is actually
        operating.  González et al. sample the whole domain; evaluating
        at the active points is deterministic, costs ``m + 1`` gradient
        evaluations, and under-estimating merely softens the penalty
        (never corrupts it).
        """
        probes = [self._pending[j] for j in range(len(self._pending))]
        X_obs = gp.X_train_
        if len(X_obs):
            probes.append(X_obs[int(np.argmin(gp.predict(X_obs)))])
        norms = []
        for x in probes:
            _, _, dmu, _ = gp.predict_with_gradient(np.asarray(x))
            norms.append(float(np.linalg.norm(dmu / y_std)))
        return max(max(norms), _L_FLOOR)

    def penalties(self, U: np.ndarray) -> np.ndarray:
        """Product of per-pending penalty factors for each candidate row.

        Returns an array of shape ``(len(U),)`` with values in (0, 1]:
        ~0 where a candidate sits inside some pending point's exclusion
        ball, →1 far from every in-flight point.
        """
        U = np.asarray(U, dtype=float)
        out = np.ones(len(U))
        for j in range(len(self._pending)):
            dist = np.linalg.norm(U - self._pending[j], axis=1)
            gap = self._mu[j] - self._f_best
            z = (self._L * dist - gap) / (np.sqrt(2.0) * self._sigma[j])
            out *= ndtr(z)
        return out

    def apply(self, util: np.ndarray, U: np.ndarray) -> np.ndarray:
        """Penalized utility over the candidate sweep.

        Utilities are shifted to be non-negative first (LCB's utility can
        be negative, and multiplying a negative utility by a factor in
        (0, 1] would *raise* it near pending points — the opposite of
        penalizing).  The shift preserves the unpenalized argmax and is
        the standard transformation in local-penalization
        implementations.
        """
        shifted = util - float(util.min())
        return shifted * self.penalties(U)
