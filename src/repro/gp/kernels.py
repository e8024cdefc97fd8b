"""The surrogate's covariance: a scaled Matérn 5/2 plus white noise.

The paper's BO engine fits one kernel (§4, "Bayesian Optimization"), the
standard choice for modelling practical performance functions (Snoek et
al., 2012):

``k(x, x′) = c·(1 + s + s²/3)·e^{−s} + σ²·[x = x′]``,
``s = √5·‖x − x′‖/ℓ``

Its hyperparameters form the log-scale vector ``θ = (log c, log ℓ,
log σ²)`` inside the box :attr:`Matern52.bounds`, which the regressors
fit by marginal likelihood.  The noise term sits on the training
diagonal only: a cross covariance, even of a point set with a copy of
itself, is the latent ``c·Matérn`` part, so predictions describe the
noise-free objective.

Every covariance is a function of ``√5·r`` (:func:`scaled_distances`),
which no hyperparameter touches: the regressors compute it once per fit
and evaluate the kernel at each θ from it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Matern52", "scaled_distances"]

_SQRT5 = math.sqrt(5.0)


def _cdist_sq(X: np.ndarray, Y: np.ndarray,
              xx: np.ndarray | None = None) -> np.ndarray:
    """Pairwise squared Euclidean distances between rows of X and Y."""
    if xx is None:
        xx = _sq_norms(X)
    yy = np.sum(Y ** 2, axis=1)[None, :]
    d2 = xx + yy - 2.0 * (X @ Y.T)
    return np.maximum(d2, 0.0)


def _sq_norms(X: np.ndarray) -> np.ndarray:
    """Squared row norms of *X* as a column, shape ``(n, 1)``."""
    return np.sum(X ** 2, axis=1)[:, None]


def scaled_distances(X: np.ndarray, Y: np.ndarray,
                     xx: np.ndarray | None = None) -> np.ndarray:
    """``√5·‖x − y‖`` between the rows of *X* and *Y*, shape ``(n, m)``.

    *xx* is :func:`_sq_norms` of *X*, for a caller that measures many
    *Y* against one *X*.
    """
    return _SQRT5 * np.sqrt(_cdist_sq(X, Y, xx))


class Matern52:
    """``c·Matérn5/2(r/ℓ) + σ²·[x = x′]`` with θ = (log c, log ℓ, log σ²).

    The defaults are the BO engine's start values and bounds: c = 1 in
    [1e-4, 1e4], ℓ = 0.5 in [1e-2, 1e2] and σ² = 1e-2 in [1e-6, 10].
    *bounds* gives the three (low, high) pairs in θ order, on the linear
    scale.
    """

    def __init__(self, *, variance: float = 1.0, length_scale: float = 0.5,
                 noise: float = 1e-2,
                 bounds=((1e-4, 1e4), (1e-2, 1e2), (1e-6, 1e1))):
        for name, value in (("variance", variance),
                            ("length_scale", length_scale), ("noise", noise)):
            if not value > 0:
                raise ValueError(f"{name} must be positive")
        box = np.array(bounds, dtype=float)
        if box.shape != (3, 2) or not np.all(box > 0):
            raise ValueError("bounds must be three positive (low, high) "
                             "pairs")
        self.variance = float(variance)
        self.length_scale = float(length_scale)
        self.noise = float(noise)
        self._bounds = np.log(box)

    @property
    def theta(self) -> np.ndarray:
        """``(log c, log ℓ, log σ²)``."""
        return np.array([math.log(self.variance), math.log(self.length_scale),
                         math.log(self.noise)])

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        self.variance, self.length_scale, self.noise = \
            np.exp(np.asarray(value, dtype=float)).tolist()

    @property
    def bounds(self) -> np.ndarray:
        """Log-space box, shape ``(3, 2)``, in θ order."""
        return self._bounds.copy()

    def __call__(self, X: np.ndarray, Y: np.ndarray | None = None
                 ) -> np.ndarray:
        """Training covariance ``k(X, X)`` (noise on the diagonal) when
        *Y* is None, else the latent cross covariance ``k(X, Y)``."""
        K = self.latent(scaled_distances(X, X if Y is None else Y))
        if Y is None:
            K[np.diag_indices_from(K)] += self.noise
        return K

    def latent(self, S: np.ndarray) -> np.ndarray:
        """``c·Matérn`` from scaled distances *S* (:func:`scaled_distances`)."""
        s = S / self.length_scale
        ces = self.variance * np.exp(-s)
        return (1.0 + s + s * s / 3.0) * ces

    @staticmethod
    def latent_and_length_gradient(S: np.ndarray, thetas: np.ndarray
                                   ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`latent` and its ``∂/∂log ℓ`` at each row of a ``(k, 3)``
        stack *thetas*, shape ``(k, n, m)`` each, sharing one exponential.

        ``dk/ds = −c·(s/3)(1 + s)e^{−s}`` and ``ds/dlog ℓ = −s``.  The
        other two partials need no matrix of their own: ``∂/∂log c`` is
        the latent covariance itself and ``∂/∂log σ²`` is ``σ²`` on the
        training diagonal.  The two results never alias.
        """
        cl = np.exp(thetas[:, :2])
        s = S / cl[:, 1, None, None]
        ces = cl[:, 0, None, None] * np.exp(-s)
        t = s * s / 3.0
        one_s = 1.0 + s
        return (one_s + t) * ces, (t * one_s) * ces

    def value_and_input_gradient(self, x: np.ndarray, X: np.ndarray
                                 ) -> tuple[np.ndarray, np.ndarray]:
        """Cross-covariance rows ``k(x, X)`` and their Jacobians in *x*.

        For a ``(k, d)`` block *x*, the ``(k, n)`` rows (bit for bit
        ``self(x, X)``) and the ``(k, n, d)`` Jacobians; a ``(d,)`` point
        gives ``(n,)`` and ``(n, d)``.  The Jacobian takes ``r`` from the
        row's own distances: ``∂k/∂x = −(5c/3ℓ²)(1 + s)e^{−s}·(x − X_j)``.
        """
        xq = np.atleast_2d(x)
        s = scaled_distances(xq, X) / self.length_scale
        ces = self.variance * np.exp(-s)
        one_s = 1.0 + s
        K = (one_s + s * s / 3.0) * ces
        coef = (-5.0 / (3.0 * self.length_scale ** 2)) * one_s * ces
        jac = coef[..., None] * (xq[:, None, :] - X)
        if np.ndim(x) == 1:
            return K[0], jac[0]
        return K, jac
