"""Covariance kernels for Gaussian-process regression.

The paper's BO engine uses the sum of a Matérn 5/2 kernel and a white-noise
kernel (§4, "Bayesian Optimization"), the standard choice for modelling
practical performance functions (Snoek et al., 2012).  Kernels expose their
hyperparameters as a log-scale vector ``theta`` with box ``bounds`` so the
regressor can optimize the marginal likelihood with L-BFGS-B.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "Kernel",
    "ConstantKernel",
    "Matern52",
    "WhiteKernel",
    "Sum",
    "Product",
]


def _cdist_sq(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between rows of X and Y."""
    xx = np.sum(X ** 2, axis=1)[:, None]
    yy = np.sum(Y ** 2, axis=1)[None, :]
    d2 = xx + yy - 2.0 * (X @ Y.T)
    return np.maximum(d2, 0.0)


#: Identity matrices reused by white-noise kernels across likelihood
#: evaluations (the gradient hot path allocates one per call otherwise).
_EYE_CACHE: dict[int, np.ndarray] = {}


def _eye(n: int) -> np.ndarray:
    """Cached identity matrix; treat the result as read-only."""
    out = _EYE_CACHE.get(n)
    if out is None:
        if len(_EYE_CACHE) > 8:
            _EYE_CACHE.clear()
        out = _EYE_CACHE[n] = np.eye(n)
    return out


def _param(value: float, theta: np.ndarray | None):
    """A one-parameter kernel's value: as stored, or, for a ``(k, p)``
    stack *theta* of log-space vectors, ``exp(theta[:, 0])`` shaped
    ``(k, 1, 1)`` to broadcast over ``(n, n)`` matrices."""
    return value if theta is None else np.exp(theta[:, 0])[:, None, None]


def _rows(kernel: "Kernel", x: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``kernel(x, X)`` for one ``(d,)`` point (as ``(n,)``) or a
    ``(k, d)`` block (as ``(k, n)``)."""
    return kernel(np.atleast_2d(x), X).reshape(x.shape[:-1] + (X.shape[0],))


class Kernel(ABC):
    """Base covariance function with log-parameterized hyperparameters."""

    @abstractmethod
    def __call__(self, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
        """Covariance matrix ``k(X, Y)`` (``Y=None`` means ``k(X, X)``)."""

    @abstractmethod
    def diag(self, X: np.ndarray) -> np.ndarray:
        """Diagonal of ``k(X, X)`` without forming the full matrix."""

    def latent_diag(self, X: np.ndarray) -> np.ndarray:
        """Diagonal of the *noise-free* prior covariance at X.

        Identical to :meth:`diag` except that white-noise components
        contribute zero, so GP predictive variance derived from it reflects
        the latent objective rather than a noisy observation.
        """
        return self.diag(X)

    def from_sq_dists(self, d2: np.ndarray) -> np.ndarray:
        """Training covariance ``k(X, X)`` from precomputed squared
        pairwise distances.

        The squared-distance matrix is hyperparameter-independent, so the
        GP regressor computes it once per training set and re-evaluates
        the kernel cheaply at every candidate ``theta`` during marginal
        -likelihood optimization.  Distance-based kernels that divide the
        *unscaled* distance by their length scale (Matérn) reproduce
        :meth:`__call__` bit-for-bit.  Kernels that cannot exploit the
        cache raise :class:`NotImplementedError`, and callers fall back to
        the direct evaluation.
        """
        raise NotImplementedError

    @property
    @abstractmethod
    def theta(self) -> np.ndarray:
        """Current hyperparameters in log space."""

    @theta.setter
    @abstractmethod
    def theta(self, value: np.ndarray) -> None: ...

    @property
    @abstractmethod
    def bounds(self) -> np.ndarray:
        """Log-space box bounds, shape ``(len(theta), 2)``."""

    # -- analytic gradients --------------------------------------------------------
    @abstractmethod
    def value_and_theta_gradient(self, X: np.ndarray,
                                 d2: np.ndarray | None = None,
                                 theta: np.ndarray | None = None
                                 ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Training covariance ``k(X, X)`` together with ``∂K/∂θ_i``.

        Returns ``(K, grads)`` where ``grads`` is one ``(n, n)`` matrix per
        log-space hyperparameter, in :attr:`theta` order.  Passing the
        cached squared-distance matrix *d2* lets distance-based kernels
        skip recomputing it (the same contract as :meth:`from_sq_dists`).
        Kernels share intermediates (distances, exponentials) between the
        value and its gradients, so one fused call is substantially
        cheaper than ``self(X)`` plus per-parameter evaluations.

        With a ``(k, p)`` stack *theta* of hyperparameter vectors the
        kernel is evaluated at each of them instead of at its own
        :attr:`theta` (which it leaves alone): ``K`` and every gradient
        are then ``(k, n, n)``, slice *j* belonging to ``theta[j]``.

        Contract: the returned matrices never alias each other or *d2*,
        so callers may mutate ``K`` (e.g. add diagonal jitter) freely.
        """

    @abstractmethod
    def cross_value_and_theta_gradient(self, X: np.ndarray, Y: np.ndarray
                                       ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Cross covariance ``k(X, Y)`` together with ``∂k(X, Y)/∂θ_i``.

        The cross convention of :meth:`__call__` with an explicit *Y*
        applies: white-noise components contribute zero (and a zero
        gradient), so the result is the *latent* covariance even when the
        same array is passed twice.  Returns ``(K, grads)`` with one
        ``(n, p)`` matrix per log-space hyperparameter, in :attr:`theta`
        order; the matrices never alias each other.
        """

    @abstractmethod
    def diag_theta_gradient(self, X: np.ndarray
                            ) -> tuple[np.ndarray, list[np.ndarray]]:
        """``diag(k(X, X))`` together with ``∂diag/∂θ_i`` vectors."""

    @abstractmethod
    def latent_diag_theta_gradient(self, X: np.ndarray
                                   ) -> tuple[np.ndarray, list[np.ndarray]]:
        """:meth:`latent_diag` together with its ``∂/∂θ_i`` vectors."""

    @abstractmethod
    def value_and_input_gradient(self, x: np.ndarray, X: np.ndarray
                                 ) -> tuple[np.ndarray, np.ndarray]:
        """Cross-covariance row ``k(x, X)`` and its Jacobian in *x*.

        *x* is a single query point of shape ``(d,)``.  Returns the
        ``(n,)`` row, equal bit-for-bit to ``self(x[None], X)[0]``, and
        the ``(n, d)`` Jacobian whose row *j* holds the gradient of
        ``k(x, X_j)`` with respect to *x*.  A ``(k, d)`` block of query
        points gives the ``(k, n)`` rows ``self(x, X)`` and a
        ``(k, n, d)`` stack of Jacobians.  Like :meth:`__call__` with
        distinct point sets, white-noise components contribute zero to
        both, so they describe the latent (noise-free) covariance.
        Composites combine their children's rows instead of evaluating
        the kernel a second time.
        """

    # -- composition -------------------------------------------------------------
    def __add__(self, other: "Kernel") -> "Sum":
        return Sum(self, other)

    def __mul__(self, other: "Kernel") -> "Product":
        return Product(self, other)


class ConstantKernel(Kernel):
    """Constant (signal-variance) kernel: ``k(x, x') = value``."""

    def __init__(self, value: float = 1.0,
                 bounds: tuple[float, float] = (1e-4, 1e4)):
        if value <= 0:
            raise ValueError("value must be positive")
        self.value = float(value)
        self._bounds = (float(bounds[0]), float(bounds[1]))

    def __call__(self, X, Y=None):
        Y = X if Y is None else Y
        return np.full((X.shape[0], Y.shape[0]), self.value)

    def diag(self, X):
        return np.full(X.shape[0], self.value)

    def from_sq_dists(self, d2):
        return np.full(d2.shape, self.value)

    def value_and_theta_gradient(self, X, d2=None, theta=None):
        n = X.shape[0] if d2 is None else d2.shape[0]
        v = _param(self.value, theta)
        K = np.full(np.shape(v)[:1] + (n, n), v)
        # d/dlog(v) of v = v, i.e. the kernel matrix itself.
        return K, [K.copy()]

    def cross_value_and_theta_gradient(self, X, Y):
        K = np.full((X.shape[0], Y.shape[0]), self.value)
        return K, [K.copy()]

    def diag_theta_gradient(self, X):
        d = np.full(X.shape[0], self.value)
        return d, [d.copy()]

    def latent_diag_theta_gradient(self, X):
        return self.diag_theta_gradient(X)

    def value_and_input_gradient(self, x, X):
        K = _rows(self, x, X)
        return K, np.zeros(K.shape + x.shape[-1:])

    @property
    def theta(self):
        return np.array([math.log(self.value)])

    @theta.setter
    def theta(self, value):
        self.value = float(np.exp(value[0]))

    @property
    def bounds(self):
        return np.log(np.array([self._bounds]))


class Matern52(Kernel):
    """Matérn kernel with smoothness ν = 5/2 (twice differentiable).

    ``k(r) = (1 + √5 r/ℓ + 5 r² / (3 ℓ²)) exp(-√5 r/ℓ)``
    """

    def __init__(self, length_scale: float = 1.0,
                 bounds: tuple[float, float] = (1e-3, 1e3)):
        if length_scale <= 0:
            raise ValueError("length_scale must be positive")
        self.length_scale = float(length_scale)
        self._bounds = (float(bounds[0]), float(bounds[1]))

    def __call__(self, X, Y=None):
        Y = X if Y is None else Y
        r = np.sqrt(_cdist_sq(X, Y)) / self.length_scale
        s = math.sqrt(5.0) * r
        return (1.0 + s + s ** 2 / 3.0) * np.exp(-s)

    def diag(self, X):
        return np.ones(X.shape[0])

    def from_sq_dists(self, d2):
        r = np.sqrt(d2) / self.length_scale
        s = math.sqrt(5.0) * r
        return (1.0 + s + s ** 2 / 3.0) * np.exp(-s)

    def value_and_theta_gradient(self, X, d2=None, theta=None):
        if d2 is None:
            d2 = _cdist_sq(X, X)
        s = math.sqrt(5.0) * np.sqrt(d2) / _param(self.length_scale, theta)
        es = np.exp(-s)
        s2 = s ** 2
        K = (1.0 + s + s2 / 3.0) * es
        # dk/ds = -(s/3)(1+s)e^{-s} and ds/dlogℓ = -s, hence:
        dK = (s2 / 3.0) * (1.0 + s) * es
        return K, [dK]

    def cross_value_and_theta_gradient(self, X, Y):
        s = math.sqrt(5.0) * np.sqrt(_cdist_sq(X, Y)) / self.length_scale
        es = np.exp(-s)
        s2 = s ** 2
        K = (1.0 + s + s2 / 3.0) * es
        dK = (s2 / 3.0) * (1.0 + s) * es
        return K, [dK]

    def diag_theta_gradient(self, X):
        n = X.shape[0]
        return np.ones(n), [np.zeros(n)]

    def latent_diag_theta_gradient(self, X):
        return self.diag_theta_gradient(X)

    def value_and_input_gradient(self, x, X):
        diff = x[..., None, :] - X
        r = np.sqrt(np.sum(diff ** 2, axis=-1))
        s = math.sqrt(5.0) * r / self.length_scale
        coef = -(5.0 / (3.0 * self.length_scale ** 2)) * (1.0 + s) * np.exp(-s)
        return _rows(self, x, X), coef[..., None] * diff

    @property
    def theta(self):
        return np.array([math.log(self.length_scale)])

    @theta.setter
    def theta(self, value):
        self.length_scale = float(np.exp(value[0]))

    @property
    def bounds(self):
        return np.log(np.array([self._bounds]))


class WhiteKernel(Kernel):
    """I.i.d. observation-noise kernel: ``noise_level`` on the diagonal.

    Only contributes when ``X is Y`` (training covariance); cross
    covariances between distinct point sets are zero, so predictions are of
    the noise-free latent function.
    """

    def __init__(self, noise_level: float = 1e-2,
                 bounds: tuple[float, float] = (1e-8, 1e2)):
        if noise_level <= 0:
            raise ValueError("noise_level must be positive")
        self.noise_level = float(noise_level)
        self._bounds = (float(bounds[0]), float(bounds[1]))

    def __call__(self, X, Y=None):
        if Y is None:
            return self.noise_level * np.eye(X.shape[0])
        return np.zeros((X.shape[0], Y.shape[0]))

    def diag(self, X):
        return np.full(X.shape[0], self.noise_level)

    def latent_diag(self, X):
        return np.zeros(X.shape[0])

    def from_sq_dists(self, d2):
        return self.noise_level * np.eye(d2.shape[0])

    def value_and_theta_gradient(self, X, d2=None, theta=None):
        n = X.shape[0] if d2 is None else d2.shape[0]
        K = _param(self.noise_level, theta) * _eye(n)
        return K, [K.copy()]

    def cross_value_and_theta_gradient(self, X, Y):
        K = np.zeros((X.shape[0], Y.shape[0]))
        return K, [K.copy()]

    def diag_theta_gradient(self, X):
        d = np.full(X.shape[0], self.noise_level)
        return d, [d.copy()]

    def latent_diag_theta_gradient(self, X):
        n = X.shape[0]
        return np.zeros(n), [np.zeros(n)]

    def value_and_input_gradient(self, x, X):
        K = _rows(self, x, X)
        return K, np.zeros(K.shape + x.shape[-1:])

    @property
    def theta(self):
        return np.array([math.log(self.noise_level)])

    @theta.setter
    def theta(self, value):
        self.noise_level = float(np.exp(value[0]))

    @property
    def bounds(self):
        return np.log(np.array([self._bounds]))


class _Binary(Kernel):
    """Composite of two kernels with concatenated hyperparameters."""

    def __init__(self, k1: Kernel, k2: Kernel):
        self.k1 = k1
        self.k2 = k2

    def diag(self, X):
        raise NotImplementedError

    @property
    def theta(self):
        return np.concatenate([self.k1.theta, self.k2.theta])

    @theta.setter
    def theta(self, value):
        n1 = len(self.k1.theta)
        self.k1.theta = np.asarray(value)[:n1]
        self.k2.theta = np.asarray(value)[n1:]

    @property
    def bounds(self):
        return np.vstack([self.k1.bounds, self.k2.bounds])

    def _split(self, theta):
        """The children's columns of a ``(k, p)`` theta stack (or Nones)."""
        if theta is None:
            return None, None
        n1 = len(self.k1.theta)
        return theta[:, :n1], theta[:, n1:]


class Sum(_Binary):
    """Pointwise sum of two kernels."""

    def __call__(self, X, Y=None):
        return self.k1(X, Y) + self.k2(X, Y)

    def diag(self, X):
        return self.k1.diag(X) + self.k2.diag(X)

    def from_sq_dists(self, d2):
        return self.k1.from_sq_dists(d2) + self.k2.from_sq_dists(d2)

    def latent_diag(self, X):
        return self.k1.latent_diag(X) + self.k2.latent_diag(X)

    def value_and_theta_gradient(self, X, d2=None, theta=None):
        t1, t2 = self._split(theta)
        K1, g1 = self.k1.value_and_theta_gradient(X, d2, t1)
        K2, g2 = self.k2.value_and_theta_gradient(X, d2, t2)
        return K1 + K2, g1 + g2

    def cross_value_and_theta_gradient(self, X, Y):
        K1, g1 = self.k1.cross_value_and_theta_gradient(X, Y)
        K2, g2 = self.k2.cross_value_and_theta_gradient(X, Y)
        return K1 + K2, g1 + g2

    def diag_theta_gradient(self, X):
        d1, g1 = self.k1.diag_theta_gradient(X)
        d2, g2 = self.k2.diag_theta_gradient(X)
        return d1 + d2, g1 + g2

    def latent_diag_theta_gradient(self, X):
        d1, g1 = self.k1.latent_diag_theta_gradient(X)
        d2, g2 = self.k2.latent_diag_theta_gradient(X)
        return d1 + d2, g1 + g2

    def value_and_input_gradient(self, x, X):
        k1, g1 = self.k1.value_and_input_gradient(x, X)
        k2, g2 = self.k2.value_and_input_gradient(x, X)
        return k1 + k2, g1 + g2


class Product(_Binary):
    """Pointwise product of two kernels."""

    def __call__(self, X, Y=None):
        return self.k1(X, Y) * self.k2(X, Y)

    def diag(self, X):
        return self.k1.diag(X) * self.k2.diag(X)

    def from_sq_dists(self, d2):
        return self.k1.from_sq_dists(d2) * self.k2.from_sq_dists(d2)

    def latent_diag(self, X):
        return self.k1.latent_diag(X) * self.k2.latent_diag(X)

    def value_and_theta_gradient(self, X, d2=None, theta=None):
        t1, t2 = self._split(theta)
        K1, g1 = self.k1.value_and_theta_gradient(X, d2, t1)
        K2, g2 = self.k2.value_and_theta_gradient(X, d2, t2)
        grads = [g * K2 for g in g1] + [K1 * g for g in g2]
        return K1 * K2, grads

    def cross_value_and_theta_gradient(self, X, Y):
        K1, g1 = self.k1.cross_value_and_theta_gradient(X, Y)
        K2, g2 = self.k2.cross_value_and_theta_gradient(X, Y)
        grads = [g * K2 for g in g1] + [K1 * g for g in g2]
        return K1 * K2, grads

    def diag_theta_gradient(self, X):
        d1, g1 = self.k1.diag_theta_gradient(X)
        d2, g2 = self.k2.diag_theta_gradient(X)
        grads = [g * d2 for g in g1] + [d1 * g for g in g2]
        return d1 * d2, grads

    def latent_diag_theta_gradient(self, X):
        d1, g1 = self.k1.latent_diag_theta_gradient(X)
        d2, g2 = self.k2.latent_diag_theta_gradient(X)
        grads = [g * d2 for g in g1] + [d1 * g for g in g2]
        return d1 * d2, grads

    def value_and_input_gradient(self, x, X):
        k1, g1 = self.k1.value_and_input_gradient(x, X)
        k2, g2 = self.k2.value_and_input_gradient(x, X)
        return k1 * k2, g1 * k2[..., None] + k1[..., None] * g2
