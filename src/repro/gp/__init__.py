"""Gaussian-process substrate: the kernel, exact and low-rank GP regression."""

from .kernels import Matern52
from .gpr import GaussianProcessRegressor
from .lowrank import LowRankGaussianProcessRegressor, select_inducing

__all__ = [
    "Matern52",
    "GaussianProcessRegressor",
    "LowRankGaussianProcessRegressor",
    "select_inducing",
]
