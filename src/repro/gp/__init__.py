"""Gaussian-process substrate: kernels, exact and low-rank GP regression."""

from .kernels import (
    ConstantKernel,
    Kernel,
    Matern52,
    Product,
    Sum,
    WhiteKernel,
)
from .gpr import GaussianProcessRegressor, default_bo_kernel
from .lowrank import LowRankGaussianProcessRegressor, select_inducing

__all__ = [
    "Kernel",
    "ConstantKernel",
    "Matern52",
    "WhiteKernel",
    "Sum",
    "Product",
    "GaussianProcessRegressor",
    "LowRankGaussianProcessRegressor",
    "default_bo_kernel",
    "select_inducing",
]
