"""The fused kernel hook keeps both halves' bits.

``value_and_input_gradient(x, X)`` must return exactly the row
``kernel(x[None], X)[0]`` and exactly the Jacobian of the per-class
reference in ``kernel_reference``, for every kernel class and the
nested default kernel, with *x* on and off the training rows.
"""

import numpy as np
import pytest

from kernel_reference import input_gradient
from repro.gp import ConstantKernel, Matern52, WhiteKernel
from repro.gp.gpr import default_bo_kernel


def kernels():
    return {
        "constant": ConstantKernel(2.5),
        "matern52": Matern52(0.4),
        "white": WhiteKernel(0.3),
        "sum": Matern52(0.6) + Matern52(1.3),
        "product": ConstantKernel(1.7) * Matern52(0.5),
        "default": default_bo_kernel(),
        "nested": (ConstantKernel(0.8) * Matern52(0.4)) * Matern52(1.5)
        + WhiteKernel(1e-2),
    }


@pytest.mark.parametrize("name", sorted(kernels()))
@pytest.mark.parametrize("n,dim", [(1, 1), (2, 3), (30, 6), (120, 11)])
@pytest.mark.parametrize("on_row", [False, True])
def test_row_and_jacobian_are_bitwise(name, n, dim, on_row):
    kernel = kernels()[name]
    rng = np.random.default_rng([sorted(kernels()).index(name), n, dim])
    X = rng.random((n, dim))
    x = X[n // 2].copy() if on_row else rng.random(dim)
    value, jac = kernel.value_and_input_gradient(x, X)
    assert value.shape == (n,) and jac.shape == (n, dim)
    assert np.array_equal(value, kernel(x[None], X)[0])
    assert np.array_equal(jac, input_gradient(kernel, x, X))


def test_white_noise_row_is_latent():
    # Like a cross covariance, the row leaves the noise out even on a
    # training point.
    X = np.random.default_rng(3).random((4, 2))
    value, jac = WhiteKernel(0.5).value_and_input_gradient(X[1].copy(), X)
    assert np.array_equal(value, np.zeros(4))
    assert np.array_equal(jac, np.zeros((4, 2)))


@pytest.mark.parametrize("name", sorted(kernels()))
@pytest.mark.parametrize("k", [1, 3])
def test_block_of_points_matches_each_point(name, k):
    # A (k, d) block gives exactly the rows of kernel(x, X) and, row by
    # row, the single-point Jacobians to rounding: a product's Jacobian
    # uses its factors' rows, whose last bits depend on the block's
    # matrix product.
    kernel = kernels()[name]
    rng = np.random.default_rng([sorted(kernels()).index(name), k])
    X = rng.random((20, 4))
    x = rng.random((k, 4))
    x[0] = X[3]
    value, jac = kernel.value_and_input_gradient(x, X)
    assert value.shape == (k, 20) and jac.shape == (k, 20, 4)
    assert np.array_equal(value, kernel(x, X))
    for i in range(k):
        np.testing.assert_allclose(
            jac[i], kernel.value_and_input_gradient(x[i], X)[1],
            rtol=1e-12, atol=1e-15)
