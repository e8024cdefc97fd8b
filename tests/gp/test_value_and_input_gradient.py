"""The fused kernel hook keeps both halves' bits.

``value_and_input_gradient(x, X)`` must return exactly the row
``kernel(x[None], X)[0]`` and exactly the Jacobian of the reference in
``kernel_reference``, in every regime of the kernel, with *x* on and off
the training rows.  The regimes are named after the term of
``c·Matérn + σ²·I`` that dominates: ``constant`` takes ℓ at its upper
bound, ``white`` is noise-dominated, ``sum`` has noise as large as the
signal, ``product`` scales the Matérn by ``c ≠ 1``, ``nested`` pairs a
large ``c`` with a short ℓ.
"""

import numpy as np
import pytest

from kernel_reference import covariance, input_gradient
from repro.gp import Matern52


def kernels():
    return {
        "constant": Matern52(variance=2.5, length_scale=100.0),
        "matern52": Matern52(variance=1.0, length_scale=0.4),
        "white": Matern52(variance=1e-3, length_scale=0.3, noise=0.3),
        "sum": Matern52(variance=1.0, length_scale=0.6, noise=1.0),
        "product": Matern52(variance=1.7, length_scale=0.5),
        "default": Matern52(),
        "nested": Matern52(variance=80.0, length_scale=0.05, noise=1e-2),
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
    assert np.array_equal(value, covariance(kernel, x[None], X)[0])
    assert np.array_equal(jac, input_gradient(kernel, x, X))


def test_white_noise_row_is_latent():
    # Like a cross covariance, the row leaves the noise out even on a
    # training point: there it is the signal variance c, and no noise
    # level moves a bit of the row or its Jacobian.
    X = np.random.default_rng(3).random((4, 2))
    kernel = Matern52(variance=0.7, noise=0.5)
    value, jac = kernel.value_and_input_gradient(X[1].copy(), X)
    np.testing.assert_allclose(value[1], 0.7, rtol=1e-12)
    assert np.array_equal(jac[1], np.zeros(2))
    quiet = Matern52(variance=0.7, noise=1e-6)
    for got, want in zip((value, jac),
                         quiet.value_and_input_gradient(X[1].copy(), X)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(kernels()))
@pytest.mark.parametrize("k", [1, 3])
def test_block_of_points_matches_each_point(name, k):
    # A (k, d) block gives exactly the rows of kernel(x, X) and, row by
    # row, the single-point Jacobians to rounding: the distances come
    # from one matrix product per block, whose last bits depend on its
    # shape.
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
