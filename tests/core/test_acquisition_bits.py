"""PI, EI, LCB and the local penalizer keep ``scipy.stats.norm``'s bits.

The library computes ``Φ`` with ``scipy.special.ndtr`` and ``φ`` with a
NumPy helper; ``acquisition_reference`` writes the same formulas on
``norm.cdf``/``norm.pdf``.  Every value and gradient must be
``np.array_equal`` to the reference, across σ = 0, σ at the 1e-12
floor, |z| up to 40 and infinite means; the value that
``value_and_gradient`` returns with its gradient must be ``__call__``'s.
"""

import numpy as np
import pytest

import acquisition_reference as ref
from repro.core.acquisition import (ExpectedImprovement, LowerConfidenceBound,
                                    ProbabilityOfImprovement, _norm_pdf)
from repro.core.penalize import LocalPenalizer
from repro.gp import GaussianProcessRegressor

ACQS = [ProbabilityOfImprovement(), ProbabilityOfImprovement(xi=0.3),
        ExpectedImprovement(), ExpectedImprovement(xi=0.0),
        LowerConfidenceBound(), LowerConfidenceBound(kappa=0.5)]
IDS = ["PI", "PI-xi0.3", "EI", "EI-xi0", "LCB", "LCB-k0.5"]


def moments():
    """Posterior moments covering every branch of the utilities."""
    rng = np.random.default_rng(0)
    z = np.concatenate([np.linspace(-40.0, 40.0, 161),
                        rng.normal(0.0, 3.0, 200), [-38.5, 38.5, 0.0]])
    sigma = np.concatenate([rng.uniform(0.01, 3.0, len(z) - 6),
                            [0.0, 0.0, 1e-12, 1e-12, 1.0000001e-12, 5e-13]])
    mu = -0.4 - z * np.where(sigma > 0, sigma, 1.0)
    mu = np.concatenate([mu, [np.inf, -np.inf, np.inf, -np.inf]])
    sigma = np.concatenate([sigma, [0.5, 0.5, 0.0, 0.0]])
    return mu, sigma


@pytest.mark.parametrize("acq", ACQS, ids=IDS)
def test_utilities_on_arrays_equal_reference(acq):
    mu, sigma = moments()
    with np.errstate(invalid="ignore"):
        got = acq(mu, sigma, -0.4)
        want = ref.utility(acq, mu, sigma, -0.4)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("acq", ACQS, ids=IDS)
def test_gradients_on_scalars_equal_reference(acq):
    mu, sigma = moments()
    rng = np.random.default_rng(1)
    for m, s in zip(mu[np.isfinite(mu)], sigma[np.isfinite(mu)]):
        dmu, dsigma = rng.normal(size=4), rng.normal(size=4)
        _, got = acq.value_and_gradient(float(m), float(s), dmu, dsigma,
                                        -0.4)
        want = ref.gradient(acq, float(m), float(s), dmu, dsigma, -0.4)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("acq", ACQS, ids=IDS)
def test_value_of_value_and_gradient_is_call_bits(acq):
    # The polish reads each utility from value_and_gradient; the sweep
    # from __call__.  Both must give the same bits for the same moments,
    # as Python floats or as the NumPy scalars the polish passes.
    mu, sigma = moments()
    with np.errstate(invalid="ignore", over="ignore"):
        want = acq(mu, sigma, -0.4)
        for i, (m, s) in enumerate(zip(mu, sigma)):
            for mi, si in ((float(m), float(s)), (mu[i], sigma[i])):
                value, _ = acq.value_and_gradient(mi, si, np.zeros(2),
                                                  np.zeros(2), -0.4)
                assert type(value) is float
                assert np.array_equal(value, want[i], equal_nan=True)
                assert np.array_equal(value, acq(np.array([mi]),
                                                 np.array([si]), -0.4)[0],
                                      equal_nan=True)


def test_density_helper_matches_scipy_on_edge_inputs():
    from scipy.stats import norm
    z = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, 37.0, -40.0,
                  1.5, -2.25])
    assert np.array_equal(_norm_pdf(z), norm.pdf(z), equal_nan=True)
    for v in z:
        assert np.array_equal(_norm_pdf(v), norm.pdf(v), equal_nan=True)
        assert np.asarray(_norm_pdf(v)).shape == ()


def test_penalties_equal_reference():
    rng = np.random.default_rng(2)
    X = rng.random((25, 4))
    y = np.sin(4.0 * X[:, 0]) + X[:, 2]
    gp = GaussianProcessRegressor(rng=0, n_restarts=1).fit(X, y)
    mean, std = float(y.mean()), float(y.std())
    pending = np.vstack([X[3] + 0.02, rng.random((2, 4))])
    pen = LocalPenalizer(gp, pending, mean, std, (float(y.min()) - mean) / std)
    U = np.vstack([rng.random((200, 4)), pending, X[:5]])
    got = pen.penalties(U)
    assert np.array_equal(got, ref.penalties(pen, U))
    assert got.min() < 1e-3 < 0.5 < got.max()
