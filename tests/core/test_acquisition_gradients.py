"""Closed-form acquisition gradients vs numerical differentiation.

The gradients are checked through a real GP posterior: utility as a
function of the input point u, differentiated by chaining the posterior
input-gradients through ``AcquisitionFunction.value_and_gradient``,
must match central differences of the plain utility to 1e-6.
"""

import numpy as np
import pytest

from repro.core.acquisition import (AcquisitionFunction,
                                    ExpectedImprovement,
                                    LowerConfidenceBound,
                                    ProbabilityOfImprovement)
from repro.gp import GaussianProcessRegressor

EPS = 1e-6

ACQUISITIONS = [ProbabilityOfImprovement(), ExpectedImprovement(),
                LowerConfidenceBound()]


def fitted_gp(seed=0, n=25, dim=3):
    rng = np.random.default_rng(seed)
    X = rng.random((n, dim))
    y = np.cos(4.0 * X[:, 0]) + X[:, 1] + 0.05 * rng.standard_normal(n)
    return GaussianProcessRegressor(rng=seed).fit(X, y), X, y


class TestAcquisitionGradients:
    @pytest.mark.parametrize("acq", ACQUISITIONS, ids=lambda a: a.name)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_central_differences_through_gp(self, acq, seed):
        gp, X, y = fitted_gp(seed=seed)
        mean, std = float(y.mean()), float(y.std())
        f_best = (float(y.min()) - mean) / std
        rng = np.random.default_rng(100 + seed)

        def utility(u):
            m, s = gp.fast_predict(u[None])
            return float(acq(np.array([(m[0] - mean) / std]),
                             np.array([s[0] / std]), f_best)[0])

        for _ in range(4):
            u = rng.random(X.shape[1])
            mu, sigma, dmu, dsigma = gp.predict_with_gradient(u)
            _, grad = acq.value_and_gradient(
                (mu - mean) / std, sigma / std, dmu / std, dsigma / std,
                f_best)
            for j in range(len(u)):
                up = u.copy()
                up[j] += EPS
                um = u.copy()
                um[j] -= EPS
                num = (utility(up) - utility(um)) / (2.0 * EPS)
                assert abs(grad[j] - num) < 1e-6 * max(1.0, abs(num)) + 1e-7

    @pytest.mark.parametrize("acq", ACQUISITIONS, ids=lambda a: a.name)
    def test_gradient_shape(self, acq):
        _, grad = acq.value_and_gradient(0.3, 0.5, np.array([1.0, -2.0]),
                                         np.array([0.1, 0.2]), 0.0)
        assert grad.shape == (2,)
        assert np.all(np.isfinite(grad))

    def test_pi_and_ei_zero_at_sigma_floor(self):
        dmu = np.array([1.0, 2.0])
        dsigma = np.array([0.5, -0.5])
        for acq in (ProbabilityOfImprovement(), ExpectedImprovement()):
            np.testing.assert_array_equal(
                acq.value_and_gradient(0.2, 0.0, dmu, dsigma, 0.0)[1],
                np.zeros(2))

    def test_lcb_linear_in_moments(self):
        acq = LowerConfidenceBound(kappa=2.0)
        dmu = np.array([1.0, -1.0])
        dsigma = np.array([0.25, 0.5])
        np.testing.assert_allclose(
            acq.value_and_gradient(0.0, 1.0, dmu, dsigma, 0.0)[1],
            -dmu + 2.0 * dsigma)

    def test_base_class_raises(self):
        class Flat(AcquisitionFunction):
            name = "flat"

            def __call__(self, mu, sigma, f_best):
                return np.zeros_like(np.asarray(mu))

        with pytest.raises(NotImplementedError):
            Flat().value_and_gradient(0.0, 1.0, np.zeros(2), np.zeros(2),
                                      0.0)
