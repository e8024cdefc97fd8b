"""Tests for busy-point (local) penalization around in-flight configs."""

import numpy as np

from repro.core import LocalPenalizer
from repro.gp import GaussianProcessRegressor, Matern52


def fitted_gp(dim=3, n=20, seed=0):
    """A GP fit on a smooth bowl — enough structure for a finite L."""
    rng = np.random.default_rng(seed)
    X = rng.random((n, dim))
    y = np.sum((X - 0.5) ** 2, axis=1) * 10.0 + rng.normal(0, 0.01, n)
    gp = GaussianProcessRegressor(Matern52(), alpha=1e-6)
    gp.fit(X, y)
    return gp, X, y


def make_penalizer(pending, seed=0):
    gp, X, y = fitted_gp(dim=pending.shape[1], seed=seed)
    mean = float(y.mean())
    std = float(y.std())
    f_best = (float(y.min()) - mean) / std
    return LocalPenalizer(gp, pending, mean, std, f_best)


class TestPenalties:
    def test_near_zero_at_pending_point(self):
        # A pending point the posterior rates *worse* than the incumbent
        # gets a positive exclusion radius (mu_j - M > 0).
        pending = np.array([[0.85, 0.85, 0.85]])
        pen = make_penalizer(pending)
        at_pending = pen.penalties(pending)
        assert at_pending.shape == (1,)
        assert at_pending[0] < 1e-6  # suppressed where a worker already is

    def test_approaches_one_far_away(self):
        pending = np.array([[0.85, 0.85, 0.85]])
        pen = make_penalizer(pending)
        far = np.array([[0.05, 0.05, 0.05]])
        assert pen.penalties(far)[0] > 0.9

    def test_no_exclusion_when_pending_beats_incumbent(self):
        """A pending point predicted below the best observation has a
        non-positive gap: nothing to exclude, the factor stays ~1."""
        pending = np.array([[0.5, 0.5, 0.5]])  # the bowl minimum
        pen = make_penalizer(pending)
        assert pen.penalties(pending)[0] > 0.99

    def test_monotone_in_distance_from_pending(self):
        pending = np.array([[0.85, 0.85, 0.85]])
        pen = make_penalizer(pending)
        # Candidates marching away from the pending point along a ray.
        steps = np.linspace(0.0, 0.6, 10)
        U = pending + steps[:, None] * (np.array([-1.0, -1.0, -1.0])
                                        / np.sqrt(3.0))
        vals = pen.penalties(U)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_values_in_unit_interval(self):
        pending = np.array([[0.2, 0.8, 0.4], [0.7, 0.3, 0.6]])
        pen = make_penalizer(pending)
        U = np.random.default_rng(1).random((64, 3))
        vals = pen.penalties(U)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_multiple_pending_points_both_excluded(self):
        p1 = [0.85, 0.85, 0.85]
        p2 = [0.9, 0.1, 0.9]
        pen = make_penalizer(np.array([p1, p2]))
        near_both = pen.penalties(np.array([p1, p2]))
        assert np.all(near_both < 1e-6)
        far = np.array([[0.05, 0.5, 0.05]])
        assert pen.penalties(far)[0] > 0.5


class TestApply:
    def test_shifts_before_multiplying(self):
        """Negative utilities must not be *rewarded* near pending points."""
        pending = np.array([[0.85, 0.85, 0.85]])
        pen = make_penalizer(pending)
        U = np.vstack([pending[0], [0.05, 0.05, 0.05]])
        util = np.array([-5.0, -10.0])  # LCB-style, all negative
        out = pen.apply(util, U)
        assert np.all(out >= 0.0)
        # The candidate sitting on the pending point keeps the higher raw
        # utility; after penalization the far candidate must not win by
        # the sign-flip artifact (shifted best stays 0 only at the min).
        assert out[0] <= (util[0] - util.min())

    def test_preserves_argmax_far_from_pending(self):
        """With pending far away, penalization must not move the winner."""
        pending = np.array([[0.02, 0.02, 0.02]])
        pen = make_penalizer(pending)
        U = np.random.default_rng(3).random((50, 3)) * 0.3 + 0.65
        util = np.random.default_rng(4).random(50)
        out = pen.apply(util, U)
        assert int(np.argmax(out)) == int(np.argmax(util))

    def test_steers_winner_away_from_pending(self):
        """A pending point on the raw argmax hands the win elsewhere."""
        pending = np.array([[0.85, 0.85, 0.85]])
        pen = make_penalizer(pending)
        U = np.vstack([pending[0],
                       np.random.default_rng(5).random((20, 3))])
        util = np.empty(21)
        util[0] = 1.0  # raw argmax sits exactly on the in-flight point
        util[1:] = np.linspace(0.2, 0.9, 20)
        out = pen.apply(util, U)
        assert int(np.argmax(util)) == 0
        assert int(np.argmax(out)) != 0
