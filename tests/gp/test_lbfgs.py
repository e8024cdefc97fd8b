"""The lockstep box-constrained L-BFGS (``repro.gp.lbfgs``).

scipy's L-BFGS-B is the reference here, and only here: on box problems
with the optimum inside, on a face and in a corner, and on the GP's
negative log-likelihood, the lockstep optimizer must end no worse than
scipy from the same starts (within the tolerances below), and every
point it evaluates must lie in the box.  Starts must not interact: each
one ends with the bits, and the evaluation count, of a solo run.
"""


import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize
from test_gradients import make_gp_data

from repro.gp import GaussianProcessRegressor
from repro.gp.lbfgs import minimize

#: How far above scipy's final value a start may end on the smooth box
#: problems, absolute.
BOX_TOL = 1e-8
#: How far above scipy's best start the best likelihood start may end
#: (the analytic-fit test's tolerance).
NLL_TOL = 1e-3


def rosenbrock_row(x):
    a, b = float(x[0]), float(x[1])
    f = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
    g = [-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)]
    return f, np.array(g)


def quadratic_row(center, weights):
    def row(x):
        r = np.asarray(x, dtype=float) - center
        return float(np.sum(weights * r * r)), 2.0 * weights * r
    return row


def rowwise(row, seen=None, counts=None):
    """A batched objective that evaluates each row on its own, so a
    row's bits never depend on its batch-mates."""
    def fun(X, rows):
        if seen is not None:
            seen.append(X.copy())
        if counts is not None:
            for i in rows:
                counts[i] = counts.get(i, 0) + 1
        out = [row(x) for x in X]
        return (np.array([f for f, _ in out]),
                np.array([g for _, g in out]))
    return fun


def scipy_run(row, x0, bounds, maxiter):
    return scipy_minimize(lambda x: row(x), x0, jac=True, method="L-BFGS-B",
                          bounds=bounds, options={"maxiter": maxiter})


BOX_PROBLEMS = {
    # name: (row objective, bounds, starts)
    "quadratic-interior": (
        quadratic_row(np.array([0.2, 0.7, 0.3, 0.9]),
                      np.array([1.0, 3.0, 0.5, 8.0])),
        [(0.0, 1.0)] * 4,
        np.random.default_rng(1).random((4, 4))),
    "quadratic-face": (
        quadratic_row(np.array([0.4, 1.6, 0.5]), np.array([2.0, 1.0, 5.0])),
        [(0.0, 1.0)] * 3,
        np.random.default_rng(2).random((4, 3))),
    "quadratic-corner": (
        quadratic_row(np.array([2.0, -3.0, 1.5]), np.array([1.0, 4.0, 2.0])),
        [(0.0, 1.0)] * 3,
        np.random.default_rng(3).random((4, 3))),
    "rosenbrock-interior": (
        rosenbrock_row, [(-2.0, 2.0), (-2.0, 2.0)],
        np.array([[-1.2, 1.0], [0.5, -1.5], [1.9, 1.9], [0.0, 0.0]])),
    "rosenbrock-face": (
        rosenbrock_row, [(-2.0, 0.5), (-2.0, 2.0)],
        np.array([[-1.2, 1.0], [0.5, -1.5], [0.0, 0.0], [-2.0, 2.0]])),
    "rosenbrock-corner": (
        rosenbrock_row, [(-2.0, -1.5), (-2.0, 1.0)],
        np.array([[-1.8, 0.5], [-1.5, -2.0], [-2.0, 1.0], [-1.7, 0.0]])),
}


class TestAgainstScipy:
    @pytest.mark.parametrize("name", sorted(BOX_PROBLEMS))
    def test_box_problem_ends_no_worse(self, name):
        row, bounds, starts = BOX_PROBLEMS[name]
        seen = []
        res = minimize(rowwise(row, seen), starts, bounds, maxiter=200)
        box = np.asarray(bounds)
        for X in seen:
            assert np.all(X >= box[:, 0]) and np.all(X <= box[:, 1])
        assert np.all(res.x >= box[:, 0]) and np.all(res.x <= box[:, 1])
        for i, x0 in enumerate(starts):
            ref = scipy_run(row, x0, bounds, 200)
            assert res.fun[i] <= ref.fun + BOX_TOL
            assert res.fun[i] == row(res.x[i])[0]

    @pytest.mark.parametrize("n", [20, 60])
    def test_likelihood_ends_no_worse(self, n):
        X, y = make_gp_data(n=n, dim=4, seed=n)
        gp = GaussianProcessRegressor(rng=n, optimize=False).fit(X, y)
        bounds = gp.kernel.bounds
        rng = np.random.default_rng(n)
        starts = np.vstack([gp.kernel.theta] + [
            rng.uniform(bounds[:, 0], bounds[:, 1]) for _ in range(2)])
        seen = []

        def nll(thetas, rows):
            seen.append(thetas.copy())
            return gp._nll_and_grad(thetas)
        res = minimize(nll, starts, bounds, maxiter=100)
        for T in seen:
            assert np.all(T >= bounds[:, 0]) and np.all(T <= bounds[:, 1])
        ref = min(scipy_minimize(gp._nll_and_grad, s,
                                 jac=True, method="L-BFGS-B", bounds=bounds,
                                 options={"maxiter": 100}).fun
                  for s in starts)
        assert res.fun.min() <= ref + NLL_TOL
        assert res.nfev == sum(len(T) for T in seen)


class TestStartIndependence:
    @pytest.mark.parametrize("name", sorted(BOX_PROBLEMS))
    def test_each_start_equals_its_solo_run(self, name):
        row, bounds, starts = BOX_PROBLEMS[name]
        counts = {}
        res = minimize(rowwise(row, counts=counts), starts, bounds,
                       maxiter=50)
        assert res.nfev == sum(counts.values())
        for i, x0 in enumerate(starts):
            solo_counts = {}
            solo = minimize(rowwise(row, counts=solo_counts), x0[None],
                            bounds, maxiter=50)
            assert res.x[i].tobytes() == solo.x[0].tobytes()
            assert res.fun[i].tobytes() == solo.fun[0].tobytes()
            assert counts[i] == solo_counts[0] == solo.nfev
            assert res.nit[i] == solo.nit[0]

    def test_failing_start_stops_alone(self):
        row, bounds, starts = BOX_PROBLEMS["rosenbrock-interior"]
        bad = 1

        def fun(X, rows):
            values, grads = rowwise(row)(X, rows)
            for r, i in enumerate(rows):
                if i == bad:
                    values[r], grads[r] = 1e25, 0.0
            return values, grads
        counts = {}

        def counted(X, rows):
            for i in rows:
                counts[i] = counts.get(i, 0) + 1
            return fun(X, rows)
        res = minimize(counted, starts, bounds, maxiter=50)
        assert counts[bad] == 1
        assert res.fun[bad] == 1e25
        assert res.nit[bad] == 0
        assert res.x[bad].tobytes() == starts[bad].tobytes()
        alone = minimize(rowwise(row), np.delete(starts, bad, axis=0),
                         bounds, maxiter=50)
        keep = [i for i in range(len(starts)) if i != bad]
        assert res.x[keep].tobytes() == alone.x.tobytes()
        assert res.fun[keep].tobytes() == alone.fun.tobytes()

    def test_fun_sees_only_live_rows(self):
        row, bounds, starts = BOX_PROBLEMS["quadratic-interior"]
        batches = []

        def fun(X, rows):
            batches.append(list(rows))
            assert len(rows) == len(X)
            return rowwise(row)(X, rows)
        minimize(fun, starts, bounds, maxiter=50)
        assert batches[0] == list(range(len(starts)))
        for before, after in zip(batches, batches[1:]):
            assert set(after) <= set(before)
            assert after == sorted(after)


class TestMaxiter:
    @pytest.mark.parametrize("maxiter", [1, 3, 7])
    def test_honoured_per_start(self, maxiter):
        row, bounds, starts = BOX_PROBLEMS["rosenbrock-interior"]
        res = minimize(rowwise(row), starts, bounds, maxiter=maxiter)
        assert np.all(res.nit <= maxiter)
        full = minimize(rowwise(row), starts, bounds, maxiter=500)
        for i in range(len(starts)):
            # A start that needs more steps than allowed stops at the cap.
            if full.nit[i] > maxiter:
                assert res.nit[i] == maxiter

    def test_zero_maxiter_evaluates_only_the_starts(self):
        row, bounds, starts = BOX_PROBLEMS["quadratic-corner"]
        res = minimize(rowwise(row), starts, bounds, maxiter=0)
        assert res.nfev == len(starts)
        assert np.all(res.nit == 0)
        np.testing.assert_array_equal(res.x, starts)


class TestLineSearchFailure:
    def test_start_ends_where_no_step_decreases(self):
        # The reported gradient points uphill, so no step along the
        # search direction meets the Armijo condition: the line search
        # gives up after its trials and the start keeps its first point.
        def fun(X, rows):
            return X.sum(axis=1), -np.ones_like(X)
        x0 = np.array([[0.5, 0.5], [0.2, 0.9]])
        res = minimize(fun, x0, [(0.0, 1.0)] * 2, maxiter=50)
        np.testing.assert_array_equal(res.x, x0)
        np.testing.assert_array_equal(res.fun, x0.sum(axis=1))
        assert np.all(res.nit == 0)
        assert res.nfev < 2 * 25
