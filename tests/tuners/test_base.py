"""Tests for TuningResult bookkeeping."""

import numpy as np
import pytest

from repro.bench import iterations_to_within
from repro.sparksim import RunStatus
from repro.tuners import Evaluation, TuningResult


def ev(objective, status=RunStatus.SUCCESS, cost=None):
    return Evaluation(vector=np.zeros(2), config={}, objective=objective,
                      cost_s=cost if cost is not None else objective,
                      status=status)


class TestBestTracking:
    def test_best_ignores_failures(self):
        result = TuningResult(tuner="t", workload="w", evaluations=[
            ev(5.0, RunStatus.OOM, cost=3.0),
            ev(50.0),
            ev(20.0),
        ])
        assert result.best_index == 2
        assert result.best_time_s == 20.0

    def test_no_success_raises(self):
        result = TuningResult(tuner="t", workload="w", evaluations=[
            ev(480.0, RunStatus.OOM, cost=10.0)])
        with pytest.raises(RuntimeError):
            result.best_index

    def test_ties_keep_first(self):
        result = TuningResult(tuner="t", workload="w",
                              evaluations=[ev(10.0), ev(10.0)])
        assert result.best_index == 0


class TestSearchCost:
    def test_sums_costs_not_objectives(self):
        result = TuningResult(tuner="t", workload="w", evaluations=[
            ev(480.0, RunStatus.OOM, cost=30.0),
            ev(100.0),
        ])
        assert result.search_cost_s == pytest.approx(130.0)

    def test_selection_cost_separate(self):
        result = TuningResult(tuner="t", workload="w",
                              evaluations=[ev(10.0)],
                              selection_cost_s=999.0)
        assert result.search_cost_s == pytest.approx(10.0)


class TestCurves:
    def test_best_curve_monotone_nonincreasing(self):
        result = TuningResult(tuner="t", workload="w", evaluations=[
            ev(30.0), ev(50.0), ev(20.0), ev(40.0)])
        curve = result.best_curve()
        np.testing.assert_allclose(curve, [30.0, 30.0, 20.0, 20.0])

    def test_curve_inf_before_first_success(self):
        result = TuningResult(tuner="t", workload="w", evaluations=[
            ev(480.0, RunStatus.OOM, cost=5.0), ev(25.0)])
        curve = result.best_curve()
        assert np.isinf(curve[0])
        assert curve[1] == 25.0

    def test_iterations_to_within(self):
        # Table 2's count, read off a session's best-so-far curve.
        result = TuningResult(tuner="t", workload="w", evaluations=[
            ev(100.0), ev(22.0), ev(30.0), ev(20.0)])
        curve = result.best_curve()
        assert iterations_to_within(curve, 0.0) == 4
        assert iterations_to_within(curve, 0.10) == 2
        assert iterations_to_within(curve, 5.0) == 1
