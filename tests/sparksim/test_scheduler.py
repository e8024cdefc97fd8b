"""Tests for the vectorized wave scheduler against the exact list
scheduler of the scheduling oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import list_schedule_exact

from repro.sparksim import SparkConf
from repro.sparksim.scheduler import (apply_speculation, list_schedule_fast,
                                      stage_makespan)


class TestExactScheduler:
    def test_single_slot_is_sum(self):
        d = np.array([1.0, 2.0, 3.0])
        assert list_schedule_exact(d, 1) == pytest.approx(6.0)

    def test_enough_slots_is_max(self):
        d = np.array([1.0, 5.0, 2.0])
        assert list_schedule_exact(d, 3) == pytest.approx(5.0)

    def test_known_two_slot_case(self):
        # Greedy: slot A gets 3, slot B gets 1 then 2 -> makespan 3.
        d = np.array([3.0, 1.0, 2.0])
        assert list_schedule_exact(d, 2) == pytest.approx(3.0)

    def test_dispatch_serialization_floor(self):
        d = np.full(10, 0.001)
        t = list_schedule_exact(d, 10, dispatch_s=0.1)
        assert t >= 9 * 0.1 + 0.001

    def test_empty_tasks(self):
        assert list_schedule_exact(np.array([]), 4) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            list_schedule_exact(np.array([1.0]), 0)
        with pytest.raises(ValueError):
            list_schedule_exact(np.array([-1.0]), 2)


class TestFastScheduler:
    def test_equal_durations_exactly_matches(self):
        d = np.full(37, 2.5)
        assert list_schedule_fast(d, 8) == pytest.approx(
            list_schedule_exact(d, 8))

    @given(st.integers(1, 200), st.integers(1, 32), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_close_to_exact_under_noise(self, n, slots, seed):
        rng = np.random.default_rng(seed)
        d = np.exp(rng.normal(0.0, 0.15, n))
        fast = list_schedule_fast(d, slots)
        exact = list_schedule_exact(d, slots)
        # Lower bound: a theorem, not a tuned constant.  The wave estimate
        # is max(per-slot sums) >= sum/m with m = min(slots, n), and greedy
        # list scheduling obeys Graham's bound
        #     exact <= sum/m + (1 - 1/m) * dmax,
        # so fast >= exact - (1 - 1/m) * dmax for *every* input.  Earlier
        # revisions asserted fast >= 0.90 * exact, but no multiplicative
        # constant is sound under hypothesis's full search: an exhaustive
        # scan of this strategy's domain found fast/exact = 0.8823 at
        # (n=49, slots=29, seed=9597), where bin-packing luck lets the
        # greedy schedule beat the rigid i % slots wave assignment.
        # Typical-case tightness is covered by the derandomized profile
        # test below and by test_mean_relative_gap_small.
        m = min(slots, n)
        assert fast >= exact - (1 - 1 / m) * d.max() - 1e-9
        assert fast <= exact * 1.25 + d.max() + 1e-9

    # Regimes: serial, slot-rich, balanced, many-wave, n == slots, and a
    # ragged final wave.  Each triple was checked to sit above 0.95 with
    # margin, so this guards typical-case accuracy deterministically while
    # the hypothesis test above guards the provable worst case.
    @pytest.mark.parametrize("n,slots,seed", [
        (1, 1, 0), (5, 8, 1), (20, 4, 2), (50, 16, 3), (100, 32, 4),
        (200, 8, 5), (37, 37, 6), (150, 1, 7), (64, 15, 8), (300, 32, 9),
        (10, 3, 10), (48, 12, 11),
    ])
    def test_profile_accuracy(self, n, slots, seed):
        rng = np.random.default_rng(seed)
        d = np.exp(rng.normal(0.0, 0.15, n))
        fast = list_schedule_fast(d, slots)
        exact = list_schedule_exact(d, slots)
        assert fast >= exact * 0.95 - 1e-9
        assert fast <= exact * 1.25 + d.max() + 1e-9

    def test_mean_relative_gap_small(self):
        """On average the wave approximation is within a few percent."""
        rng = np.random.default_rng(123)
        gaps = []
        for _ in range(60):
            n = int(rng.integers(10, 300))
            slots = int(rng.integers(1, 33))
            d = np.exp(rng.normal(0.0, 0.15, n))
            fast = list_schedule_fast(d, slots)
            exact = list_schedule_exact(d, slots)
            gaps.append(abs(fast - exact) / exact)
        assert np.mean(gaps) < 0.05

    def test_lower_bounds_hold(self):
        rng = np.random.default_rng(1)
        d = rng.random(50)
        t = list_schedule_fast(d, 7)
        assert t >= d.sum() / 7 - 1e-9
        assert t >= d.max() - 1e-9


class TestSpeculation:
    def conf(self, on=True, mult=1.5):
        return SparkConf({"spark.speculation": on,
                          "spark.speculation.multiplier": mult})

    def test_disabled_is_identity(self):
        d = np.array([1.0, 1.0, 50.0])
        out, extra = apply_speculation(d, self.conf(on=False), 4)
        np.testing.assert_array_equal(out, d)
        assert extra == 0.0

    def test_straggler_capped_with_spare_slots(self):
        d = np.concatenate([np.ones(9), [50.0]])
        out, _ = apply_speculation(d, self.conf(), slots=20)
        assert out.max() < 50.0
        assert out.max() >= 2.0  # cap is at least 2x median

    def test_no_spare_slots_no_benefit(self):
        d = np.concatenate([np.ones(16), [50.0]])
        # 17 tasks on 17 slots -> full last wave heuristic limits help.
        out_full, _ = apply_speculation(d, self.conf(), slots=1)
        out_spare, _ = apply_speculation(d, self.conf(), slots=100)
        assert out_spare.max() <= out_full.max()

    def test_fast_tasks_untouched(self):
        d = np.concatenate([np.ones(9), [50.0]])
        out, _ = apply_speculation(d, self.conf(), slots=20)
        np.testing.assert_array_equal(out[:9], d[:9])


class TestStageMakespan:
    def test_returns_waves(self):
        d = np.ones(10)
        t, waves = stage_makespan(d, SparkConf(), slots=4)
        assert waves == 3
        assert t == pytest.approx(3.0)

    def test_consistent_with_exact_oracle(self):
        rng = np.random.default_rng(2)
        d = np.exp(rng.normal(0, 0.1, 40))
        t_fast, _ = stage_makespan(d, SparkConf(), 8)
        capped, _ = apply_speculation(d, SparkConf(), 8)
        t_exact = list_schedule_exact(capped, 8)
        assert abs(t_fast - t_exact) <= d.max()
