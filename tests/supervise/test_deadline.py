"""Deadline policy: running-quantile thresholds and the hard cap."""

import numpy as np
import pytest

from repro.supervise import DeadlinePolicy


class TestValidation:
    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError, match="eval_timeout_s"):
            DeadlinePolicy(0.0)
        with pytest.raises(ValueError, match="eval_timeout_s"):
            DeadlinePolicy(-1.0)


class TestColdPolicy:
    def test_unbounded_without_cap_or_history(self):
        policy = DeadlinePolicy()
        assert policy.deadline_s() is None
        assert policy.straggler_threshold_s() is None

    def test_hard_cap_applies_before_warmup(self):
        policy = DeadlinePolicy(30.0)
        assert policy.deadline_s() == 30.0
        # Speculation has no basis before the quantile warms up.
        assert policy.straggler_threshold_s() is None

    def test_warmup_counts_completions(self):
        policy = DeadlinePolicy()
        policy.observe(1.0)
        policy.observe(1.0)
        assert policy.deadline_s() is None
        policy.observe(1.0)
        assert policy.deadline_s() is not None


class TestAdaptiveThresholds:
    def test_deadline_scales_from_quantile(self):
        policy = DeadlinePolicy()
        for d in (1.0, 2.0, 3.0):
            policy.observe(d)
        # 3 x the 95th percentile of (1, 2, 3), which is 2.9.
        assert policy.deadline_s() == pytest.approx(3.0 * 2.9)

    def test_straggler_uses_its_own_multiplier(self):
        policy = DeadlinePolicy()
        for d in (1.0, 2.0, 3.0):
            policy.observe(d)
        assert policy.straggler_threshold_s() == pytest.approx(2.0 * 2.9)
        assert policy.straggler_threshold_s() < policy.deadline_s()

    def test_hard_cap_wins_when_tighter(self):
        policy = DeadlinePolicy(4.0)
        for d in (10.0, 10.0, 10.0):
            policy.observe(d)
        assert policy.deadline_s() == 4.0
        assert policy.straggler_threshold_s() == 4.0

    def test_adaptive_wins_when_tighter(self):
        policy = DeadlinePolicy(100.0)
        for d in (1.0, 1.0, 1.0):
            policy.observe(d)
        assert policy.deadline_s() == pytest.approx(3.0)

    def test_zero_durations_floored(self):
        # An all-instant history must not produce a zero deadline.
        policy = DeadlinePolicy()
        for _ in range(3):
            policy.observe(0.0)
        assert policy.deadline_s() > 0.0

    def test_quantile_tracks_distribution(self):
        policy = DeadlinePolicy()
        rng = np.random.default_rng(0)
        for d in rng.uniform(1.0, 2.0, size=100):
            policy.observe(float(d))
        assert 3.0 * 1.8 < policy.deadline_s() < 3.0 * 2.1
