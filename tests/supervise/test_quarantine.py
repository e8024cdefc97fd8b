"""Poison-config quarantine: strike counting and vector identity."""

import numpy as np
import pytest

from repro.supervise import PoisonQuarantine
from repro.supervise.quarantine import vector_key


class TestVectorKey:
    def test_identical_vectors_share_a_key(self):
        u = np.array([0.25, 0.5, 0.75])
        assert vector_key(u) == vector_key(u.copy())

    def test_distinct_vectors_differ(self):
        assert vector_key(np.array([0.1, 0.2])) != \
            vector_key(np.array([0.1, 0.3]))

    def test_non_contiguous_input_normalized(self):
        grid = np.arange(12, dtype=float).reshape(3, 4)
        col = grid[:, 1]  # strided view
        assert vector_key(col) == vector_key(np.ascontiguousarray(col))

    def test_dtype_normalized(self):
        assert vector_key(np.array([1, 2])) == \
            vector_key(np.array([1.0, 2.0]))


class TestPoisonQuarantine:
    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            PoisonQuarantine(0)

    def test_quarantines_at_cap(self):
        q = PoisonQuarantine(3)
        key = vector_key(np.array([0.5]))
        assert not q.strike(key)
        assert not q.strike(key)
        assert q.strike(key)          # third strike
        assert key in q.quarantined
        assert q.strikes(key) == 3

    def test_single_strike_cap(self):
        q = PoisonQuarantine(1)
        key = b"k"
        assert q.strike(key)
        assert key in q.quarantined

    def test_keys_are_independent(self):
        q = PoisonQuarantine(2)
        a, b = b"a", b"b"
        q.strike(a)
        assert a not in q.quarantined
        assert b not in q.quarantined
        assert q.strikes(b) == 0

    def test_len_and_listing(self):
        q = PoisonQuarantine(1)
        assert len(q) == 0
        q.strike(b"x")
        q.strike(b"y")
        assert len(q) == 2
        assert q.quarantined == sorted([b"x", b"y"])

    def test_strikes_past_cap_stay_quarantined(self):
        q = PoisonQuarantine(2)
        key = b"p"
        q.strike(key)
        q.strike(key)
        assert q.strike(key)  # still reported quarantined
        assert q.strikes(key) == 3
