"""Unit tests for typed parameters."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.space.parameter import (
    BoolParameter,
    CategoricalParameter,
    FloatParameter,
    IntParameter,
    SizeParameter,
    TimeParameter,
)


class TestFloatParameter:
    def test_endpoints(self):
        p = FloatParameter("f", 2.0, 10.0, 5.0)
        assert p.from_unit(0.0) == 2.0
        assert p.from_unit(1.0) == 10.0

    def test_roundtrip_midpoint(self):
        p = FloatParameter("f", 0.3, 0.9, 0.6)
        assert p.to_unit(p.from_unit(0.5)) == pytest.approx(0.5)

    def test_log_scale_geometric_midpoint(self):
        p = FloatParameter("f", 1.0, 100.0, 10.0, log=True)
        assert p.from_unit(0.5) == pytest.approx(10.0)

    def test_clipping_out_of_range_unit(self):
        p = FloatParameter("f", 0.0, 1.0, 0.5)
        assert p.from_unit(-0.3) == 0.0
        assert p.from_unit(1.7) == 1.0

    def test_validate(self):
        p = FloatParameter("f", 0.0, 1.0, 0.5)
        assert p.validate(0.7)
        assert not p.validate(1.5)
        assert not p.validate("not-a-number")

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            FloatParameter("f", 5.0, 1.0, 2.0)

    def test_rejects_log_with_nonpositive_low(self):
        with pytest.raises(ValueError):
            FloatParameter("f", 0.0, 1.0, 0.5, log=True)

    def test_rejects_default_outside_range(self):
        with pytest.raises(ValueError):
            FloatParameter("f", 0.0, 1.0, 3.0)

    @given(st.floats(0.0, 1.0))
    def test_from_unit_always_in_range(self, u):
        p = FloatParameter("f", -3.0, 7.0, 0.0)
        assert -3.0 <= p.from_unit(u) <= 7.0

    def test_format(self):
        p = FloatParameter("f", 0.0, 1.0, 0.5)
        assert p.format(0.25) == "0.25"


class TestIntParameter:
    def test_covers_all_values(self):
        p = IntParameter("i", 1, 4, 2)
        seen = {p.from_unit(u) for u in np.linspace(0, 1, 101)}
        assert seen == {1, 2, 3, 4}

    def test_roundtrip_every_value(self):
        p = IntParameter("i", 3, 17, 5)
        for v in range(3, 18):
            assert p.from_unit(p.to_unit(v)) == v

    def test_log_roundtrip_every_value(self):
        p = IntParameter("i", 1, 1024, 8, log=True)
        for v in (1, 2, 7, 100, 512, 1024):
            assert p.from_unit(p.to_unit(v)) == v

    def test_log_spreads_small_values(self):
        p = IntParameter("i", 1, 1024, 8, log=True)
        # Half the unit range should map below ~sqrt(1024) = 32.
        assert p.from_unit(0.5) <= 40

    def test_validate_rejects_float(self):
        p = IntParameter("i", 0, 9, 3)
        assert not p.validate(3.5)
        assert p.validate(3)

    @given(st.floats(0.0, 1.0))
    def test_from_unit_in_range(self, u):
        p = IntParameter("i", 2, 37, 10)
        assert 2 <= p.from_unit(u) <= 37


class TestBoolParameter:
    def test_threshold(self):
        p = BoolParameter("b", False)
        assert p.from_unit(0.49) is False
        assert p.from_unit(0.51) is True

    def test_roundtrip(self):
        p = BoolParameter("b", True)
        assert p.from_unit(p.to_unit(True)) is True
        assert p.from_unit(p.to_unit(False)) is False

    def test_format_spark_style(self):
        p = BoolParameter("b", True)
        assert p.format(True) == "true"
        assert p.format(False) == "false"

    def test_validate(self):
        p = BoolParameter("b", True)
        assert p.validate(np.bool_(False))
        assert not p.validate(1)


class TestCategoricalParameter:
    def test_equal_cells(self):
        p = CategoricalParameter("c", ["a", "b", "c", "d"], "a")
        assert p.from_unit(0.1) == "a"
        assert p.from_unit(0.3) == "b"
        assert p.from_unit(0.6) == "c"
        assert p.from_unit(0.99) == "d"

    def test_roundtrip(self):
        p = CategoricalParameter("c", ["x", "y", "z"], "y")
        for v in ("x", "y", "z"):
            assert p.from_unit(p.to_unit(v)) == v

    def test_rejects_single_choice(self):
        with pytest.raises(ValueError):
            CategoricalParameter("c", ["only"], "only")

    def test_rejects_duplicate_choices(self):
        with pytest.raises(ValueError):
            CategoricalParameter("c", ["a", "a"], "a")

    def test_rejects_foreign_default(self):
        with pytest.raises(ValueError):
            CategoricalParameter("c", ["a", "b"], "z")


class TestSizeParameter:
    def test_format_suffix(self):
        p = SizeParameter("s", 16, 512, 32, unit="k")
        assert p.format(64) == "64k"

    def test_log_scaled_by_default(self):
        p = SizeParameter("s", 1024, 184320, 2048)
        assert p.log is True

    def test_rejects_unknown_unit(self):
        with pytest.raises(ValueError):
            SizeParameter("s", 1, 10, 5, unit="q")


class TestTimeParameter:
    def test_format(self):
        assert TimeParameter("t", 0, 10, 3, unit="s").format(7) == "7s"

    def test_rejects_unknown_unit(self):
        with pytest.raises(ValueError):
            TimeParameter("t", 0, 10, 5, unit="h")

