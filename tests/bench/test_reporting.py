"""Tests for report rendering."""

import pytest

from repro.bench import format_table, section


class TestFormatTable:
    def test_alignment_and_floats(self):
        out = format_table(["name", "value"], [("a", 1.2345), ("bb", 2.0)])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "1.23" in out and "2.00" in out

    def test_title(self):
        out = format_table(["x"], [("y",)], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [("only-one",)])

    def test_custom_float_format(self):
        out = format_table(["v"], [(3.14159,)], float_fmt="{:.4f}")
        assert "3.1416" in out


def test_section_heading():
    s = section("Results")
    assert "Results" in s
    assert "=" in s
