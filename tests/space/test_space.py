"""Unit and property tests for ConfigSpace."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.space import (
    BoolParameter,
    CategoricalParameter,
    ConfigSpace,
    FloatParameter,
    IntParameter,
)


def small_space() -> ConfigSpace:
    return ConfigSpace([
        IntParameter("cores", 1, 8, 2, group="size"),
        FloatParameter("fraction", 0.1, 0.9, 0.5),
        BoolParameter("flag", False, group="flaggy"),
        CategoricalParameter("codec", ["a", "b", "c"], "a"),
        IntParameter("buf", 1, 64, 8, group="flaggy"),
    ])


class TestBasics:
    def test_dim_and_names(self):
        sp = small_space()
        assert sp.dim == len(sp) == 5
        assert sp.names[0] == "cores"
        assert "fraction" in sp
        assert sp["codec"].choices == ["a", "b", "c"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ConfigSpace([IntParameter("x", 0, 5, 1),
                         IntParameter("x", 0, 5, 1)])

    def test_index_of(self):
        sp = small_space()
        assert sp.index_of("flag") == 2

    def test_groups_partition_all_columns(self):
        sp = small_space()
        groups = sp.groups()
        cols = sorted(c for idxs in groups.values() for c in idxs)
        assert cols == list(range(sp.dim))
        assert groups["flaggy"] == [2, 4]
        assert groups["size"] == [0]


class TestEncodeDecode:
    def test_decode_includes_all_params(self):
        sp = small_space()
        conf = sp.decode(np.full(5, 0.5))
        assert set(conf) == set(sp.names)

    def test_decode_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            small_space().decode(np.zeros(3))

    def test_encode_uses_defaults_for_missing(self):
        sp = small_space()
        u = sp.encode({})
        conf = sp.decode(u)
        assert conf == {p.name: p.default for p in sp}

    @given(st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5))
    @settings(max_examples=50)
    def test_snap_idempotent(self, vals):
        """snap(snap(u)) == snap(u): decoding is stable after one snap."""
        sp = small_space()
        u = np.array(vals)
        s1 = sp.snap(u)
        s2 = sp.snap(s1)
        np.testing.assert_allclose(s1, s2)

    @given(st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5))
    @settings(max_examples=50)
    def test_decode_encode_decode_roundtrip(self, vals):
        """Decoded config survives an encode/decode round trip exactly."""
        sp = small_space()
        conf = sp.decode(np.array(vals))
        conf2 = sp.decode(sp.encode(conf))
        assert conf == conf2


class TestValidation:
    def test_validate_flags_bad_values(self):
        sp = small_space()
        bad = sp.validate({"cores": 99, "fraction": 0.5})
        assert bad == ["cores"]

    def test_validate_ok(self):
        sp = small_space()
        assert sp.validate({p.name: p.default for p in sp}) == []


class TestSubspace:
    def test_subspace_freezes_others_at_defaults(self):
        sp = small_space()
        sub = sp.subspace(["fraction", "codec"])
        assert sub.dim == 2
        conf = sub.decode(np.array([0.5, 0.9]))
        assert conf["cores"] == 2          # default
        assert conf["flag"] is False       # default
        assert conf["codec"] == "c"

    def test_subspace_base_overrides(self):
        sp = small_space()
        sub = sp.subspace(["fraction"], base={"cores": 7})
        conf = sub.decode(np.array([0.0]))
        assert conf["cores"] == 7

    def test_subspace_unknown_name(self):
        with pytest.raises(KeyError):
            small_space().subspace(["nope"])

    def test_subspace_duplicate_names(self):
        with pytest.raises(ValueError):
            small_space().subspace(["cores", "cores"])

    def test_nested_subspace_keeps_frozen(self):
        sp = small_space()
        sub = sp.subspace(["fraction", "codec"], base={"cores": 5})
        sub2 = sub.subspace(["fraction"])
        conf = sub2.decode(np.array([1.0]))
        assert conf["cores"] == 5
        assert conf["codec"] == "a"  # sub's default for codec

    def test_frozen_overlap_rejected(self):
        with pytest.raises(ValueError):
            ConfigSpace([IntParameter("x", 0, 5, 1)], frozen={"x": 3})
