"""Property tests for the configuration encoder over *random* spaces.

The existing property suite (test_space_properties.py) exercises the
fixed 44-parameter Spark space; here hypothesis also draws the space
itself — parameter types, bounds, log scaling, categorical choice sets —
so the encode/decode contract is tested where it is easiest to break:
adversarial bounds, tiny ranges, and deep categorical sets.

Contract under test:

* encode always lands in the closed unit cube;
* decode∘encode is the identity on native configurations (exact for
  discrete parameters, up to float round-off for continuous ones);
* out-of-bounds vector coordinates clip to the nearest bound;
* categorical/int cell mapping is stable: any coordinate within a
  value's cell decodes to that value;
* the conf-file rendering round-trips through the parser.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.space.encoder import ConfigurationEncoder
from repro.space.parameter import (BoolParameter, CategoricalParameter,
                                   FloatParameter, IntParameter,
                                   SizeParameter, TimeParameter)
from repro.space.space import ConfigSpace


# -- random-space strategies ---------------------------------------------------------
def _float_param(i: int):
    def build(args):
        low, width, log = args
        if log:
            low = abs(low) + 1e-3
            high = low * (1.5 + width)
        else:
            high = low + 1e-3 + width
        return FloatParameter(f"p{i}.float", low, high, low, log=log)
    return st.tuples(st.floats(-1e6, 1e6, allow_nan=False),
                     st.floats(0.0, 1e6, allow_nan=False),
                     st.booleans()).map(build)


def _int_param(i: int):
    def build(args):
        low, span, log = args
        if log:
            low = abs(low) + 1
        return IntParameter(f"p{i}.int", low, low + span, low, log=log)
    return st.tuples(st.integers(-1000, 1000), st.integers(1, 2000),
                     st.booleans()).map(build)


def _bool_param(i: int):
    return st.booleans().map(
        lambda d: BoolParameter(f"p{i}.bool", d))


def _cat_param(i: int):
    return st.integers(2, 12).map(
        lambda k: CategoricalParameter(f"p{i}.cat",
                                       [f"c{j}" for j in range(k)], "c0"))


def _size_param(i: int):
    return st.tuples(st.integers(1, 512), st.integers(1, 4096),
                     st.sampled_from(["k", "m", "g"])).map(
        lambda a: SizeParameter(f"p{i}.size", a[0], a[0] + a[1], a[0],
                                unit=a[2]))


def _time_param(i: int):
    return st.tuples(st.integers(0, 600), st.integers(1, 600),
                     st.sampled_from(["s", "ms"])).map(
        lambda a: TimeParameter(f"p{i}.time", a[0], a[0] + a[1], a[0],
                                unit=a[2]))


_MAKERS = (_float_param, _int_param, _bool_param, _cat_param, _size_param,
           _time_param)


@st.composite
def spaces(draw, max_dim: int = 8):
    dim = draw(st.integers(1, max_dim))
    params = [draw(draw(st.sampled_from(_MAKERS))(i)) for i in range(dim)]
    return ConfigSpace(params)


@st.composite
def spaces_with_vectors(draw, low: float = 0.0, high: float = 1.0):
    space = draw(spaces())
    u = draw(st.lists(st.floats(low, high, allow_nan=False),
                      min_size=space.dim, max_size=space.dim).map(np.array))
    return space, u


def _is_discrete(p) -> bool:
    return not isinstance(p, FloatParameter)


def _assert_native_equal(p, a, b):
    if _is_discrete(p):
        assert a == b, f"{p.name}: {a!r} != {b!r}"
    else:
        tol = 1e-8 * (1.0 + abs(p.low) + abs(p.high))
        assert abs(a - b) <= tol, f"{p.name}: {a!r} != {b!r}"


class TestEncodeDecodeRoundTrip:
    @given(spaces_with_vectors())
    @settings(max_examples=150, deadline=None)
    def test_decode_encode_decode_identity(self, sv):
        space, u = sv
        conf = space.decode(u)
        conf2 = space.decode(space.encode(conf))
        for p in space:
            _assert_native_equal(p, conf[p.name], conf2[p.name])

    @given(spaces_with_vectors())
    @settings(max_examples=100, deadline=None)
    def test_encode_lands_in_the_unit_cube(self, sv):
        space, u = sv
        v = space.encode(space.decode(u))
        assert np.all(v >= 0.0) and np.all(v <= 1.0)

    @given(spaces_with_vectors(low=-3.0, high=4.0))
    @settings(max_examples=100, deadline=None)
    def test_out_of_bounds_coordinates_clip(self, sv):
        """decode(u) == decode(clip(u, 0, 1)) — no wrap-around, no error."""
        space, u = sv
        assert space.decode(u) == space.decode(np.clip(u, 0.0, 1.0))


class TestDiscreteExactness:
    @given(spaces())
    @settings(max_examples=100, deadline=None)
    def test_every_discrete_value_is_a_fixed_point(self, space):
        """from_unit(to_unit(v)) == v for every reachable discrete value."""
        for p in space:
            if not _is_discrete(p):
                continue
            values = (p.choices if isinstance(p, CategoricalParameter)
                      else [False, True] if isinstance(p, BoolParameter)
                      else {p.from_unit(float(u))
                            for u in np.linspace(0.0, 1.0, 23)})
            for v in values:
                assert p.from_unit(p.to_unit(v)) == v

    @given(st.integers(2, 24), st.floats(0.0, 0.999))
    @settings(max_examples=150, deadline=None)
    def test_categorical_cells_are_stable(self, k, frac):
        """Every coordinate inside a choice's cell decodes to that choice,
        and the cell-centre encoding is that cell's midpoint."""
        p = CategoricalParameter("c", [f"c{j}" for j in range(k)], "c0")
        u = frac  # lands in cell floor(frac * k)
        choice = p.from_unit(u)
        assert choice == f"c{int(frac * k)}"
        assert p.from_unit(p.to_unit(choice)) == choice
        # Nudging within the same cell never changes the decode.
        centre = p.to_unit(choice)
        eps = 0.49 / k
        assert p.from_unit(centre - eps) == choice
        assert p.from_unit(centre + eps) == choice


class TestConfFileRoundTrip:
    @given(spaces_with_vectors())
    @settings(max_examples=100, deadline=None)
    def test_conf_file_parses_back_to_the_same_strings(self, sv):
        space, u = sv
        enc = ConfigurationEncoder(space)
        conf = space.decode(u)
        assert enc.parse_conf_file(enc.to_conf_file(conf)) \
            == enc.to_strings(conf)
