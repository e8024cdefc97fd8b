"""Span recorder: nesting, sessions, self time and the residual."""

import threading

import pytest

from spans import Span, SpanRecorder, coverage, dump, load, self_times, \
    unattributed


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _span(id, start, end, parent=None, session="s"):
    return Span(id, f"n{id}", start, end, parent, session)


def test_coverage_unions_overlaps_and_clips():
    assert coverage([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert coverage([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == pytest.approx(2)
    assert coverage([], 0, 1) == 0
    assert coverage([(2, 3)], 4, 5) == 0


def test_self_time_subtracts_children_once():
    spans = [_span(1, 0, 10), _span(2, 1, 4, parent=1),
             _span(3, 3, 6, parent=1), _span(4, 2, 3, parent=2)]
    own = self_times(spans)
    assert own[1] == pytest.approx(10 - 5)   # children cover [1, 6]
    assert own[2] == pytest.approx(3 - 1)
    assert own[3] == pytest.approx(3)
    assert own[4] == pytest.approx(1)


def test_unattributed_is_wall_minus_top_level_union():
    session = _span(1, 0, 10)
    layers = [_span(2, 1, 3), _span(3, 2, 4), _span(4, 9, 12)]
    assert unattributed(session, layers) == pytest.approx(10 - 3 - 1)


def test_recorder_nests_per_thread_and_tags_sessions():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    with rec.session("a") as top:
        clock.advance(1)
        with rec.span("outer") as outer:
            clock.advance(2)
            with rec.span("inner") as inner:
                clock.advance(3)
        clock.advance(4)
    assert (outer.parent, inner.parent) == (top.id, outer.id)
    assert {s.session for s in rec.spans} == {"a"}
    assert top.duration == 10 and inner.duration == 3
    own = self_times(rec.spans)
    assert own[outer.id] == 2 and own[top.id] == 5
    assert unattributed(top, [outer]) == 5

    seen = {}

    def other():
        with rec.span("elsewhere") as s:
            seen["span"] = s

    with rec.session("b"):
        thread = threading.Thread(target=other)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen["span"].parent is None and seen["span"].session is None


def test_counters_and_dump_round_trip():
    rec = SpanRecorder(id_offset=100)
    with rec.span("x"):
        rec.count("calls")
        rec.count("rows", 5)
    spans, counters = load(dump(rec))
    assert spans[0].id == 101 and spans[0].name == "x"
    assert counters == {"calls": 1, "rows": 5}
