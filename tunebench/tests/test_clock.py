"""Rescaling a clocked session to the reference speed."""

import pytest

from clock import NOMINAL_S, scaled_calls, smoothed


def _log(kernel, calls=4, gap=1.0, call=0.5, t=0.0):
    """A call every gap + call CPU seconds after *t*, each spending
    *kernel* seconds of its *call* on the reference kernel."""
    log = []
    for _ in range(calls):
        start = t + gap
        log.append((start, start + call, kernel))
        t = start + call
    return log


def test_nominal_speed_leaves_times_as_they_are():
    speed, gaps = scaled_calls(_log(NOMINAL_S))
    assert speed == pytest.approx(1.0)
    assert gaps == pytest.approx([1.0] * 3)


def test_a_slow_machine_reads_as_the_nominal_one():
    # Everything, the kernel included, takes twice as long.
    slow = [(2 * a, 2 * b, 2 * k) for a, b, k in _log(NOMINAL_S)]
    speed, gaps = scaled_calls(slow)
    assert speed == pytest.approx(0.5)
    assert gaps == pytest.approx([1.0] * 3)


def test_each_stretch_takes_the_kernel_time_next_to_it():
    # The core halves its speed after five calls; the kernel says so.
    fast = _log(NOMINAL_S, calls=5)
    slow = _log(2 * NOMINAL_S, calls=5, gap=2.0, call=1.0, t=fast[-1][1])
    speed, gaps = scaled_calls(fast + slow)
    assert gaps == pytest.approx([1.0] * 9)
    assert 0.5 < speed < 1.0


def test_running_median_ignores_one_interrupted_kernel():
    assert smoothed([1, 1, 9, 1, 1]) == [1, 1, 1, 1, 1]
    assert smoothed([1, 2, 3, 4, 5, 6]) == [2, 3, 3, 4, 5, 5]


def test_one_call_is_an_error():
    with pytest.raises(ValueError):
        scaled_calls(_log(NOMINAL_S, calls=1))
