"""Task scheduling: turning per-task durations into a stage makespan.

Every stage runs :func:`apply_speculation`, then
:func:`list_schedule_fast`: a vectorized wave approximation of greedy
list scheduling in which task *i* runs in slot ``i % slots`` and the
makespan is the maximum per-slot sum.  It is exact for equal durations
and within a few percent for the lognormal task noise used here, at a
fraction of the cost of an event loop (pure NumPy).  Tests check it
against a heap-based earliest-free-slot scheduler and an event-driven
stage model (``tests/sparksim/oracle.py``) on randomized inputs.

Speculative execution (``spark.speculation``) is modelled here: once the
configured quantile of tasks has finished, any task whose duration exceeds
``multiplier × median`` is re-launched; the copy finishes in roughly median
time, so the straggler's effective duration is capped.
"""

from __future__ import annotations

import numpy as np

from .conf import SparkConf

__all__ = [
    "list_schedule_fast",
    "apply_speculation",
    "stage_makespan",
]


def list_schedule_fast(durations: np.ndarray, slots: int,
                       dispatch_s: float = 0.0) -> float:
    """Vectorized wave approximation of greedy list scheduling.

    Task *i* is assigned to slot ``i % slots``; each slot's finish time is
    the sum of its tasks, plus the dispatch-serialization lower bound (the
    driver launches task *i* no earlier than ``i * dispatch_s``).
    """
    durations = np.asarray(durations, dtype=float)
    if slots < 1:
        raise ValueError("slots must be >= 1")
    n = durations.size
    if n == 0:
        return 0.0
    if np.any(durations < 0):
        raise ValueError("durations must be non-negative")
    slots = min(slots, n)
    waves = -(-n // slots)
    padded = np.zeros(waves * slots, dtype=float)
    padded[:n] = durations
    per_slot = padded.reshape(waves, slots).sum(axis=0)
    makespan = float(per_slot.max())
    # The last task cannot be dispatched earlier than (n-1) * dispatch_s.
    dispatch_floor = (n - 1) * dispatch_s + float(durations[-1]) if dispatch_s else 0.0
    return max(makespan, dispatch_floor)


def apply_speculation(durations: np.ndarray, conf: SparkConf,
                      slots: int) -> tuple[np.ndarray, float]:
    """Cap straggler durations per Spark's speculation rules.

    Returns the adjusted durations and the extra core-seconds consumed by
    speculative copies (charged as a small utilization penalty elsewhere).
    Speculation only helps when spare slots exist to run copies; with every
    slot busy in every wave the copies queue and the benefit vanishes, so
    the cap is scaled by the spare-capacity fraction of the final wave.
    """
    durations = np.asarray(durations, dtype=float)
    if not conf.speculation or durations.size < 2:
        return durations, 0.0
    median = float(np.median(durations))
    if median <= 0.0:
        return durations, 0.0
    threshold = conf.speculation_multiplier * median
    # Detection happens once `quantile` of tasks finished — roughly after
    # `median` time — so a relaunched copy finishes near detection + median.
    cap = max(threshold, 2.0 * median)
    slow = durations > cap
    if not np.any(slow):
        return durations, 0.0
    n = durations.size
    last_wave = n % slots if slots < n else 0
    spare_frac = 1.0 if last_wave == 0 and slots >= n else \
        (slots - last_wave) / slots if last_wave else 0.3
    spare_frac = max(min(spare_frac, 1.0), 0.0)
    capped = durations.copy()
    capped[slow] = cap + (durations[slow] - cap) * (1.0 - spare_frac)
    extra_core_s = float(np.sum(np.minimum(durations[slow], cap)) * 0.5)
    return capped, extra_core_s


def stage_makespan(durations: np.ndarray, conf: SparkConf, slots: int,
                   dispatch_s: float = 0.0) -> tuple[float, int]:
    """Makespan of a stage, with speculation applied; returns (seconds, waves)."""
    durations, _extra = apply_speculation(durations, conf, slots)
    waves = -(-durations.size // max(min(slots, durations.size), 1)) \
        if durations.size else 0
    return list_schedule_fast(durations, slots, dispatch_s), waves
