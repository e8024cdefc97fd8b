"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["percentile", "reportable_percentile", "median", "geomean"]

#: Candidate percentiles, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def reportable_percentile(n: int, min_beyond: int = 10) -> float | None:
    """The highest of :data:`PERCENTILES` with at least *min_beyond* of
    *n* samples above it, or None when even the median has too few."""
    best = None
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= min_beyond - 1e-9:
            best = p
    return best


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def geomean(values: Sequence[float]) -> float:
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
