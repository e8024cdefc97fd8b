"""The percentile rule and the summary statistics."""

import numpy as np
import pytest

from stats import geomean, percentile, reportable_percentile


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (240, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert reportable_percentile(n) == expected


def test_percentile_matches_numpy_linear():
    rng = np.random.default_rng(3)
    xs = list(rng.lognormal(size=241))
    for p in (0, 5, 50, 90, 95, 100):
        assert percentile(xs, p) == pytest.approx(np.percentile(xs, p))


def test_geomean():
    assert geomean([1.0, 4.0, 16.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])
