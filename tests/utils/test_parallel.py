"""Tests for the shared parallel-execution helper."""

import os
from unittest import mock

import pytest

from repro.utils.parallel import available_cpus, parallel_map, resolve_n_jobs


def _square(x):
    return x * x


class TestResolveNJobs:
    def test_default_is_serial(self):
        assert resolve_n_jobs(None) == 1

    def test_explicit_value(self):
        assert resolve_n_jobs(3) == 3

    # The worker count only ever comes from the caller: ROBOTUNE_JOBS,
    # once the fallback for ``None``, is no longer read.
    def test_env_var_fallback(self):
        with mock.patch.dict(os.environ, {"ROBOTUNE_JOBS": "4"}):
            assert resolve_n_jobs(None) == 1

    def test_explicit_overrides_env(self):
        with mock.patch.dict(os.environ, {"ROBOTUNE_JOBS": "4"}):
            assert resolve_n_jobs(2) == 2

    def test_bad_env_var_rejected(self):
        # A bad value is ignored with the variable, not raised.
        with mock.patch.dict(os.environ, {"ROBOTUNE_JOBS": "zero"}):
            assert resolve_n_jobs(None) == 1

    def test_negative_counts_back_from_cpus(self):
        assert resolve_n_jobs(-1) == available_cpus()

    def test_too_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_n_jobs(-available_cpus() - 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            resolve_n_jobs(0)


class TestAvailableCpus:
    def test_positive(self):
        assert available_cpus() >= 1


class TestParallelMap:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_preserves_order(self, backend):
        items = list(range(17))
        assert parallel_map(_square, items, n_jobs=2, backend=backend) \
            == [x * x for x in items]

    def test_empty_items(self):
        assert parallel_map(_square, [], n_jobs=4) == []

    def test_single_item_short_circuits(self):
        assert parallel_map(_square, [5], n_jobs=8) == [25]

    def test_serial_equals_parallel(self):
        items = list(range(40))
        serial = parallel_map(_square, items, n_jobs=1)
        threaded = parallel_map(_square, items, n_jobs=4, backend="thread")
        assert serial == threaded

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            parallel_map(_square, [1, 2], n_jobs=2, backend="mpi")

    def test_exception_propagates(self):
        def boom(x):
            raise RuntimeError("boom")
        with pytest.raises(RuntimeError):
            parallel_map(boom, [1, 2, 3], n_jobs=2, backend="thread")
