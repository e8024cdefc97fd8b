"""Tests for the unified memory manager model."""

import pytest

from repro.sparksim import SparkConf, executor_memory
from repro.sparksim.memory import RESERVED_MB


def mem(heap_mb=8192, fraction=0.6, storage=0.5, offheap=False,
        offheap_mb=2048):
    return executor_memory(SparkConf({
        "spark.executor.memory": heap_mb,
        "spark.memory.fraction": fraction,
        "spark.memory.storageFraction": storage,
        "spark.memory.offHeap.enabled": offheap,
        "spark.memory.offHeap.size": offheap_mb,
    }))


class TestRegions:
    def test_unified_formula(self):
        m = mem(heap_mb=8192, fraction=0.6)
        assert m.unified_mb == pytest.approx((8192 - RESERVED_MB) * 0.6)

    def test_storage_floor(self):
        m = mem(storage=0.5)
        assert m.storage_floor_mb == pytest.approx(m.unified_mb * 0.5)

    def test_offheap_extends_pools(self):
        base = mem(offheap=False)
        ext = mem(offheap=True, offheap_mb=4096)
        assert ext.total_unified_mb == pytest.approx(base.unified_mb + 4096)

    def test_tiny_heap_keeps_positive_usable(self):
        m = mem(heap_mb=1024)
        assert m.unified_mb > 0


class TestExecutionAvailability:
    def test_empty_cache_gives_full_pool(self):
        m = mem()
        assert m.execution_available_mb(0.0) == pytest.approx(m.total_unified_mb)

    def test_cache_below_floor_fully_protected(self):
        m = mem()
        cached = m.storage_floor_mb * 0.5
        assert m.execution_available_mb(cached) == \
            pytest.approx(m.total_unified_mb - cached)

    def test_cache_above_floor_evictable(self):
        m = mem()
        cached = m.total_unified_mb  # cache filled everything
        # Execution can evict down to the floor.
        assert m.execution_available_mb(cached) == \
            pytest.approx(m.total_unified_mb - m.storage_floor_mb)


class TestCacheFit:
    def test_no_execution_demand_keeps_everything(self):
        m = mem()
        assert m.cache_fit_mb(0.0) == pytest.approx(m.total_unified_mb)

    def test_heavy_execution_leaves_only_floor(self):
        m = mem()
        assert m.cache_fit_mb(m.total_unified_mb * 2) == \
            pytest.approx(m.storage_floor_mb)

    def test_higher_storage_fraction_protects_more_cache(self):
        lo = mem(storage=0.2)
        hi = mem(storage=0.8)
        demand = lo.total_unified_mb  # saturating execution demand
        assert hi.cache_fit_mb(demand) > lo.cache_fit_mb(demand)
