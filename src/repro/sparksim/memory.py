"""Executor memory model: Spark's unified memory manager.

Mirrors Spark 2.x's ``UnifiedMemoryManager``:

* ``usable = heap - reserved`` (300 MB reserved for the system),
* ``unified = usable * spark.memory.fraction`` shared by execution and
  storage,
* storage may borrow all free unified memory, but execution can evict
  cached blocks back down to ``unified * spark.memory.storageFraction``
  (the eviction-immune storage floor),
* optional off-heap memory adds capacity to both regions when enabled.

The model answers two questions per stage: how much cached data fits
without eviction, and how much execution memory each concurrently running
task can claim (which determines spilling and OOM).
"""

from __future__ import annotations

from dataclasses import dataclass

from .conf import SparkConf

__all__ = ["ExecutorMemory", "executor_memory"]

RESERVED_MB = 300.0


@dataclass(frozen=True)
class ExecutorMemory:
    """Derived memory capacities of one executor, in MB."""

    heap_mb: float
    unified_mb: float        # execution + storage pool (on-heap)
    offheap_mb: float        # extra pool when off-heap is enabled
    storage_floor_mb: float  # cached data immune to eviction
    user_mb: float           # heap outside the unified pool (user objects)

    @property
    def total_unified_mb(self) -> float:
        """On-heap unified pool plus any off-heap pool."""
        return self.unified_mb + self.offheap_mb

    def execution_available_mb(self, cached_mb: float) -> float:
        """Execution memory available given current cache occupancy.

        Execution may evict cached blocks above the storage floor, so only
        the floor (or the actual cached amount, if smaller) is off-limits.
        """
        protected = min(max(cached_mb, 0.0), self.storage_floor_mb)
        return max(self.total_unified_mb - protected, 0.0)

    def cache_fit_mb(self, execution_demand_mb: float) -> float:
        """Cached bytes that survive a stage demanding this much execution
        memory: storage keeps everything execution does not claim, but never
        less than the floor (bounded by total capacity)."""
        free = self.total_unified_mb - min(execution_demand_mb,
                                           self.total_unified_mb)
        return max(free, min(self.storage_floor_mb, self.total_unified_mb))


def executor_memory(conf: SparkConf) -> ExecutorMemory:
    """Compute one executor's memory regions from its configuration."""
    heap = float(conf.executor_memory_mb)
    usable = max(heap - RESERVED_MB, heap * 0.1)
    unified = usable * conf.memory_fraction
    offheap = float(conf.offheap_size_mb) if conf.offheap_enabled else 0.0
    floor = (unified + offheap) * conf.storage_fraction
    user = max(usable - unified, 0.0)
    return ExecutorMemory(
        heap_mb=heap,
        unified_mb=unified,
        offheap_mb=offheap,
        storage_floor_mb=floor,
        user_mb=user,
    )
