"""JVM garbage-collection overhead model.

GC cost in Spark executors is driven by allocation rate (serialization
churn) and heap pressure (live data close to heap size forces frequent full
collections).  The model produces a multiplicative slowdown applied to
task CPU time:

* baseline young-gen overhead proportional to allocation pressure,
* a sharply super-linear term as live-set/heap utilization approaches 1,
* a mild large-heap term (bigger heaps mean longer, if rarer, pauses).

The super-linear pressure term is what creates the performance *cliff*
between "fits in memory" and "thrashes": configurations on the wrong side
are several times slower, matching the long right tails in Figure 5.
"""

from __future__ import annotations

__all__ = ["gc_slowdown"]


def gc_slowdown(heap_mb: float, live_mb: float, alloc_factor: float) -> float:
    """Multiplicative CPU slowdown due to garbage collection.

    Parameters
    ----------
    heap_mb:
        Executor heap size.
    live_mb:
        Long-lived data resident on the heap (cached blocks, buffers).
    alloc_factor:
        Relative allocation pressure of the active serializer (1.0 = Java).

    Returns
    -------
    A factor >= 1.0; e.g. 1.3 means 30% of extra time lost to GC.
    """
    if heap_mb <= 0:
        raise ValueError("heap_mb must be positive")
    util = min(max(live_mb, 0.0) / heap_mb, 0.98)
    # Young-generation churn: ~3% base, scaled by allocation pressure.
    young = 0.03 * alloc_factor
    # Old-generation pressure: negligible below ~60% utilization, then
    # rises steeply: at 80% ≈ +35%, at 95% ≈ +150% (a nearly-full heap
    # spends most of its time in stop-the-world collections).
    pressure = 0.0
    if util > 0.6:
        x = (util - 0.6) / 0.38
        pressure = 1.8 * x ** 2.0
    # Very large heaps pay slightly longer stop-the-world pauses.
    large_heap = 0.015 * max(heap_mb - 64 * 1024, 0.0) / (128 * 1024)
    return 1.0 + young + pressure + large_heap

