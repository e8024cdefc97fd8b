"""Disk IO cost model.

A single 7200-RPM disk per node is shared by every task running on that
node.  Sequential streams achieve the nominal bandwidth; many concurrent
streams degrade toward random IO because the head seeks between files.
Buffer sizes matter: small shuffle write buffers flush tiny blocks and pay
a seek per flush.
"""

from __future__ import annotations

from .cluster import NodeSpec

__all__ = ["effective_disk_bw", "shuffle_write_bw"]


def effective_disk_bw(node: NodeSpec, concurrent_streams: int) -> float:
    """Per-stream disk bandwidth (MB/s) with *concurrent_streams* sharing.

    Aggregate bandwidth also shrinks as streams multiply (seek overhead):
    1 stream = 100%, 8 streams ≈ 70%, 32+ streams ≈ 50% of nominal.
    """
    if concurrent_streams < 1:
        raise ValueError("concurrent_streams must be >= 1")
    agg_eff = 0.5 + 0.5 / (1.0 + (concurrent_streams - 1) / 8.0)
    return node.disk_bw_mbps * agg_eff / concurrent_streams


def shuffle_write_bw(node: NodeSpec, concurrent_streams: int,
                     buffer_kb: int) -> float:
    """Disk bandwidth for shuffle writes given the file buffer size.

    Each buffer flush costs roughly one seek; with a ``b`` KB buffer the
    seek cost per MB is ``(1024 / b) * seek``.  A 32 KB buffer on an 8 ms
    disk wastes ~0.26 s/MB worst case, so the model amortizes with stream
    interleaving (flushes from concurrent tasks batch together).
    """
    if buffer_kb <= 0:
        raise ValueError("buffer_kb must be positive")
    base = effective_disk_bw(node, concurrent_streams)
    flushes_per_mb = 1024.0 / buffer_kb
    # Interleaved flushing amortizes seeks heavily; keep a mild penalty
    # that favours 64-512 KB buffers over 16-32 KB ones.
    seek_s_per_mb = flushes_per_mb * (node.disk_seek_ms / 1000.0) * 0.05
    seconds_per_mb = 1.0 / base + seek_s_per_mb
    return 1.0 / seconds_per_mb
