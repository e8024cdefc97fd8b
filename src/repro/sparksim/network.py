"""Network cost model for shuffle fetches and remote reads.

Shuffle reads are all-to-all: every reducer fetches blocks from every
mapper node.  The per-node NIC is the bottleneck; how close a fetch gets to
line rate depends on how much data is kept in flight
(``spark.reducer.maxSizeInFlight``, ``maxReqsInFlight``) and on connection
reuse (``numConnectionsPerPeer``) — small windows leave the pipe idle
between requests.
"""

from __future__ import annotations

from .cluster import NodeSpec
from .conf import SparkConf

__all__ = ["fetch_efficiency", "shuffle_fetch_seconds", "remote_read_seconds"]


def fetch_efficiency(conf: SparkConf, node: NodeSpec) -> float:
    """Fraction of NIC bandwidth a reducer's fetch pipeline achieves.

    Modeled as a bandwidth-delay-product argument: with ``W`` MB in flight
    and round-trip ``rtt``, throughput ≈ min(BW, W / rtt); extra concurrent
    requests and per-peer connections recover part of the gap.
    """
    window_mb = float(conf.reducer_max_size_in_flight_mb)
    reqs = min(conf.reducer_max_reqs_in_flight, 64)
    conns = conf.shuffle_connections_per_peer
    rtt_s = node.net_rtt_ms / 1000.0
    # Effective in-flight data grows sub-linearly with extra requests and
    # connections (they overlap the same window).
    eff_window = window_mb * (1.0 + 0.15 * (min(reqs, 16) - 1) / 15.0) \
        * (1.0 + 0.1 * (conns - 1) / 7.0)
    achievable = eff_window / max(rtt_s, 1e-6)           # MB/s if latency-bound
    eff = min(1.0, achievable / node.net_bw_mbps)
    # Even huge windows leave protocol overhead on the table.
    return max(0.05, min(eff, 0.92))


def shuffle_fetch_seconds(total_mb: float, conf: SparkConf, node: NodeSpec,
                          nodes_used: int) -> float:
    """Seconds for the cluster to move *total_mb* of shuffle data.

    With executors on ``nodes_used`` nodes, a fraction ``1/nodes_used`` of
    the data is node-local; the rest crosses NICs, which operate in
    parallel across nodes.
    """
    if total_mb < 0:
        raise ValueError("total_mb must be non-negative")
    if nodes_used < 1:
        raise ValueError("nodes_used must be >= 1")
    if total_mb == 0.0:
        return 0.0
    remote_fraction = 1.0 - 1.0 / nodes_used
    remote_mb = total_mb * remote_fraction
    if remote_mb == 0.0:
        return 0.0
    per_node_mb = remote_mb / nodes_used
    bw = node.net_bw_mbps * fetch_efficiency(conf, node)
    return per_node_mb / bw


def remote_read_seconds(mb: float, node: NodeSpec) -> float:
    """Seconds to stream *mb* from a remote disk (non-local input read)."""
    if mb < 0:
        raise ValueError("mb must be non-negative")
    bw = min(node.net_bw_mbps * 0.8, node.disk_bw_mbps)
    return mb / bw if mb else 0.0

