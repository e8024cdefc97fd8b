"""Hardware model of the cluster the simulation runs on.

Defaults mirror the paper's testbed (§5.1): one master plus five workers,
each with two 16-core 2.1 GHz Xeon Gold 6130 CPUs (32 cores), 192 GB of
memory, a 7200-RPM 2 TB hard disk, connected by 10-Gigabit Ethernet.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["NodeSpec", "ClusterSpec", "paper_cluster"]


@dataclass(frozen=True)
class NodeSpec:
    """One worker node's hardware."""

    cores: int = 32
    memory_mb: int = 192 * 1024
    # Sequential bandwidth of a 7200-RPM SATA disk and its seek penalty.
    disk_bw_mbps: float = 140.0
    disk_seek_ms: float = 8.0
    # 10 GbE NIC, usable payload bandwidth.
    net_bw_mbps: float = 1150.0
    net_rtt_ms: float = 0.25
    # Relative CPU speed (1.0 = the paper's 2.1 GHz Xeon Gold 6130).
    cpu_speed: float = 1.0

    def __post_init__(self) -> None:
        if self.cores <= 0 or self.memory_mb <= 0:
            raise ValueError("node must have positive cores and memory")
        if min(self.disk_bw_mbps, self.net_bw_mbps, self.cpu_speed) <= 0:
            raise ValueError("bandwidths and cpu_speed must be positive")


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of worker nodes plus a master/driver node."""

    n_workers: int = 5
    node: NodeSpec = field(default_factory=NodeSpec)
    # HDFS-style replicated storage: input reads hit the local disk when the
    # task is data-local, otherwise they stream over the network.
    hdfs_replication: int = 3

    def __post_init__(self) -> None:
        if self.n_workers <= 0:
            raise ValueError("cluster must have at least one worker")
        if self.hdfs_replication < 1:
            raise ValueError("hdfs_replication must be >= 1")


def paper_cluster() -> ClusterSpec:
    """The six-node testbed from §5.1 (five workers, one master)."""
    return ClusterSpec()
