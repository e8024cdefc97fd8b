"""Per-task cost components.

Pure functions mapping (stage, configuration, placement, memory state) to
the time components of one task: input read, deserialization, compute (with
GC slowdown), shuffle write, spill.  The scheduler turns the resulting
per-task durations into a stage makespan.

All helper rates are in MB and seconds; ``logical`` MB means serialized
on-disk-baseline bytes (see :mod:`repro.sparksim.stage`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cluster import NodeSpec
from .conf import SparkConf
from .disk import effective_disk_bw, shuffle_write_bw
from .network import remote_read_seconds
from .serialization import CodecModel, SerializerModel

__all__ = ["MemoryState", "locality_fraction",
           "hdfs_read_seconds", "shuffle_write_seconds", "spill_seconds",
           "SORT_CPU_S_PER_MB", "MEM_READ_MBPS"]

# CPU cost of sort-merging one MB of shuffle data (reference core).
SORT_CPU_S_PER_MB = 0.004
# Effective bandwidth of reading deserialized cached data (memory speed,
# including iterator overhead).
MEM_READ_MBPS = 6000.0


@dataclass(frozen=True)
class MemoryState:
    """Executor memory situation while a stage runs (all MB, per task)."""

    exec_avail_per_task_mb: float   # execution memory one task may claim
    working_set_mb: float           # the task's deserialized working set
    unroll_mb: float                # memory that must materialize at once

    @property
    def oom(self) -> bool:
        """Unspillable demand exceeds what the task can ever get."""
        return self.unroll_mb > self.exec_avail_per_task_mb

    @property
    def spill_mb(self) -> float:
        """Working-set overflow that must round-trip through disk."""
        return max(self.working_set_mb - self.exec_avail_per_task_mb, 0.0)

    @property
    def spill_passes(self) -> float:
        """Extra merge passes caused by deep overflow (1 = single spill)."""
        if self.spill_mb <= 0.0 or self.exec_avail_per_task_mb <= 0.0:
            return 1.0
        return min(1.0 + self.spill_mb / self.exec_avail_per_task_mb, 3.0)


def locality_fraction(conf: SparkConf, nodes_used: int, n_workers: int,
                      replication: int) -> tuple[float, float]:
    """(fraction of data-local input tasks, scheduling delay per non-local task).

    With executors on ``nodes_used`` of ``n_workers`` nodes and blocks
    replicated ``replication`` ways, the chance that some replica of a
    block lives on an executor node rises quickly with coverage.  Waiting
    (``spark.locality.wait``) converts more tasks to local at the price of
    idle slot time.
    """
    coverage = min(nodes_used * replication / n_workers, 1.0) \
        if n_workers > 0 else 1.0
    base_local = min(0.98, coverage)
    wait = conf.locality_wait_s
    # Waiting up to `wait` lets the scheduler place most remaining tasks
    # locally; diminishing returns after ~3s.
    recovered = (1.0 - base_local) * (wait / (wait + 2.0))
    local = base_local + recovered
    delay = wait * (1.0 - local) * 0.5
    return local, delay


def hdfs_read_seconds(per_task_mb: float, node: NodeSpec,
                      concurrent_per_node: int, local_fraction: float,
                      deser_mbps: float) -> float:
    """Time to read and deserialize one input partition.

    Local tasks stream from the node's disk (shared with concurrent
    tasks); non-local ones additionally cross the network.
    """
    disk = per_task_mb / effective_disk_bw(node, max(concurrent_per_node, 1))
    remote = remote_read_seconds(per_task_mb, node)
    io = local_fraction * disk + (1.0 - local_fraction) * (disk + remote) * 0.9
    deser = per_task_mb / deser_mbps
    return io + deser


def shuffle_write_seconds(logical_out_mb: float, conf: SparkConf,
                          node: NodeSpec, concurrent_per_node: int,
                          ser: SerializerModel, codec: CodecModel,
                          reduce_partitions: int, map_side_agg: bool,
                          gc_factor: float) -> tuple[float, float]:
    """(seconds, wire MB written) for one task's shuffle write.

    The write path: sort (unless the bypass-merge path applies) →
    serialize → optionally compress → buffered disk write.
    """
    if logical_out_mb <= 0.0:
        return 0.0, 0.0
    bypass = (not map_side_agg
              and reduce_partitions <= conf.shuffle_sort_bypass_threshold)
    sort_cpu = logical_out_mb * SORT_CPU_S_PER_MB * (0.25 if bypass else 1.0)
    # Bypass writes one file per reduce partition; with very many reducers
    # the tiny-file overhead eats the saving.
    if bypass and reduce_partitions > 500:
        sort_cpu += logical_out_mb * SORT_CPU_S_PER_MB * 0.5
    ser_cpu = logical_out_mb / ser.ser_mbps
    wire_mb = logical_out_mb * ser.size_ratio
    comp_cpu = 0.0
    if conf.shuffle_compress:
        comp_cpu = wire_mb / codec.comp_mbps
        wire_mb *= codec.ratio
    bw = shuffle_write_bw(node, max(concurrent_per_node, 1),
                          conf.shuffle_file_buffer_kb)
    disk_s = wire_mb / bw
    cpu_s = (sort_cpu + ser_cpu + comp_cpu) * gc_factor / node.cpu_speed
    return cpu_s + disk_s, wire_mb


def spill_seconds(state: MemoryState, conf: SparkConf, node: NodeSpec,
                  concurrent_per_node: int, ser: SerializerModel,
                  codec: CodecModel) -> tuple[float, float]:
    """(seconds, spilled MB) for one task's execution-memory overflow."""
    if state.spill_mb <= 0.0:
        return 0.0, 0.0
    logical = state.spill_mb / 2.5  # working-set MB back to logical MB
    bytes_mb = logical * ser.size_ratio
    cpu = logical / ser.ser_mbps + logical / ser.deser_mbps
    if conf.shuffle_spill_compress:
        cpu += bytes_mb / codec.comp_mbps + bytes_mb * codec.ratio / codec.decomp_mbps
        bytes_mb *= codec.ratio
    disk_bw = effective_disk_bw(node, max(concurrent_per_node, 1))
    io = 2.0 * bytes_mb / disk_bw  # write then read back
    passes = state.spill_passes
    return (cpu + io) * passes / node.cpu_speed, state.spill_mb * passes

