"""Discrete-event Spark application simulator.

Executes a workload's stage DAG under a configuration on a modelled
cluster, producing the wall-clock duration a tuner would observe.  The
simulation is event-driven at task granularity but vectorized per stage
(per the HPC guideline of replacing Python loops with NumPy): all task
durations of a stage are drawn at once and scheduled onto executor slots by
the wave scheduler, which tests verify against an exact heap-based
event-loop scheduler.

What the model captures (and why the tuning problem stays hard):

* executor packing — cores×memory imbalance strands resources;
* Spark's unified memory manager — caching, eviction, spilling, and OOM
  cliffs as working sets cross region boundaries;
* shuffle write/fetch — serializer, codec, buffers, in-flight windows,
  NIC floors;
* GC pressure — super-linear slowdown near heap saturation;
* scheduling — waves, dispatch serialization, locality wait, speculation;
* failures — OOM, Kryo buffer overflow, RPC/result-size limits — which
  make regions of the space catastrophically bad, not merely slow;
* noise — per-run contention and per-task stragglers, so repeated
  evaluations of one configuration differ (i.i.d., as BO assumes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..utils.rng import as_generator, spawn
from .cluster import ClusterSpec, paper_cluster
from .conf import SparkConf
from .disk import effective_disk_bw
from .gcmodel import gc_slowdown
from .memory import RESERVED_MB, ExecutorMemory, executor_memory
from .network import shuffle_fetch_seconds
from .placement import Placement, place_executors
from .result import ExecutionResult, RunStatus, StageMetrics
from .scheduler import stage_makespan
from .serialization import (codec_model, kryo_buffer_failure,
                            serializer_model)
from .stage import CachedRDD, CacheLevel, InputSource, StageSpec
from .taskmodel import (MEM_READ_MBPS, MemoryState, hdfs_read_seconds,
                        locality_fraction, shuffle_write_seconds,
                        spill_seconds)

__all__ = ["SparkSimulator"]

# Application startup: master handshake + executor JVM launches.
_APP_STARTUP_S = 4.0
_PER_EXECUTOR_STARTUP_S = 0.12
# Driver-side task dispatch cost (per task, serialized).
_DISPATCH_BASE_S = 0.002
# Per-stage fixed overhead (DAG scheduling, task-set construction).
_STAGE_LAUNCH_S = 0.08
# Noise magnitudes.
_RUN_NOISE_SIGMA = 0.03
_TASK_NOISE_SIGMA = 0.08
_STRAGGLER_PROB = 0.02
_STRAGGLER_RANGE = (1.5, 2.5)


@dataclass
class _CacheEntry:
    """A cached RDD's materialized state."""

    rdd: CachedRDD
    stored_mb: float          # cluster-wide bytes in the block managers
    resident_fraction: float  # surviving fraction after evictions
    partitions: int
    on_heap: bool


class SparkSimulator:
    """Runs workload stage lists under Spark configurations.

    Parameters
    ----------
    cluster:
        Hardware model; defaults to the paper's 5-worker testbed.
    """

    def __init__(self, cluster: ClusterSpec | None = None):
        self.cluster = cluster or paper_cluster()

    # -- public API ---------------------------------------------------------------
    def run(self, stages: Sequence[StageSpec],
            conf: SparkConf | Mapping[str, object],
            rng: np.random.Generator | int | None = None,
            time_limit_s: float | None = None) -> ExecutionResult:
        """Simulate one application execution.

        Parameters
        ----------
        stages:
            The workload's compiled stage list (see :mod:`repro.workloads`).
        conf:
            A :class:`SparkConf` or a native configuration mapping.
        rng:
            Noise source; fix it for reproducible runs.
        time_limit_s:
            Execution cap (the paper uses 480 s): the run is killed and
            reported as TIMEOUT when simulated time crosses the cap.

        Returns
        -------
        :class:`ExecutionResult` with status, duration and stage metrics.
        """
        if not isinstance(conf, SparkConf):
            conf = SparkConf(conf)
        if not stages:
            raise ValueError("workload has no stages")
        rng = as_generator(rng)
        node = self.cluster.node

        placement = place_executors(conf, self.cluster)
        if not placement.viable:
            return ExecutionResult(RunStatus.INVALID, 8.0,
                                   failure_reason="no executor fits on any node")

        mem = executor_memory(conf)
        ser = serializer_model(conf)
        codec = codec_model(conf)
        run_noise = float(np.exp(rng.normal(0.0, _RUN_NOISE_SIGMA)))

        t = _APP_STARTUP_S + _PER_EXECUTOR_STARTUP_S * placement.executors
        cache: dict[str, _CacheEntry] = {}
        # wire bytes per logical byte of the most recent shuffle write.
        shuffle_wire_ratio = ser.size_ratio * (codec.ratio if conf.shuffle_compress
                                               else 1.0)
        metrics: list[StageMetrics] = []

        for spec in stages:
            out = self._run_stage(spec, conf, placement, mem, ser, codec,
                                  cache, shuffle_wire_ratio, rng, run_noise)
            if isinstance(out, ExecutionResult):
                # stage-level failure; charge elapsed time plus failure time
                return ExecutionResult(out.status, t + out.duration_s,
                                       tuple(metrics), out.failure_reason)
            stage_time, sm, shuffle_wire_ratio = out
            t += stage_time
            metrics.append(sm)
            if time_limit_s is not None and t > time_limit_s:
                return ExecutionResult(RunStatus.TIMEOUT, float(time_limit_s),
                                       tuple(metrics),
                                       failure_reason="execution cap reached")

        return ExecutionResult(RunStatus.SUCCESS, float(t), tuple(metrics))

    def run_batch(self, stages: Sequence[StageSpec],
                  confs: Sequence[SparkConf | Mapping[str, object]],
                  rngs=None,
                  time_limit_s: float | None = None) -> list[ExecutionResult]:
        """Simulate several configurations: :meth:`run` once per
        configuration with the matching generator from *rngs* (a sequence
        of per-config generators/seeds, or a single seed/generator/None
        split via :func:`repro.utils.rng.spawn`).
        """
        if rngs is None or isinstance(rngs, (int, np.random.Generator)):
            rngs = spawn(rngs, len(confs))
        elif len(rngs) != len(confs):
            raise ValueError(f"got {len(rngs)} generators for "
                             f"{len(confs)} configurations")
        return [self.run(stages, conf, rng=rng, time_limit_s=time_limit_s)
                for conf, rng in zip(confs, rngs)]

    # -- stage simulation -----------------------------------------------------------
    def _run_stage(self, spec: StageSpec, conf: SparkConf,
                   placement: Placement, mem: ExecutorMemory,
                   ser, codec, cache: dict[str, _CacheEntry],
                   shuffle_wire_ratio: float, rng: np.random.Generator,
                   run_noise: float):
        node = self.cluster.node
        execs = placement.executors
        slots_per_exec = max(placement.task_slots // execs, 1)

        p = self._partitions(spec, conf, cache)
        per_task_mb = spec.input_mb / p if p else 0.0

        # Concurrency is bounded by the tasks actually in flight: a stage
        # with fewer tasks than slots does not saturate every disk/NIC,
        # and execution memory is shared only among *running* tasks.
        conc_per_exec = min(slots_per_exec, max(-(-p // execs), 1))
        conc_per_node = min(slots_per_exec * placement.executors_per_node,
                            max(-(-p // placement.nodes_used), 1))

        # ---- memory accounting ------------------------------------------------
        cached_per_exec = sum(e.stored_mb for e in cache.values()) / execs
        heap_cached = sum(e.stored_mb for e in cache.values() if e.on_heap) / execs
        working_set = per_task_mb * spec.expansion
        if spec.shuffle_write_ratio > 0.0:
            working_set += per_task_mb * spec.shuffle_write_ratio * spec.expansion * 0.5
        if spec.cache_output is not None and spec.cache_output.level == CacheLevel.MEMORY:
            unroll = per_task_mb * spec.expansion
        else:
            unroll = working_set * spec.unroll_fraction
        exec_avail = mem.execution_available_mb(cached_per_exec) / conc_per_exec
        state = MemoryState(exec_avail_per_task_mb=exec_avail,
                            working_set_mb=working_set, unroll_mb=unroll)

        # Live heap: JVM-reserved system space + on-heap cached blocks +
        # the concurrent tasks' working sets (deserialized records,
        # buffers).  A default 1 GB heap running even one real task sits
        # deep in GC-pressure territory.
        live_mb = RESERVED_MB + heap_cached \
            + working_set * conc_per_exec * 0.8
        gc = gc_slowdown(mem.heap_mb, live_mb, ser.alloc_factor)

        # ---- fast failures ------------------------------------------------------
        if spec.shuffle_write_ratio > 0.0 and \
                kryo_buffer_failure(conf, spec.largest_record_mb):
            return ExecutionResult(
                RunStatus.RUNTIME_ERROR, 10.0,
                failure_reason=f"{spec.name}: record exceeds "
                               "spark.kryoserializer.buffer.max")
        fail = self._driver_failures(spec, conf, p)
        if fail is not None:
            return fail

        # ---- per-task cost components ------------------------------------------------
        local_frac, local_delay = locality_fraction(
            conf, placement.nodes_used, self.cluster.n_workers,
            self.cluster.hdfs_replication)
        read_s, fetch_floor, cache_hit = self._read_costs(
            spec, conf, cache, per_task_mb, p, ser, codec, gc, node,
            conc_per_node, local_frac, placement.nodes_used)
        if spec.input_source == InputSource.HDFS:
            read_s += local_delay

        compute_s = per_task_mb * spec.compute_s_per_mb * gc / node.cpu_speed

        shuffle_s, wire_per_task = shuffle_write_seconds(
            per_task_mb * spec.shuffle_write_ratio, conf, node, conc_per_node,
            ser, codec, conf.default_parallelism, spec.shuffle_agg, gc)
        new_wire_ratio = shuffle_wire_ratio
        if spec.shuffle_write_ratio > 0.0:
            new_wire_ratio = (wire_per_task /
                              max(per_task_mb * spec.shuffle_write_ratio, 1e-12))

        spill_s, spilled_mb = spill_seconds(state, conf, node, conc_per_node,
                                            ser, codec)

        output_s = 0.0
        if spec.output_mb > 0.0:
            out_per_task = spec.output_mb / p
            output_s = out_per_task / effective_disk_bw(node, conc_per_node)

        # OOM check after costs are known, so the failure charges real time.
        if state.oom:
            attempt = (read_s + compute_s) * 1.5 + 12.0
            retries = min(conf.task_max_failures, 4)
            return ExecutionResult(
                RunStatus.OOM, attempt * retries,
                failure_reason=f"{spec.name}: partition working set "
                               f"{state.unroll_mb:.0f} MB exceeds per-task "
                               f"execution memory {exec_avail:.0f} MB")

        base = read_s + compute_s + shuffle_s + spill_s + output_s
        durations = base * np.exp(rng.normal(0.0, _TASK_NOISE_SIGMA, size=p))
        stragglers = rng.random(p) < _STRAGGLER_PROB
        durations[stragglers] *= rng.uniform(*_STRAGGLER_RANGE,
                                             size=int(stragglers.sum()))

        dispatch = _DISPATCH_BASE_S / (0.5 + 0.25 * min(conf.driver_cores, 6))
        makespan, waves = stage_makespan(
            durations, conf, placement.task_slots, dispatch)
        stage_time = max(makespan, fetch_floor)
        stage_time += self._stage_overheads(spec, conf, placement, node)
        stage_time *= run_noise

        # ---- cache materialization at stage end -------------------------------------
        if spec.cache_output is not None:
            self._materialize(spec.cache_output, conf, mem, ser, codec,
                              cache, execs, p,
                              exec_demand_mb=working_set * conc_per_exec)

        sm = StageMetrics(
            name=spec.name, tasks=p, waves=waves, duration_s=float(stage_time),
            read_s=float(read_s), compute_s=float(compute_s),
            shuffle_write_s=float(shuffle_s),
            shuffle_fetch_s=float(fetch_floor), spill_s=float(spill_s),
            gc_factor=float(gc), sched_overhead_s=float(dispatch * p),
            spilled_mb=float(spilled_mb * p), cache_hit_fraction=float(cache_hit),
        )
        return float(stage_time), sm, new_wire_ratio

    # -- helpers ------------------------------------------------------------------------
    def _partitions(self, spec: StageSpec, conf: SparkConf,
                    cache: dict[str, _CacheEntry]) -> int:
        if spec.partitions is not None:
            return max(int(spec.partitions), 1)
        if spec.input_source == InputSource.HDFS:
            mb_per_part = conf.max_partition_bytes / (1024 * 1024)
            return max(int(np.ceil(spec.input_mb / mb_per_part)), 1)
        if spec.input_source == InputSource.CACHE and spec.reads_cached in cache:
            return cache[spec.reads_cached].partitions
        return max(conf.default_parallelism, 1)

    def _read_costs(self, spec: StageSpec, conf: SparkConf,
                    cache: dict[str, _CacheEntry], per_task_mb: float, p: int,
                    ser, codec, gc: float, node, conc_per_node: int,
                    local_frac: float, nodes_used: int):
        """(per-task read seconds, cluster fetch floor, cache hit fraction)."""
        fetch_floor = 0.0
        cache_hit = 1.0
        if spec.input_source == InputSource.HDFS:
            read_s = hdfs_read_seconds(per_task_mb, node, conc_per_node,
                                       local_frac, ser.deser_mbps * 1.5)
        elif spec.input_source == InputSource.SHUFFLE:
            wire_total = spec.input_mb * (ser.size_ratio *
                                          (codec.ratio if conf.shuffle_compress else 1.0))
            fetch_floor = shuffle_fetch_seconds(wire_total, conf, node, nodes_used)
            wire_per_task = wire_total / p
            cpu = per_task_mb / ser.deser_mbps
            if conf.shuffle_compress:
                cpu += wire_per_task / codec.decomp_mbps
            # Oversized remote blocks stream through disk first.
            block_mb = wire_per_task
            if block_mb > conf.max_remote_block_to_mem_mb:
                cpu += wire_per_task / effective_disk_bw(node, conc_per_node)
            read_s = cpu * gc / node.cpu_speed
        else:  # CACHE
            entry = cache.get(spec.reads_cached or "")
            if entry is None:
                # Never materialized: full lineage rebuild from HDFS.
                resident = 0.0
                rdd = CachedRDD(spec.reads_cached or "?", spec.input_mb)
            else:
                resident = entry.resident_fraction
                rdd = entry.rdd
            hit_mb = per_task_mb * resident
            miss_mb = per_task_mb - hit_mb
            cache_hit = resident
            read_s = hit_mb / MEM_READ_MBPS
            if entry is not None and entry.rdd.level == CacheLevel.MEMORY_SER:
                stored_per_mb = entry.stored_mb / max(
                    entry.rdd.logical_mb, 1e-9)
                read_s += hit_mb / ser.deser_mbps
                if conf.rdd_compress:
                    read_s += hit_mb * stored_per_mb / codec.decomp_mbps
            if miss_mb > 0.0:
                rebuild_io = hdfs_read_seconds(
                    miss_mb * rdd.rebuild_io_mb_per_mb, node, conc_per_node,
                    local_frac, ser.deser_mbps * 1.5)
                rebuild_cpu = (miss_mb * rdd.rebuild_cpu_s_per_mb
                               * gc / node.cpu_speed)
                read_s += rebuild_io + rebuild_cpu
            read_s *= gc if spec.input_source == InputSource.CACHE else 1.0
        return read_s, fetch_floor, cache_hit

    def _driver_failures(self, spec: StageSpec, conf: SparkConf,
                         p: int) -> ExecutionResult | None:
        if spec.driver_collect_mb <= 0.0:
            return None
        per_task_result = spec.driver_collect_mb / p
        if per_task_result > conf.rpc_message_max_mb:
            return ExecutionResult(
                RunStatus.RUNTIME_ERROR, 15.0,
                failure_reason=f"{spec.name}: task result "
                               f"{per_task_result:.0f} MB exceeds "
                               "spark.rpc.message.maxSize")
        if spec.driver_collect_mb > conf["spark.driver.maxResultSize"]:
            return ExecutionResult(
                RunStatus.RUNTIME_ERROR, 20.0,
                failure_reason=f"{spec.name}: collected results exceed "
                               "spark.driver.maxResultSize")
        if spec.driver_collect_mb * 2.0 > conf.driver_memory_mb * 0.8:
            return ExecutionResult(
                RunStatus.OOM, 25.0,
                failure_reason=f"{spec.name}: driver OutOfMemory collecting "
                               f"{spec.driver_collect_mb:.0f} MB")
        return None

    def _stage_overheads(self, spec: StageSpec, conf: SparkConf,
                         placement: Placement, node) -> float:
        t = _STAGE_LAUNCH_S
        if conf.scheduler_mode == "FAIR":
            t += 0.03
        if spec.driver_compute_s > 0.0:
            # Serial driver work; extra driver cores help only mildly.
            t += spec.driver_compute_s / (0.8 + 0.2 * min(conf.driver_cores, 4))
        if spec.broadcast_mb > 0.0:
            size = spec.broadcast_mb
            cpu = 0.0
            if conf.broadcast_compress:
                codec = codec_model(conf)
                cpu = size / codec.comp_mbps
                size *= codec.ratio
            torrent = size / node.net_bw_mbps \
                * (1.0 + 0.1 * np.log2(max(placement.executors, 2)))
            blocks = max(size / conf.broadcast_block_mb, 1.0)
            t += cpu + torrent + blocks * 0.001
        if spec.driver_collect_mb > 0.0:
            t += spec.driver_collect_mb / node.net_bw_mbps + 0.02
        return t

    def _materialize(self, rdd: CachedRDD, conf: SparkConf,
                     mem: ExecutorMemory, ser, codec,
                     cache: dict[str, _CacheEntry], execs: int,
                     partitions: int, exec_demand_mb: float) -> None:
        """Insert a cached RDD, evicting proportionally on overflow."""
        if rdd.level == CacheLevel.MEMORY:
            demand = rdd.logical_mb * rdd.expansion
            on_heap = True
        else:
            demand = rdd.logical_mb * ser.size_ratio
            if conf.rdd_compress:
                demand *= codec.ratio
            on_heap = not conf.offheap_enabled
        demand_per_exec = demand / execs
        capacity_per_exec = mem.cache_fit_mb(exec_demand_mb)

        existing_per_exec = sum(e.stored_mb for e in cache.values()) / execs
        free = capacity_per_exec - existing_per_exec
        stored_per_exec = min(demand_per_exec, max(free, 0.0))
        if stored_per_exec < demand_per_exec:
            # LRU-like: evict older RDDs to make room for the newcomer,
            # but never below zero; newcomer gets what fits.
            deficit = demand_per_exec - stored_per_exec
            for entry in cache.values():
                if deficit <= 0.0:
                    break
                per_exec = entry.stored_mb / execs
                take = min(per_exec, deficit)
                entry.stored_mb -= take * execs
                full = (entry.rdd.logical_mb * entry.rdd.expansion
                        if entry.rdd.level == CacheLevel.MEMORY
                        else entry.rdd.logical_mb * ser.size_ratio)
                entry.resident_fraction = entry.stored_mb / max(full, 1e-9)
                deficit -= take
                stored_per_exec += take
            stored_per_exec = min(stored_per_exec, demand_per_exec)
        resident = stored_per_exec / demand_per_exec if demand_per_exec > 0 else 1.0
        cache[rdd.name] = _CacheEntry(
            rdd=rdd, stored_mb=stored_per_exec * execs,
            resident_fraction=min(resident, 1.0),
            partitions=partitions, on_heap=on_heap)
