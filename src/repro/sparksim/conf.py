"""Typed view over a native Spark configuration dictionary.

The simulator consumes configurations through this class rather than raw
dicts: unset keys fall back to Spark 2.4 defaults (taken from the parameter
definitions in :mod:`repro.space.spark_params`), and convenience accessors
expose byte/second conversions the cost models need.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..space.spark_params import spark_parameters

__all__ = ["SparkConf"]

_DEFAULTS: dict[str, Any] = {p.name: p.default for p in spark_parameters()}
_MB = 1024 * 1024


class SparkConf:
    """Immutable typed accessor over a (possibly partial) configuration."""

    def __init__(self, conf: Mapping[str, Any] | None = None):
        merged = dict(_DEFAULTS)
        if conf:
            unknown = set(conf) - set(_DEFAULTS)
            if unknown:
                raise KeyError(f"unknown Spark parameters: {sorted(unknown)}")
            merged.update(conf)
        self._conf = merged

    def __getitem__(self, key: str) -> Any:
        return self._conf[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self._conf.get(key, default)

    # -- executors -----------------------------------------------------------------
    @property
    def executor_cores(self) -> int:
        return int(self._conf["spark.executor.cores"])

    @property
    def executor_memory_mb(self) -> int:
        return int(self._conf["spark.executor.memory"])

    @property
    def executor_memory_overhead_mb(self) -> int:
        return int(self._conf["spark.executor.memoryOverhead"])

    @property
    def executor_instances(self) -> int:
        return int(self._conf["spark.executor.instances"])

    @property
    def driver_cores(self) -> int:
        return int(self._conf["spark.driver.cores"])

    @property
    def driver_memory_mb(self) -> int:
        return int(self._conf["spark.driver.memory"])

    # -- memory management ------------------------------------------------------------
    @property
    def memory_fraction(self) -> float:
        return float(self._conf["spark.memory.fraction"])

    @property
    def storage_fraction(self) -> float:
        return float(self._conf["spark.memory.storageFraction"])

    @property
    def offheap_enabled(self) -> bool:
        return bool(self._conf["spark.memory.offHeap.enabled"])

    @property
    def offheap_size_mb(self) -> int:
        return int(self._conf["spark.memory.offHeap.size"])

    # -- parallelism / scheduling -------------------------------------------------------
    @property
    def default_parallelism(self) -> int:
        return int(self._conf["spark.default.parallelism"])

    @property
    def task_cpus(self) -> int:
        return int(self._conf["spark.task.cpus"])

    @property
    def locality_wait_s(self) -> float:
        return float(self._conf["spark.locality.wait"])

    @property
    def scheduler_mode(self) -> str:
        return str(self._conf["spark.scheduler.mode"])

    @property
    def speculation(self) -> bool:
        return bool(self._conf["spark.speculation"])

    @property
    def speculation_multiplier(self) -> float:
        return float(self._conf["spark.speculation.multiplier"])

    @property
    def task_max_failures(self) -> int:
        return int(self._conf["spark.task.maxFailures"])

    # -- shuffle -------------------------------------------------------------------------
    @property
    def shuffle_compress(self) -> bool:
        return bool(self._conf["spark.shuffle.compress"])

    @property
    def shuffle_spill_compress(self) -> bool:
        return bool(self._conf["spark.shuffle.spill.compress"])

    @property
    def shuffle_file_buffer_kb(self) -> int:
        return int(self._conf["spark.shuffle.file.buffer"])

    @property
    def reducer_max_size_in_flight_mb(self) -> int:
        return int(self._conf["spark.reducer.maxSizeInFlight"])

    @property
    def reducer_max_reqs_in_flight(self) -> int:
        return int(self._conf["spark.reducer.maxReqsInFlight"])

    @property
    def shuffle_connections_per_peer(self) -> int:
        return int(self._conf["spark.shuffle.io.numConnectionsPerPeer"])

    @property
    def shuffle_sort_bypass_threshold(self) -> int:
        return int(self._conf["spark.shuffle.sort.bypassMergeThreshold"])

    # -- serialization / compression ---------------------------------------------------------
    @property
    def broadcast_compress(self) -> bool:
        return bool(self._conf["spark.broadcast.compress"])

    @property
    def rdd_compress(self) -> bool:
        return bool(self._conf["spark.rdd.compress"])

    @property
    def compression_codec(self) -> str:
        return str(self._conf["spark.io.compression.codec"])

    @property
    def compression_block_kb(self) -> int:
        return int(self._conf["spark.io.compression.blockSize"])

    @property
    def serializer(self) -> str:
        return str(self._conf["spark.serializer"])

    @property
    def kryo_buffer_max_mb(self) -> int:
        return int(self._conf["spark.kryoserializer.buffer.max"])

    @property
    def kryo_unsafe(self) -> bool:
        return bool(self._conf["spark.kryo.unsafe"])

    @property
    def object_stream_reset(self) -> int:
        return int(self._conf["spark.serializer.objectStreamReset"])

    # -- network -------------------------------------------------------------------------------
    @property
    def rpc_message_max_mb(self) -> int:
        return int(self._conf["spark.rpc.message.maxSize"])

    # -- storage / input ---------------------------------------------------------------------------
    @property
    def broadcast_block_mb(self) -> int:
        return int(self._conf["spark.broadcast.blockSize"])

    @property
    def max_partition_bytes(self) -> int:
        return int(self._conf["spark.files.maxPartitionBytes"]) * _MB

    @property
    def max_remote_block_to_mem_mb(self) -> int:
        return int(self._conf["spark.maxRemoteBlockSizeFetchToMem"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SparkConf(executors={self.executor_instances}x"
                f"{self.executor_cores}c/{self.executor_memory_mb}m)")
