"""Tests for the GC, disk, network and serialization cost models."""

import numpy as np
import pytest

from repro.sparksim import SparkConf
from repro.sparksim.cluster import NodeSpec
from repro.sparksim.disk import effective_disk_bw, shuffle_write_bw
from repro.sparksim.gcmodel import gc_slowdown
from repro.sparksim.network import (fetch_efficiency, remote_read_seconds,
                                    shuffle_fetch_seconds)
from repro.sparksim.serialization import (codec_model, kryo_buffer_failure,
                                          serializer_model)

NODE = NodeSpec()


class TestGC:
    def test_floor_above_one(self):
        assert gc_slowdown(8192, 0.0, 1.0) >= 1.0

    def test_monotone_in_pressure(self):
        heaps = [gc_slowdown(8192, live, 1.0)
                 for live in np.linspace(0, 8192, 20)]
        assert all(b >= a - 1e-12 for a, b in zip(heaps, heaps[1:]))

    def test_cliff_near_saturation(self):
        relaxed = gc_slowdown(8192, 0.5 * 8192, 1.0)
        squeezed = gc_slowdown(8192, 0.95 * 8192, 1.0)
        assert squeezed > relaxed + 0.3

    def test_alloc_factor_scales_young_gen(self):
        assert gc_slowdown(8192, 0, 2.0) > gc_slowdown(8192, 0, 0.5)

    def test_rejects_bad_heap(self):
        with pytest.raises(ValueError):
            gc_slowdown(0, 1, 1.0)


class TestDisk:
    def test_single_stream_full_bandwidth(self):
        assert effective_disk_bw(NODE, 1) == pytest.approx(NODE.disk_bw_mbps)

    def test_contention_reduces_per_stream_bw(self):
        assert effective_disk_bw(NODE, 8) < NODE.disk_bw_mbps / 4

    def test_aggregate_never_below_half(self):
        agg = effective_disk_bw(NODE, 64) * 64
        assert agg >= NODE.disk_bw_mbps * 0.5 * 0.95

    def test_bigger_buffer_faster_shuffle_writes(self):
        slow = shuffle_write_bw(NODE, 4, buffer_kb=16)
        fast = shuffle_write_bw(NODE, 4, buffer_kb=256)
        assert fast > slow

    def test_validation(self):
        with pytest.raises(ValueError):
            effective_disk_bw(NODE, 0)
        with pytest.raises(ValueError):
            shuffle_write_bw(NODE, 1, 0)


class TestNetwork:
    def test_bigger_window_more_efficient(self):
        small = fetch_efficiency(SparkConf({"spark.reducer.maxSizeInFlight": 8}),
                                 NODE)
        big = fetch_efficiency(SparkConf({"spark.reducer.maxSizeInFlight": 256}),
                               NODE)
        assert big >= small

    def test_efficiency_bounded(self):
        for mb in (8, 48, 256):
            eff = fetch_efficiency(
                SparkConf({"spark.reducer.maxSizeInFlight": mb}), NODE)
            assert 0.05 <= eff <= 0.92

    def test_fetch_time_scales_with_volume(self):
        conf = SparkConf()
        t1 = shuffle_fetch_seconds(1000, conf, NODE, 5)
        t2 = shuffle_fetch_seconds(2000, conf, NODE, 5)
        assert t2 == pytest.approx(2 * t1)

    def test_single_node_all_local(self):
        assert shuffle_fetch_seconds(1000, SparkConf(), NODE, 1) == 0.0

    def test_zero_volume_zero_time(self):
        assert shuffle_fetch_seconds(0, SparkConf(), NODE, 5) == 0.0

    def test_remote_read_bounded_by_disk(self):
        # A remote read can never beat the remote node's disk.
        t = remote_read_seconds(140, NODE)
        assert t >= 1.0 - 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            shuffle_fetch_seconds(-1, SparkConf(), NODE, 5)
        with pytest.raises(ValueError):
            shuffle_fetch_seconds(10, SparkConf(), NODE, 0)


class TestSerialization:
    def test_kryo_faster_and_denser_than_java(self):
        java = serializer_model(SparkConf({"spark.serializer": "java"}))
        kryo = serializer_model(SparkConf({"spark.serializer": "kryo"}))
        assert kryo.ser_mbps > 2 * java.ser_mbps
        assert kryo.size_ratio < java.size_ratio

    def test_kryo_unsafe_speedup(self):
        base = serializer_model(SparkConf({"spark.serializer": "kryo"}))
        unsafe = serializer_model(SparkConf({"spark.serializer": "kryo",
                                             "spark.kryo.unsafe": True}))
        assert unsafe.ser_mbps > base.ser_mbps
        assert unsafe.size_ratio == base.size_ratio

    def test_zstd_compresses_harder_but_slower(self):
        lz4 = codec_model(SparkConf({"spark.io.compression.codec": "lz4"}))
        zstd = codec_model(SparkConf({"spark.io.compression.codec": "zstd"}))
        assert zstd.ratio < lz4.ratio
        assert zstd.comp_mbps < lz4.comp_mbps

    def test_tiny_blocks_hurt(self):
        tiny = codec_model(SparkConf({"spark.io.compression.blockSize": 4}))
        normal = codec_model(SparkConf({"spark.io.compression.blockSize": 32}))
        assert tiny.comp_mbps < normal.comp_mbps
        assert tiny.ratio > normal.ratio

    def test_kryo_buffer_failure_trigger(self):
        conf = SparkConf({"spark.serializer": "kryo",
                          "spark.kryoserializer.buffer.max": 8})
        assert kryo_buffer_failure(conf, largest_record_mb=16.0)
        assert not kryo_buffer_failure(conf, largest_record_mb=4.0)
        java = SparkConf({"spark.serializer": "java"})
        assert not kryo_buffer_failure(java, largest_record_mb=1e9)
