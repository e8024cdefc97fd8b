"""Tests for the typed SparkConf view."""

import pytest

from repro.sparksim import SparkConf


class TestDefaults:
    def test_empty_conf_uses_spark_defaults(self):
        conf = SparkConf()
        assert conf.executor_memory_mb == 1024
        assert conf.executor_cores == 1
        assert conf.memory_fraction == 0.6
        assert conf.serializer == "java"
        assert conf.shuffle_compress is True

    def test_partial_override(self):
        conf = SparkConf({"spark.executor.cores": 8})
        assert conf.executor_cores == 8
        assert conf.executor_memory_mb == 1024  # untouched default

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError):
            SparkConf({"spark.nonexistent.option": 1})


class TestAccessors:
    def test_byte_conversions(self):
        conf = SparkConf({"spark.files.maxPartitionBytes": 64})
        assert conf.max_partition_bytes == 64 * 1024 * 1024

    def test_getitem_and_get(self):
        conf = SparkConf()
        assert conf["spark.executor.cores"] == 1
        assert conf.get("spark.executor.cores") == 1
        assert conf.get("missing", "fallback") == "fallback"

    def test_every_declared_accessor_works(self):
        """Smoke-check all typed accessors against the defaults."""
        conf = SparkConf()
        for name in dir(SparkConf):
            attr = getattr(SparkConf, name)
            if isinstance(attr, property):
                assert getattr(conf, name) is not None
