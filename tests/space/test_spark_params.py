"""Tests for the 44-parameter Spark tuning space."""

import numpy as np
import pytest

from repro.space import SPARK_PARAM_COUNT, spark_parameters, spark_space
from repro.space.parameter import SizeParameter


class TestSpaceShape:
    def test_exactly_44_parameters(self):
        assert len(spark_parameters()) == SPARK_PARAM_COUNT == 44
        assert spark_space().dim == 44

    def test_all_names_spark_prefixed(self):
        assert all(p.name.startswith("spark.") for p in spark_parameters())

    def test_no_duplicate_names(self):
        names = [p.name for p in spark_parameters()]
        assert len(set(names)) == len(names)

    def test_paper_cores_memory_ranges(self):
        """§5.1: cores 1-32, memory 8-180 GB reachable on the testbed."""
        sp = spark_space()
        cores = sp["spark.executor.cores"]
        mem = sp["spark.executor.memory"]
        assert (cores.low, cores.high) == (1, 32)
        assert isinstance(mem, SizeParameter)
        assert mem.high >= 180 * 1024

    def test_spark_defaults(self):
        conf = {p.name: p.default for p in spark_space()}
        assert conf["spark.executor.memory"] == 1024  # the paper's OOM villain
        assert conf["spark.memory.fraction"] == 0.6
        assert conf["spark.serializer"] == "java"
        assert conf["spark.shuffle.compress"] is True
        assert conf["spark.io.compression.codec"] == "lz4"


class TestCollinearityGroups:
    def test_executor_size_joint_parameter(self):
        """§4: executor size groups cores and memory by domain knowledge."""
        groups = spark_space().groups()
        names = spark_space().names
        members = {names[i] for i in groups["executor.size"]}
        assert members == {"spark.executor.cores", "spark.executor.memory"}

    def test_dependent_parameter_groups(self):
        groups = spark_space().groups()
        names = spark_space().names
        assert {names[i] for i in groups["offheap"]} == {
            "spark.memory.offHeap.enabled", "spark.memory.offHeap.size"}
        assert len(groups["speculation"]) == 3
        assert len(groups["serializer"]) == 3

    def test_group_count_below_dim(self):
        groups = spark_space().groups()
        assert len(groups) < 44
        assert sum(len(v) for v in groups.values()) == 44


class TestDecodedConfigs:
    def test_random_vectors_decode_to_valid_configs(self):
        sp = spark_space()
        rng = np.random.default_rng(5)
        for _ in range(50):
            conf = sp.decode(rng.random(sp.dim))
            assert sp.validate(conf) == []

    def test_extreme_corners_valid(self):
        sp = spark_space()
        for u in (np.zeros(sp.dim), np.ones(sp.dim), np.full(sp.dim, 0.5)):
            assert sp.validate(sp.decode(u)) == []
