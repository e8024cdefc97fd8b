"""Tests for the cluster hardware model."""

import pytest

from repro.sparksim import ClusterSpec, NodeSpec, paper_cluster


class TestNodeSpec:
    def test_paper_node_defaults(self):
        node = NodeSpec()
        assert node.cores == 32               # 2x 16-core Xeon Gold 6130
        assert node.memory_mb == 192 * 1024   # 192 GB
        assert node.net_bw_mbps > 1000        # 10 GbE

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeSpec(cores=0)
        with pytest.raises(ValueError):
            NodeSpec(memory_mb=-1)
        with pytest.raises(ValueError):
            NodeSpec(disk_bw_mbps=0.0)
        with pytest.raises(ValueError):
            NodeSpec(cpu_speed=0.0)

    def test_frozen(self):
        node = NodeSpec()
        with pytest.raises(AttributeError):
            node.cores = 64


class TestClusterSpec:
    def test_paper_cluster_totals(self):
        cluster = paper_cluster()
        assert cluster.n_workers == 5              # workers only
        assert cluster.node == NodeSpec()
        assert cluster.hdfs_replication == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(n_workers=0)
        with pytest.raises(ValueError):
            ClusterSpec(hdfs_replication=0)


class TestClusterAffectsSimulation:
    def test_smaller_cluster_is_slower(self):
        from repro.sparksim import SparkSimulator
        from repro.workloads import get_workload
        conf = {"spark.executor.cores": 8,
                "spark.executor.memory": 16 * 1024,
                "spark.executor.instances": 10,
                "spark.default.parallelism": 160}
        stages = get_workload("terasort", "D1").build_stages()
        big = SparkSimulator(paper_cluster()).run(stages, conf, rng=1)
        small = SparkSimulator(ClusterSpec(n_workers=2)).run(stages, conf,
                                                             rng=1)
        assert big.ok and small.ok
        assert small.duration_s > big.duration_s
