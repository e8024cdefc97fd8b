"""Property-based tests of simulator invariants.

These encode the structural guarantees the tuning experiments depend on:
any decodable configuration yields a well-formed result on the paper's
workloads and on random stage graphs, determinism under a fixed seed,
monotonicity in dataset size, and agreement end to end between the
vectorized wave scheduler and the event-driven scheduling oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import event_driven_makespan

import repro.sparksim.simulator as simulator_module
from repro.space import spark_space
from repro.sparksim import RunStatus, SparkSimulator
from repro.sparksim.stage import CachedRDD, CacheLevel, InputSource, StageSpec
from repro.workloads import Dataset, get_workload

SPACE = spark_space()
SIM = SparkSimulator()

unit_vectors = st.lists(st.floats(0.0, 1.0), min_size=SPACE.dim,
                        max_size=SPACE.dim).map(np.array)


class TestTotality:
    @given(unit_vectors)
    @settings(max_examples=60, deadline=None)
    def test_every_configuration_yields_wellformed_result(self, u):
        """No decodable configuration may crash the simulator."""
        conf = SPACE.decode(u)
        res = SIM.run(get_workload("terasort", "D1").build_stages(), conf,
                      rng=0, time_limit_s=480.0)
        assert res.status in RunStatus
        assert np.isfinite(res.duration_s)
        assert res.duration_s > 0
        if not res.ok:
            assert res.failure_reason or res.status is RunStatus.TIMEOUT

    @given(unit_vectors, st.sampled_from(["pagerank", "kmeans",
                                          "connectedcomponents",
                                          "logisticregression"]))
    @settings(max_examples=30, deadline=None)
    def test_all_workloads_total(self, u, name):
        conf = SPACE.decode(u)
        res = SIM.run(get_workload(name, "D1").build_stages(), conf, rng=1,
                      time_limit_s=480.0)
        assert np.isfinite(res.duration_s)


@st.composite
def stage_graphs(draw):
    """A structurally valid random stage DAG (linear chain).

    Mixes the three input sources: the first stage always reads HDFS;
    later stages fetch shuffle output when the predecessor wrote one,
    read a cached RDD when one exists, or fall back to HDFS.
    """
    n = draw(st.integers(1, 5))
    stages = []
    prev_shuffle = 0.0
    cached = None
    for i in range(n):
        if i == 0:
            source, reads = InputSource.HDFS, None
        elif prev_shuffle > 0.0 and draw(st.booleans()):
            source, reads = InputSource.SHUFFLE, None
        elif cached is not None and draw(st.booleans()):
            source, reads = InputSource.CACHE, cached.name
        else:
            source, reads = InputSource.HDFS, None
        shuffle_ratio = draw(st.sampled_from([0.0, 0.3, 1.0, 1.8]))
        cache_out = None
        if draw(st.booleans()):
            cache_out = CachedRDD(
                name=f"rdd{i}",
                logical_mb=draw(st.sampled_from([256.0, 2048.0, 8192.0])),
                level=draw(st.sampled_from([CacheLevel.MEMORY,
                                            CacheLevel.MEMORY_SER])))
        stages.append(StageSpec(
            name=f"s{i}",
            input_mb=draw(st.sampled_from([128.0, 1024.0, 16384.0])),
            input_source=source,
            reads_cached=reads,
            compute_s_per_mb=draw(st.sampled_from([0.002, 0.01, 0.05])),
            shuffle_write_ratio=shuffle_ratio,
            cache_output=cache_out,
            shuffle_agg=draw(st.booleans()),
            broadcast_mb=draw(st.sampled_from([0.0, 64.0])),
            driver_collect_mb=draw(st.sampled_from([0.0, 32.0])),
        ))
        prev_shuffle = shuffle_ratio
        if cache_out is not None:
            cached = cache_out
    return stages


class TestRandomStageGraphs:
    @given(stage_graphs(), unit_vectors,
           st.sampled_from([None, 45.0, 480.0]), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_run_is_wellformed_and_reproducible(self, stages, u, limit,
                                                seed):
        conf = SPACE.decode(u)
        res = SIM.run(stages, conf, rng=seed, time_limit_s=limit)
        assert isinstance(res.status, RunStatus)
        assert np.isfinite(res.duration_s)
        assert res.duration_s > 0
        if res.status is RunStatus.SUCCESS:
            assert len(res.stages) == len(stages)
            assert res.duration_s >= sum(m.duration_s for m in res.stages)
            if limit is not None:
                assert res.duration_s <= limit
        elif res.status is RunStatus.TIMEOUT:
            assert res.duration_s == limit
        else:
            # The failing stage contributes no metrics.  No cap is
            # asserted: a failure is charged its elapsed time plus the
            # failure's own cost, which can pass the limit.
            assert len(res.stages) < len(stages)
        assert SIM.run(stages, conf, rng=seed, time_limit_s=limit) == res


class TestDeterminismAndNoise:
    @given(unit_vectors, st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_fixed_seed_reproduces_exactly(self, u, seed):
        conf = SPACE.decode(u)
        stages = get_workload("kmeans", "D1").build_stages()
        a = SIM.run(stages, conf, rng=seed)
        b = SIM.run(stages, conf, rng=seed)
        assert a.status == b.status
        assert a.duration_s == b.duration_s

    def test_noise_is_bounded(self):
        conf = {"spark.executor.cores": 8,
                "spark.executor.memory": 24 * 1024,
                "spark.executor.instances": 15}
        stages = get_workload("terasort", "D1").build_stages()
        times = [SIM.run(stages, conf, rng=s).duration_s for s in range(20)]
        spread = (max(times) - min(times)) / np.median(times)
        # Shuffle-heavy short-wave jobs show large straggler-driven
        # variance (real clusters do too); it must stay bounded though.
        assert spread < 0.8


class TestMonotonicity:
    # Straggler noise can invert orderings for near-identical scales, so
    # the property is asserted for clearly separated dataset sizes.
    @given(st.floats(5.0, 40.0), st.floats(1.6, 3.0))
    @settings(max_examples=15, deadline=None)
    def test_bigger_dataset_never_faster(self, scale, factor):
        conf = {"spark.executor.cores": 8,
                "spark.executor.memory": 32 * 1024,
                "spark.executor.instances": 15,
                "spark.default.parallelism": 256}
        small = get_workload("terasort", Dataset("a", scale))
        large = get_workload("terasort", Dataset("b", scale * factor))
        t_small = SIM.run(small.build_stages(), conf, rng=3)
        t_large = SIM.run(large.build_stages(), conf, rng=3)
        if t_small.ok and t_large.ok:
            assert t_large.duration_s > t_small.duration_s * 0.9


class TestSchedulerBackends:
    def test_exact_and_fast_agree_end_to_end(self, monkeypatch):
        conf = {"spark.executor.cores": 8,
                "spark.executor.memory": 24 * 1024,
                "spark.executor.instances": 15,
                "spark.default.parallelism": 200}
        stages = get_workload("pagerank", "D1").build_stages()
        fast = SIM.run(stages, conf, rng=7)
        monkeypatch.setattr(simulator_module, "stage_makespan",
                            event_driven_makespan)
        exact = SIM.run(stages, conf, rng=7)
        assert fast.status == exact.status
        assert fast.duration_s == pytest.approx(exact.duration_s, rel=0.15)
