"""Integration-grade tests for the Spark simulator's behaviour."""

import numpy as np
import pytest

from repro.sparksim import (CachedRDD, CacheLevel, InputSource, RunStatus,
                            SparkConf, SparkSimulator, StageSpec)
from repro.utils.rng import spawn
from repro.workloads import get_workload


SANE = {
    "spark.executor.cores": 8,
    "spark.executor.memory": 24 * 1024,
    "spark.executor.instances": 15,
    "spark.default.parallelism": 240,
}


def one_stage(**kw):
    defaults = dict(name="s0", input_mb=2000.0)
    defaults.update(kw)
    return [StageSpec(**defaults)]


@pytest.fixture(scope="module")
def sim():
    return SparkSimulator()


class TestBasics:
    def test_successful_run(self, sim):
        res = sim.run(one_stage(), SANE, rng=0)
        assert res.ok
        assert res.duration_s > 0
        assert len(res.stages) == 1
        assert res.stages[0].tasks >= 1

    def test_empty_stages_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.run([], SANE)

    def test_deterministic_given_seed(self, sim):
        a = sim.run(one_stage(), SANE, rng=42).duration_s
        b = sim.run(one_stage(), SANE, rng=42).duration_s
        assert a == b

    def test_noise_varies_across_seeds(self, sim):
        times = {sim.run(one_stage(), SANE, rng=s).duration_s
                 for s in range(5)}
        assert len(times) == 5

    def test_stage_lookup(self, sim):
        res = sim.run(one_stage(name="parse"), SANE, rng=0)
        assert res.stage("parse").name == "parse"
        with pytest.raises(KeyError):
            res.stage("nope")


class TestScalingBehaviour:
    def test_more_slots_faster_when_many_tasks(self, sim):
        # CPU-heavy stage so compute dominates the shared-disk floor.
        stage = one_stage(input_mb=4000.0, compute_s_per_mb=0.05)
        small = dict(SANE, **{"spark.executor.instances": 2,
                              "spark.executor.cores": 4})
        t_small = sim.run(stage, small, rng=1).duration_s
        t_big = sim.run(stage, SANE, rng=1).duration_s
        assert t_big < t_small

    def test_larger_input_takes_longer(self, sim):
        t1 = sim.run(one_stage(input_mb=1000.0), SANE, rng=2).duration_s
        t2 = sim.run(one_stage(input_mb=8000.0), SANE, rng=2).duration_s
        assert t2 > t1

    def test_shuffle_compression_helps_big_shuffles(self, sim):
        stages = [
            StageSpec(name="map", input_mb=20000.0, shuffle_write_ratio=1.0),
            StageSpec(name="red", input_mb=20000.0,
                      input_source=InputSource.SHUFFLE),
        ]
        on = dict(SANE, **{"spark.shuffle.compress": True})
        off = dict(SANE, **{"spark.shuffle.compress": False})
        assert sim.run(stages, on, rng=3).duration_s < \
            sim.run(stages, off, rng=3).duration_s

    def test_timeout_enforced(self, sim):
        res = sim.run(one_stage(input_mb=500000.0, compute_s_per_mb=0.1),
                      SparkConf(), rng=4, time_limit_s=60.0)
        assert res.status is RunStatus.TIMEOUT
        assert res.duration_s == 60.0


class TestFailures:
    def test_unplaceable_config_invalid(self, sim):
        res = sim.run(one_stage(), {"spark.executor.memory": 400 * 1024},
                      rng=0)
        assert res.status is RunStatus.INVALID

    def test_oom_on_unrollable_cache_partition(self, sim):
        rdd = CachedRDD(name="big", logical_mb=4000.0,
                        level=CacheLevel.MEMORY, expansion=4.0)
        stages = [StageSpec(name="cache-it", input_mb=4000.0, expansion=4.0,
                            cache_output=rdd)]
        res = sim.run(stages, SparkConf(), rng=0)  # 1 GB default executors
        assert res.status is RunStatus.OOM
        assert "working set" in res.failure_reason

    def test_oom_duration_scales_with_retries(self, sim):
        rdd = CachedRDD(name="big", logical_mb=4000.0, expansion=4.0)
        stages = [StageSpec(name="s", input_mb=4000.0, expansion=4.0,
                            cache_output=rdd)]
        quick = dict({"spark.task.maxFailures": 1})
        patient = dict({"spark.task.maxFailures": 8})
        t_quick = sim.run(stages, quick, rng=0).duration_s
        t_patient = sim.run(stages, patient, rng=0).duration_s
        assert t_patient > t_quick

    def test_kryo_buffer_overflow(self, sim):
        conf = dict(SANE, **{"spark.serializer": "kryo",
                             "spark.kryoserializer.buffer.max": 8})
        stages = one_stage(shuffle_write_ratio=0.5, largest_record_mb=64.0)
        res = sim.run(stages, conf, rng=0)
        assert res.status is RunStatus.RUNTIME_ERROR
        assert "kryoserializer" in res.failure_reason

    def test_driver_result_size_limit(self, sim):
        conf = dict(SANE, **{"spark.driver.maxResultSize": 512})
        stages = one_stage(driver_collect_mb=2000.0)
        res = sim.run(stages, conf, rng=0)
        assert res.status is RunStatus.RUNTIME_ERROR

    def test_rpc_message_limit(self, sim):
        conf = dict(SANE, **{"spark.rpc.message.maxSize": 32})
        stages = one_stage(driver_collect_mb=2000.0, partitions=10)
        res = sim.run(stages, conf, rng=0)
        assert res.status is RunStatus.RUNTIME_ERROR
        assert "rpc" in res.failure_reason

    def test_driver_oom_on_huge_collect(self, sim):
        conf = dict(SANE, **{"spark.driver.memory": 1024,
                             "spark.driver.maxResultSize": 8192,
                             "spark.rpc.message.maxSize": 512})
        stages = one_stage(driver_collect_mb=4000.0, partitions=100)
        res = sim.run(stages, conf, rng=0)
        assert res.status is RunStatus.OOM


class TestCaching:
    def _iterative(self, cache_level=CacheLevel.MEMORY, logical=3000.0,
                   iters=3):
        rdd = CachedRDD(name="data", logical_mb=logical, level=cache_level,
                        expansion=2.0, rebuild_cpu_s_per_mb=0.01)
        stages = [StageSpec(name="load", input_mb=logical, expansion=2.0,
                            cache_output=rdd)]
        for i in range(iters):
            stages.append(StageSpec(name=f"iter-{i}", input_mb=logical,
                                    input_source=InputSource.CACHE,
                                    reads_cached="data",
                                    compute_s_per_mb=0.01, expansion=2.0))
        return stages

    def test_cache_hit_fraction_full_when_it_fits(self, sim):
        res = sim.run(self._iterative(), SANE, rng=0)
        assert res.ok
        assert res.stage("iter-0").cache_hit_fraction == pytest.approx(1.0)

    def test_eviction_when_cache_does_not_fit(self, sim):
        tight = dict(SANE, **{"spark.executor.memory": 2048,
                              "spark.executor.instances": 2})
        res = sim.run(self._iterative(logical=20000.0, iters=2), tight, rng=0)
        if res.ok:
            assert res.stage("iter-0").cache_hit_fraction < 0.5

    def test_eviction_slows_iterations(self, sim):
        roomy = dict(SANE)
        tight = dict(SANE, **{"spark.executor.memory": 3072})
        stages = self._iterative(logical=12000.0)
        t_roomy = sim.run(stages, roomy, rng=1)
        t_tight = sim.run(stages, tight, rng=1)
        if t_roomy.ok and t_tight.ok:
            assert t_tight.duration_s > t_roomy.duration_s

    def test_rdd_compress_shrinks_serialized_cache(self, sim):
        stages = self._iterative(cache_level=CacheLevel.MEMORY_SER,
                                 logical=30000.0, iters=1)
        tight = dict(SANE, **{"spark.executor.memory": 6144})
        plain = sim.run(stages, tight, rng=2)
        compressed = sim.run(stages,
                             dict(tight, **{"spark.rdd.compress": True}),
                             rng=2)
        if plain.ok and compressed.ok:
            assert compressed.stage("iter-0").cache_hit_fraction >= \
                plain.stage("iter-0").cache_hit_fraction


class TestSpill:
    def test_undersized_execution_memory_spills(self, sim):
        stages = one_stage(input_mb=20000.0, expansion=4.0,
                           partitions=40, unroll_fraction=0.05)
        tight = dict(SANE, **{"spark.executor.memory": 2048})
        res = sim.run(stages, tight, rng=0)
        assert res.ok
        assert res.stages[0].spilled_mb > 0

    def test_roomy_memory_no_spill(self, sim):
        stages = one_stage(input_mb=2000.0, expansion=2.0)
        res = sim.run(stages, SANE, rng=0)
        assert res.stages[0].spilled_mb == 0.0


class TestValidationAndRngHandling:
    """``run_batch`` is ``run`` once per configuration."""

    def test_empty_stage_list_rejected(self, sim, space):
        conf = space.decode(np.full(space.dim, 0.5))
        with pytest.raises(ValueError):
            sim.run_batch([], [conf])

    def test_rng_count_mismatch_rejected(self, sim, space):
        stages = get_workload("terasort", "D1").build_stages()
        confs = [space.decode(np.full(space.dim, 0.5))] * 2
        with pytest.raises(ValueError):
            sim.run_batch(stages, confs, rngs=[np.random.default_rng(0)])

    def test_empty_batch_returns_empty(self, sim):
        stages = get_workload("terasort", "D1").build_stages()
        assert sim.run_batch(stages, []) == []

    def test_seed_rngs_spawned_like_scalar(self, sim, space):
        """``rngs=int`` must mean ``spawn(int, B)``, stream-for-stream."""
        stages = get_workload("terasort", "D1").build_stages()
        rng = np.random.default_rng(21)
        confs = [space.decode(rng.random(space.dim)) for _ in range(3)]
        batch = sim.run_batch(stages, confs, rngs=17, time_limit_s=480.0)
        scalar = [sim.run(stages, c, rng=r, time_limit_s=480.0)
                  for c, r in zip(confs,
                                  spawn(np.random.default_rng(17), 3))]
        assert batch == scalar
