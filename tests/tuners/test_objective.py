"""Tests for the workload objective wrapper."""

import numpy as np
import pytest

from repro.space import spark_space
from repro.sparksim import RunStatus
from repro.tuners import WorkloadObjective
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def space():
    return spark_space()


def make_objective(space, seed=0, **kw):
    wl = get_workload("pagerank", "D1")
    return WorkloadObjective(wl, space, rng=seed, **kw)


GOOD = {
    "spark.executor.cores": 8,
    "spark.executor.memory": 24 * 1024,
    "spark.executor.instances": 15,
}


class TestEvaluation:
    def test_successful_evaluation(self, space):
        obj = make_objective(space)
        u = space.encode(GOOD)
        ev = obj(u)
        assert ev.ok
        assert ev.objective == pytest.approx(ev.cost_s)
        assert ev.config["spark.executor.cores"] == 8
        assert obj.n_evaluations == 1

    def test_failed_run_censored(self, space):
        obj = make_objective(space)
        u = space.encode({})  # Spark defaults: PR OOMs
        ev = obj(u)
        assert ev.status is RunStatus.OOM
        assert ev.objective == obj.time_limit_s      # censored for the model
        assert ev.cost_s < obj.time_limit_s          # but cheap in wall time

    def test_per_call_threshold_tightens_only(self, space):
        obj = make_objective(space, time_limit_s=100.0)
        u = space.encode(GOOD)
        ev = obj(u, time_limit_s=1.0)
        assert ev.truncated
        assert ev.cost_s == 1.0
        # A looser per-call limit cannot exceed the static cap.
        ev2 = obj(u, time_limit_s=10_000.0)
        assert ev2.cost_s <= 100.0

    def test_noise_across_evaluations(self, space):
        obj = make_objective(space, seed=1)
        u = space.encode(GOOD)
        times = {obj(u).objective for _ in range(4)}
        assert len(times) == 4  # i.i.d. noise per evaluation


class TestCensoringPolicy:
    """Truncated runs censor at the enforced limit; hard failures at the
    full cap (see the module docstring for why the distinction matters)."""

    def test_guard_killed_run_censored_at_tightened_limit(self, space):
        obj = make_objective(space, time_limit_s=480.0)
        ev = obj(space.encode(GOOD), time_limit_s=30.0)
        assert ev.truncated and ev.status is RunStatus.TIMEOUT
        # Known only to be "at least 30 s bad" — NOT 480 s bad.
        assert ev.objective == 30.0
        assert ev.cost_s == 30.0

    def test_cap_killed_run_censored_at_cap(self, space):
        obj = make_objective(space, time_limit_s=5.0)
        ev = obj(space.encode(GOOD))
        assert ev.truncated
        assert ev.objective == 5.0

    def test_hard_failure_censored_at_full_cap(self, space):
        obj = make_objective(space, time_limit_s=480.0)
        ev = obj(space.encode({}), time_limit_s=30.0)  # PR defaults OOM
        assert ev.status is RunStatus.OOM and not ev.truncated
        # Broken, not slow: censored at the full cap even though the
        # per-call limit was tighter.
        assert ev.objective == 480.0

    def test_truncated_censoring_respects_metric(self, space):
        obj = make_objective(space, metric="core_seconds")
        ev = obj(space.encode(GOOD), time_limit_s=30.0)
        cores = GOOD["spark.executor.cores"] * GOOD["spark.executor.instances"]
        assert ev.objective == pytest.approx(30.0 * cores)


class TestResilienceHooks:
    def test_metric_value_matches_metric(self, space):
        obj = make_objective(space, metric="core_seconds")
        cores = GOOD["spark.executor.cores"] * GOOD["spark.executor.instances"]
        assert obj.metric_value(100.0, GOOD) == pytest.approx(100.0 * cores)

    def test_censor_value_default_and_explicit_limit(self, space):
        obj = make_objective(space, time_limit_s=480.0)
        assert obj.censor_value(GOOD) == 480.0
        assert obj.censor_value(GOOD, 90.0) == 90.0

    def test_rng_state_round_trip_reproduces_noise(self, space):
        obj = make_objective(space, seed=3)
        u = space.encode(GOOD)
        state = obj.rng_state()
        first = obj(u).objective
        assert obj(u).objective != first     # stream advanced
        obj.set_rng_state(state)
        assert obj(u).objective == first     # bit-identical replay


class TestWithSpace:
    def test_shares_counter_and_simulator(self, space):
        obj = make_objective(space)
        sub = space.subspace(["spark.executor.cores",
                              "spark.executor.memory"], base=GOOD)
        obj2 = obj.with_space(sub)
        assert obj2.simulator is obj.simulator
        obj2(np.array([0.5, 0.9]))
        assert obj.n_evaluations == 1

    def test_reduced_vector_decodes_with_base(self, space):
        obj = make_objective(space)
        sub = space.subspace(["spark.executor.cores"], base=GOOD)
        ev = obj.with_space(sub)(np.array([0.5]))
        assert ev.config["spark.executor.memory"] == GOOD["spark.executor.memory"]

    def test_simulator_and_cluster_exclusive(self, space):
        from repro.sparksim import ClusterSpec, SparkSimulator
        with pytest.raises(ValueError):
            WorkloadObjective(get_workload("pagerank", "D1"), space,
                              simulator=SparkSimulator(),
                              cluster=ClusterSpec())


class TestAlternativeMetrics:
    def test_core_seconds_metric(self, space):
        obj = make_objective(space, metric="core_seconds")
        u = space.encode(GOOD)
        ev = obj(u)
        cores = GOOD["spark.executor.cores"] * GOOD["spark.executor.instances"]
        assert ev.objective == pytest.approx(ev.cost_s * cores)

    def test_core_seconds_prefers_smaller_allocations(self, space):
        """The cost metric penalizes the big allocation that the time
        metric rewards."""
        big = dict(GOOD, **{"spark.executor.instances": 40})
        small = dict(GOOD, **{"spark.executor.instances": 8})
        obj = make_objective(space, seed=5, metric="core_seconds")
        cost_big = obj(space.encode(big)).objective
        cost_small = obj(space.encode(small)).objective
        assert cost_small < cost_big

    def test_custom_callable_metric(self, space):
        obj = make_objective(space, metric=lambda t, conf: t * 2.0)
        u = space.encode(GOOD)
        ev = obj(u)
        assert ev.objective == pytest.approx(ev.cost_s * 2.0)

    def test_unknown_metric_rejected(self, space):
        with pytest.raises(KeyError):
            make_objective(space, metric="latency_p99")

    def test_censored_failures_use_cap_metric(self, space):
        obj = make_objective(space, metric="core_seconds")
        ev = obj(space.encode({}))  # defaults OOM on PageRank
        assert not ev.ok
        cores = 1 * 5  # default cores x instances
        assert ev.objective == pytest.approx(obj.time_limit_s * cores)
