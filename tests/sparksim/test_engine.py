"""Tests for the DES core and the event-driven stage model in the
scheduling oracle."""

import numpy as np
import pytest

from oracle import (EventDrivenStage, EventQueue, Simulation,
                    event_driven_makespan, list_schedule_exact)

from repro.sparksim import SparkConf
from repro.sparksim.scheduler import stage_makespan


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        q.push(3.0, "c")
        q.push(1.0, "a")
        q.push(2.0, "b")
        assert [q.pop().kind for _ in range(3)] == ["a", "b", "c"]

    def test_fifo_among_simultaneous(self):
        q = EventQueue()
        q.push(1.0, "first")
        q.push(1.0, "second")
        assert q.pop().kind == "first"
        assert q.pop().kind == "second"

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, "x")

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q and len(q) == 0
        q.push(0.0, "x")
        assert q and len(q) == 1


class TestSimulation:
    def test_clock_advances_monotonically(self):
        sim = Simulation()
        seen = []
        sim.on("tick", lambda s, e: seen.append(s.now))
        for t in (5.0, 1.0, 3.0):
            sim.queue.push(t, "tick")
        end = sim.run()
        assert seen == [1.0, 3.0, 5.0]
        assert end == 5.0
        assert sim.processed == 3

    def test_handlers_can_schedule_relative(self):
        sim = Simulation()
        seen = []

        def chain(s, e):
            seen.append(s.now)
            if len(seen) < 3:
                s.schedule(2.0, "chain")

        sim.on("chain", chain)
        sim.schedule(1.0, "chain")
        sim.run()
        assert seen == [1.0, 3.0, 5.0]

    def test_horizon_clamps(self):
        sim = Simulation()
        sim.on("late", lambda s, e: None)
        sim.queue.push(100.0, "late")
        assert sim.run(until=10.0) == 10.0
        assert len(sim.queue) == 1  # unprocessed

    def test_stop_terminates(self):
        sim = Simulation()
        sim.on("halt", lambda s, e: s.stop())
        sim.on("never", lambda s, e: pytest.fail("ran past stop"))
        sim.queue.push(1.0, "halt")
        sim.queue.push(2.0, "never")
        sim.run()
        assert sim.now == 1.0

    def test_unknown_event_kind_raises(self):
        sim = Simulation()
        sim.queue.push(1.0, "mystery")
        with pytest.raises(KeyError):
            sim.run()

    def test_duplicate_handler_rejected(self):
        sim = Simulation()
        sim.on("x", lambda s, e: None)
        with pytest.raises(ValueError):
            sim.on("x", lambda s, e: None)


class TestEventDrivenStage:
    def test_matches_exact_list_schedule_without_speculation(self):
        rng = np.random.default_rng(0)
        for dispatch_s in (0.0, 0.001, 0.05, 0.5):
            for _ in range(10):
                n = int(rng.integers(1, 80))
                slots = int(rng.integers(1, 16))
                d = np.exp(rng.normal(0.0, 0.2, n))
                stage = EventDrivenStage(d, slots, dispatch_s,
                                         conf=SparkConf())
                assert stage.run() == pytest.approx(
                    list_schedule_exact(d, slots, dispatch_s))

    def test_dispatch_cost_serializes_launches(self):
        d = np.full(10, 0.001)
        stage = EventDrivenStage(d, slots=10, dispatch_s=0.5,
                                 conf=SparkConf())
        # Every slot is free, but the driver launches one task per
        # dispatch_s: the last starts at 9 * 0.5 and runs 0.001.
        assert stage.run() == 4.501

    def test_speculation_rescues_straggler(self):
        conf = SparkConf({"spark.speculation": True,
                          "spark.speculation.multiplier": 1.5,
                          "spark.speculation.quantile": 0.5})
        d = np.concatenate([np.ones(19), [60.0]])
        spec = EventDrivenStage(d, slots=8, conf=conf)
        t_spec = spec.run()
        plain = EventDrivenStage(d, slots=8, conf=SparkConf())
        t_plain = plain.run()
        assert spec.speculative_launches >= 1
        assert t_spec < t_plain

    def test_speculation_waits_for_quantile(self):
        conf = SparkConf({"spark.speculation": True,
                          "spark.speculation.multiplier": 1.5,
                          "spark.speculation.quantile": 0.95})
        # The straggler IS the last 5%, so the quantile gate only opens
        # once everything else finished.
        d = np.concatenate([np.ones(19), [60.0]])
        stage = EventDrivenStage(d, slots=20, conf=conf)
        stage.run()
        # A copy may still launch (after 19/20 finished) but never before.
        assert stage.speculative_launches <= 1

    def test_empty_stage(self):
        stage = EventDrivenStage(np.array([]), slots=4, conf=SparkConf())
        assert stage.run() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EventDrivenStage(np.array([-1.0]), 4)
        with pytest.raises(ValueError):
            EventDrivenStage(np.array([1.0]), 0)


class TestMakespanAdapter:
    def test_returns_waves(self):
        t, waves = event_driven_makespan(np.ones(10), SparkConf(), 4)
        assert waves == 3
        assert t == pytest.approx(3.0)

    def test_close_to_fast_path(self):
        rng = np.random.default_rng(5)
        d = np.exp(rng.normal(0, 0.1, 60))
        t_event, _ = event_driven_makespan(d, SparkConf(), 12)
        t_fast, _ = stage_makespan(d, SparkConf(), 12)
        assert abs(t_event - t_fast) / t_event < 0.15
