"""EvaluationSupervisor, the BO loop's one executor.

Where thunks run, the submit/collect protocol, deadlines, speculation,
reclaim, the exception rule and bounded shutdown.  These tests exercise
real threads and the wall clock (short, CI-safe durations): supervision
is exactly the part of the library whose job is real elapsed time,
which is why ``supervise/`` is exempt from the determinism lint and
documented as not bit-reproducible.  Every wait in here is bounded, so a
regression shows up as a failed assertion, not a hung test run.
"""

import dataclasses
import threading
import time

import pytest

import repro.supervise.supervisor as supervisor_module
from repro.obs import InMemorySink, Tracer
from repro.supervise import (Completed, DeadlineHit, EvaluationSupervisor,
                             SupervisePolicy, TaskFailed, WorkerDeath)


def make(workers=2, tracer=None, **policy_kwargs):
    return EvaluationSupervisor(workers, SupervisePolicy(**policy_kwargs),
                                tracer=tracer)


def const_factory(value):
    return lambda: (lambda: value)


def raising_factory(exc, calls=None):
    """A factory whose every thunk raises *exc*; counts dispatches."""
    def factory():
        if calls is not None:
            calls.append(1)

        def thunk():
            raise exc
        return thunk
    return factory


class TestPolicy:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SupervisePolicy(eval_timeout_s=0.0)
        with pytest.raises(ValueError):
            SupervisePolicy(quarantine_after=0)

    def test_three_fields(self):
        assert [f.name for f in dataclasses.fields(SupervisePolicy)] == \
            ["eval_timeout_s", "speculate", "quarantine_after"]

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            EvaluationSupervisor(0)


class TestWhereThunksRun:
    def test_serial_defers_to_the_collector(self):
        ran = []
        sup = EvaluationSupervisor(1)
        with sup:
            sup.submit(lambda: (lambda: ran.append(threading.get_ident())
                                or "a"), tag="a")
            assert ran == []          # nothing executes at submit time
            assert not sup.threaded
            outcome = sup.next_outcome()
        assert isinstance(outcome, Completed)
        assert (outcome.tag, outcome.result) == ("a", "a")
        assert ran == [threading.get_ident()]

    def test_serial_collect_empty_raises(self):
        with EvaluationSupervisor(1) as sup:
            assert not sup.threaded
            with pytest.raises(RuntimeError, match="no tasks in flight"):
                sup.next_outcome()


class TestBasicProtocol:
    def test_completion_round_trip(self):
        sup = make()
        with sup:
            for tag in range(3):
                sup.submit(const_factory(40 + tag), tag=tag)
                assert sup.in_flight == 1
                outcome = sup.next_outcome()
                assert isinstance(outcome, Completed)
                assert outcome.tag == tag
                assert outcome.result == 40 + tag
                assert not outcome.speculative
                assert sup.in_flight == 0
        # Three completion durations arm the adaptive deadline.
        assert sup.deadlines.deadline_s() is not None

    def test_round_trip_with_tags(self):
        with EvaluationSupervisor(2) as sup:
            sup.submit(const_factory(10), tag="a")
            sup.submit(const_factory(20), tag="b")
            got = {}
            for _ in range(2):
                outcome = sup.next_outcome()
                got[outcome.tag] = outcome.result
        assert got == {"a": 10, "b": 20}

    def test_duplicate_tag_rejected(self):
        sup = make()
        with sup:
            sup.submit(const_factory(1), tag="t")
            with pytest.raises(RuntimeError, match="already supervised"):
                sup.submit(const_factory(2), tag="t")
            sup.next_outcome()

    def test_next_outcome_requires_inflight(self):
        with make() as sup:
            with pytest.raises(RuntimeError, match="no tasks in flight"):
                sup.next_outcome()

    def test_collect_without_tasks_raises(self):
        with EvaluationSupervisor(2) as sup:
            assert sup.threaded
            with pytest.raises(RuntimeError, match="no tasks in flight"):
                sup.next_outcome()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_full_executor_refuses_submit(self, workers):
        release = threading.Event()
        with EvaluationSupervisor(workers) as sup:
            for tag in range(workers):
                sup.submit(lambda: (lambda: release.wait(10.0)), tag=tag)
            assert sup.free_workers == 0
            with pytest.raises(RuntimeError, match="executor is full"):
                sup.submit(const_factory(1), tag="extra")
            release.set()
            for _ in range(workers):
                sup.next_outcome()
            assert sup.free_workers == workers
        assert sup.abandoned_tasks == 0

    def test_ties_settle_in_dispatch_order(self):
        gate = threading.Event()
        finished = []
        with EvaluationSupervisor(3) as sup:
            for i in (0, 1, 2):
                sup.submit(lambda v=i: (lambda: gate.wait(10.0)
                                        and finished.append(v) or v),
                           tag=i)
            gate.set()
            deadline = time.monotonic() + 10.0
            while len(finished) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)      # all three done before collecting
            tags = [sup.next_outcome().tag for _ in range(3)]
        assert tags == [0, 1, 2]


class TestExceptionRule:
    """Under a policy only a WorkerDeath is reclaimed and written off;
    every other exception propagates, in every mode."""

    @pytest.mark.parametrize("workers,policy", [
        (1, None), (2, None), (1, SupervisePolicy(eval_timeout_s=30.0)),
        (2, SupervisePolicy(eval_timeout_s=30.0, speculate=True))],
        ids=["serial", "threaded", "one-worker-policy", "policy"])
    def test_exception_propagates(self, workers, policy):
        calls = []
        with EvaluationSupervisor(workers, policy) as sup:
            sup.submit(raising_factory(ZeroDivisionError(), calls),
                       tag="boom")
            with pytest.raises(ZeroDivisionError):
                sup.next_outcome()
            assert sup.in_flight == 0
            assert sup.free_workers == workers
            sup.submit(const_factory("ok"), tag="next")
            outcome = sup.next_outcome()
        assert (outcome.tag, outcome.result) == ("next", "ok")
        assert len(calls) == 1        # never redispatched

    def test_worker_death_propagates_without_policy(self):
        with EvaluationSupervisor(2) as sup:
            sup.submit(raising_factory(WorkerDeath("died")), tag=0)
            with pytest.raises(WorkerDeath):
                sup.next_outcome()

    def test_runtime_error_is_no_worker_death(self):
        with make(quarantine_after=1) as sup:
            sup.submit(raising_factory(RuntimeError("not a death")), tag=0,
                       key=b"k")
            with pytest.raises(RuntimeError, match="not a death"):
                sup.next_outcome()
        assert len(sup.quarantine) == 0   # no strike either


class TestNoPolicy:
    def test_threaded_run_never_abandons(self):
        # Three instant completions would arm DeadlinePolicy(None)'s
        # adaptive deadline (3 x their 95th percentile, microseconds); a
        # run with no policy must not consult it.
        with EvaluationSupervisor(2) as sup:
            for tag in range(3):
                sup.submit(const_factory(tag), tag=tag)
                sup.next_outcome()
            sup.submit(lambda: (lambda: time.sleep(0.3) or "slow"),
                       tag="slow")
            outcome = sup.next_outcome()
        assert isinstance(outcome, Completed)
        assert outcome.result == "slow"
        assert sup.deadlines is None
        assert sup.abandoned_tasks == 0


class TestDeadlines:
    def test_hung_task_hits_deadline(self):
        release = threading.Event()
        sink = InMemorySink()
        tracer = Tracer([sink])
        sup = make(tracer=tracer, eval_timeout_s=0.2, quarantine_after=1)
        with sup:
            sup.submit(lambda: (lambda: release.wait(30.0)), tag=0,
                       key=b"poison")
            start = time.monotonic()
            outcome = sup.next_outcome()
            waited = time.monotonic() - start
            release.set()             # unblock the abandoned thread
        assert isinstance(outcome, DeadlineHit)
        assert outcome.tag == 0
        assert outcome.deadline_s == pytest.approx(0.2)
        assert outcome.elapsed_s >= 0.2
        assert waited < 10.0          # the watchdog gave up, not the test
        assert outcome.quarantined    # quarantine_after=1
        assert sup.abandoned_tasks == 1
        assert tracer.counters["pool.abandoned_tasks"] == 1
        assert tracer.counters["supervise.deadline_hit"] == 1
        assert tracer.counters["supervise.quarantine"] == 1

    def test_finished_result_is_not_written_off(self):
        # The driver comes back after the deadline has passed, but the
        # result has been waiting since well before it.
        sup = make(eval_timeout_s=0.2)
        with sup:
            sup.submit(const_factory("done"), tag=0)
            time.sleep(0.5)
            outcome = sup.next_outcome()
        assert isinstance(outcome, Completed)
        assert outcome.result == "done"
        assert sup.abandoned_tasks == 0

    def test_late_result_of_abandoned_dispatch_is_dropped(self):
        release = threading.Event()
        with make(eval_timeout_s=0.2) as sup:
            sup.submit(lambda: (lambda: release.wait(10.0) or "stale"),
                       tag="old")
            assert isinstance(sup.next_outcome(), DeadlineHit)
            release.set()             # the orphan thread now finishes
            time.sleep(0.2)
            sup.submit(const_factory("live"), tag="new")
            outcome = sup.next_outcome()
            assert sup.in_flight == 0
        # Only the live task's result surfaces; the stale one dropped.
        assert (outcome.tag, outcome.result) == ("new", "live")


class TestWorkerDeath:
    def test_redispatch_recovers(self):
        calls = []
        sink = InMemorySink()
        tracer = Tracer([sink])

        def factory():
            calls.append(1)

            def thunk(attempt=len(calls)):
                if attempt == 1:
                    raise WorkerDeath("worker died")
                return "recovered"
            return thunk

        sup = make(tracer=tracer)
        with sup:
            sup.submit(factory, tag=0, key=b"k")
            outcome = sup.next_outcome()
        assert isinstance(outcome, Completed)
        assert outcome.result == "recovered"
        assert len(calls) == 2        # fresh thunk per physical dispatch
        assert tracer.counters["supervise.reclaim"] == 1

    def test_redispatch_exhaustion_fails_task(self):
        calls = []
        sup = make(quarantine_after=10)
        with sup:
            sup.submit(raising_factory(WorkerDeath("always dies"), calls),
                       tag=0, key=b"k")
            outcome = sup.next_outcome()
        assert isinstance(outcome, TaskFailed)
        assert isinstance(outcome.error, WorkerDeath)
        assert not outcome.quarantined
        assert len(calls) == 1 + supervisor_module.MAX_REDISPATCH

    def test_quarantined_config_is_not_redispatched(self):
        calls = []
        sup = make(quarantine_after=1)
        with sup:
            sup.submit(raising_factory(WorkerDeath("poison"), calls), tag=0,
                       key=b"poison")
            outcome = sup.next_outcome()
        assert isinstance(outcome, TaskFailed)
        assert outcome.quarantined
        assert len(calls) == 1        # quarantine preempts redispatch

    def test_keyless_task_never_quarantined(self):
        sup = make(quarantine_after=1)
        with sup:
            sup.submit(raising_factory(WorkerDeath("dies")), tag=0)  # no key
            outcome = sup.next_outcome()
        assert isinstance(outcome, TaskFailed)
        assert not outcome.quarantined


def warm(sup, duration_s):
    """Feed the adaptive thresholds MIN_COMPLETIONS equal durations: the
    straggler threshold is then 2x and the deadline 3x *duration_s*."""
    for _ in range(3):
        sup.deadlines.observe(duration_s)


class TestSpeculation:
    """Straggler twins.  Warmed at 0.2 s, a task is a straggler after
    0.4 s, and its deadline is 0.6 s after its latest dispatch — the twin
    — so an original finishing at 0.7 s still wins its race."""

    def test_twin_wins_race(self):
        release = threading.Event()
        dispatches = []
        sink = InMemorySink()
        tracer = Tracer([sink])

        def factory():
            dispatches.append(1)
            if len(dispatches) == 1:
                return lambda: release.wait(30.0)  # the straggler
            return lambda: "twin"
        sup = make(workers=2, tracer=tracer, eval_timeout_s=20.0,
                   speculate=True)
        with sup:
            warm(sup, 0.2)
            sup.submit(factory, tag=0, key=b"k")
            outcome = sup.next_outcome()
            release.set()
        assert isinstance(outcome, Completed)
        assert outcome.result == "twin"
        assert outcome.speculative
        assert len(dispatches) == 2
        assert tracer.counters["supervise.speculate"] == 1
        assert tracer.counters["supervise.speculate_wins"] == 1
        assert sup.abandoned_tasks == 1  # the straggler was dropped

    def test_original_wins_race(self):
        release = threading.Event()
        dispatches = []

        def factory():
            dispatches.append(1)
            if len(dispatches) == 1:
                return lambda: time.sleep(0.7) or "original"
            return lambda: release.wait(30.0)  # twin hangs
        sup = make(workers=2, eval_timeout_s=20.0, speculate=True)
        with sup:
            warm(sup, 0.2)
            sup.submit(factory, tag=0, key=b"k")
            outcome = sup.next_outcome()
            release.set()
        assert isinstance(outcome, Completed)
        assert outcome.result == "original"
        assert not outcome.speculative
        assert len(dispatches) == 2       # a twin was launched and lost
        assert sup.abandoned_tasks == 1

    def test_late_twin_result_is_dropped(self):
        release = threading.Event()
        dispatches = []

        def factory():
            dispatches.append(1)
            if len(dispatches) == 1:
                return lambda: time.sleep(0.7) or "original"
            return lambda: release.wait(30.0) and "twin"
        with make(workers=2, eval_timeout_s=20.0, speculate=True) as sup:
            warm(sup, 0.2)
            sup.submit(factory, tag=0, key=b"k")
            first = sup.next_outcome()
            release.set()             # the losing twin finishes now
            time.sleep(0.2)
            sup.submit(const_factory("fresh"), tag=0)
            second = sup.next_outcome()
            assert sup.in_flight == 0
        assert (first.result, first.speculative) == ("original", False)
        assert len(dispatches) == 2
        assert isinstance(second, Completed)
        assert (second.tag, second.result) == (0, "fresh")

    def test_no_twin_without_free_slot(self):
        # Warmed at 0.4 s: a straggler after 0.8 s, written off at 1.2 s.
        dispatches = []
        reads = []

        def clock():
            reads.append(1)
            return time.monotonic()

        def factory():
            dispatches.append(1)
            return lambda: time.sleep(0.85) or "slow"
        sup = EvaluationSupervisor(
            1, SupervisePolicy(eval_timeout_s=20.0, speculate=True),
            clock=clock)
        with sup:
            warm(sup, 0.4)
            sup.submit(factory, tag=0)
            outcome = sup.next_outcome()
        assert isinstance(outcome, Completed)
        assert len(dispatches) == 1       # nowhere to put a twin
        # With no slot for a twin, the wait is for the completion or the
        # deadline: no re-check every millisecond past the threshold.
        assert len(reads) < 10


class TestBoundedClose:
    def test_close_does_not_block_on_hung_task(self, monkeypatch):
        monkeypatch.setattr(supervisor_module, "CLOSE_TIMEOUT_S", 0.2)
        release = threading.Event()
        sup = EvaluationSupervisor(2)
        sup.submit(lambda: (lambda: release.wait(30.0)), tag="hung")
        start = time.monotonic()
        sup.close()
        assert time.monotonic() - start < 2.0
        assert sup.abandoned_tasks == 1
        release.set()

    def test_close_joins_finishing_tasks_cleanly(self):
        sup = EvaluationSupervisor(2)
        sup.submit(lambda: (lambda: time.sleep(0.05)), tag=0)
        sup.close()
        assert sup.abandoned_tasks == 0

    def test_close_is_idempotent(self):
        sup = EvaluationSupervisor(1)
        sup.close()
        sup.close()

    def test_abandoned_dispatch_leaves_the_join_set(self):
        # The deadline abandons the hung dispatch, so close() has nothing
        # left to join: it must not wait out CLOSE_TIMEOUT_S on it.
        release = threading.Event()
        sup = make(eval_timeout_s=0.2)
        sup.submit(lambda: (lambda: release.wait(30.0)), tag=0)
        assert isinstance(sup.next_outcome(), DeadlineHit)
        start = time.monotonic()
        sup.close()
        elapsed = time.monotonic() - start
        release.set()
        assert elapsed < supervisor_module.CLOSE_TIMEOUT_S / 5
        assert sup.abandoned_tasks == 1
