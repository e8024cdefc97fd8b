"""EvaluationSupervisor: deadlines, speculation, reclaim.

These tests exercise real threads and the wall clock (short, CI-safe
durations): supervision is exactly the part of the library whose job is
real elapsed time, which is why ``supervise/`` is exempt from the
determinism lint and documented as not bit-reproducible.
"""

import threading
import time

import pytest

from repro.obs import InMemorySink, Tracer
from repro.supervise import (Completed, DeadlineHit, EvaluationSupervisor,
                             SupervisePolicy, TaskFailed)
from repro.utils.parallel import WorkerPool


def make(n_workers=2, tracer=None, **policy_kwargs):
    pool = WorkerPool(n_workers, backend="thread")
    policy = SupervisePolicy(**policy_kwargs)
    return pool, EvaluationSupervisor(pool, policy, tracer=tracer)


def const_factory(value):
    return lambda: (lambda: value)


class TestPolicy:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SupervisePolicy(eval_timeout_s=0.0)
        with pytest.raises(ValueError):
            SupervisePolicy(quarantine_after=0)
        with pytest.raises(ValueError):
            SupervisePolicy(max_redispatch=-1)
        with pytest.raises(ValueError):
            SupervisePolicy(poll_s=0.0)

    def test_deadline_policy_inherits_knobs(self):
        policy = SupervisePolicy(eval_timeout_s=7.0, deadline_quantile=0.5,
                                 deadline_multiplier=4.0,
                                 straggler_multiplier=3.0, min_completions=5)
        deadlines = policy.deadline_policy()
        assert deadlines.eval_timeout_s == 7.0
        assert deadlines.quantile == 0.5
        assert deadlines.multiplier == 4.0
        assert deadlines.straggler_multiplier == 3.0
        assert deadlines.min_completions == 5


class TestBasicProtocol:
    def test_completion_round_trip(self):
        pool, sup = make(min_completions=1)
        with pool:
            sup.submit(const_factory(41), tag=0)
            assert sup.in_flight == 1
            outcome = sup.next_outcome()
        assert isinstance(outcome, Completed)
        assert outcome.tag == 0
        assert outcome.result == 41
        assert not outcome.speculative
        assert sup.in_flight == 0
        # Completion durations feed the adaptive deadline.
        assert sup.deadlines.deadline_s() is not None

    def test_duplicate_tag_rejected(self):
        pool, sup = make()
        with pool:
            sup.submit(const_factory(1), tag="t")
            with pytest.raises(RuntimeError, match="already supervised"):
                sup.submit(const_factory(2), tag="t")
            sup.next_outcome()

    def test_next_outcome_requires_inflight(self):
        pool, sup = make()
        with pool:
            with pytest.raises(RuntimeError, match="no supervised tasks"):
                sup.next_outcome()

    def test_serial_pool_degenerates_to_fifo(self):
        pool = WorkerPool(1, backend="serial")
        sup = EvaluationSupervisor(pool, SupervisePolicy())
        with pool:
            sup.submit(const_factory("ok"), tag=5)
            outcome = sup.next_outcome()
        assert isinstance(outcome, Completed)
        assert outcome.result == "ok"


class TestDeadlines:
    def test_hung_task_hits_deadline(self):
        release = threading.Event()
        sink = InMemorySink()
        tracer = Tracer([sink])
        pool, sup = make(tracer=tracer, eval_timeout_s=0.2,
                         quarantine_after=1)
        with pool:
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
        assert pool.abandoned_tasks == 1
        assert tracer.counters["supervise.deadline_hit"] == 1
        assert tracer.counters["supervise.quarantine"] == 1

    def test_finished_result_is_not_written_off(self):
        # The driver comes back after the deadline has passed, but the
        # result has been waiting since well before it.
        pool, sup = make(eval_timeout_s=0.2)
        with pool:
            sup.submit(const_factory("done"), tag=0)
            time.sleep(0.5)
            outcome = sup.next_outcome()
        assert isinstance(outcome, Completed)
        assert outcome.result == "done"
        assert pool.abandoned_tasks == 0


class TestWorkerDeath:
    def test_redispatch_recovers(self):
        calls = []
        sink = InMemorySink()
        tracer = Tracer([sink])

        def factory():
            calls.append(1)

            def thunk(attempt=len(calls)):
                if attempt == 1:
                    raise RuntimeError("worker died")
                return "recovered"
            return thunk

        pool, sup = make(tracer=tracer, max_redispatch=1)
        with pool:
            sup.submit(factory, tag=0, key=b"k")
            outcome = sup.next_outcome()
        assert isinstance(outcome, Completed)
        assert outcome.result == "recovered"
        assert len(calls) == 2        # fresh thunk per physical dispatch
        assert tracer.counters["supervise.reclaim"] == 1

    def test_redispatch_exhaustion_fails_task(self):
        def factory():
            def thunk():
                raise RuntimeError("always dies")
            return thunk

        pool, sup = make(max_redispatch=1, quarantine_after=10)
        with pool:
            sup.submit(factory, tag=0, key=b"k")
            outcome = sup.next_outcome()
        assert isinstance(outcome, TaskFailed)
        assert isinstance(outcome.error, RuntimeError)
        assert not outcome.quarantined

    def test_quarantined_config_is_not_redispatched(self):
        calls = []

        def factory():
            calls.append(1)

            def thunk():
                raise RuntimeError("poison")
            return thunk

        pool, sup = make(max_redispatch=5, quarantine_after=1)
        with pool:
            sup.submit(factory, tag=0, key=b"poison")
            outcome = sup.next_outcome()
        assert isinstance(outcome, TaskFailed)
        assert outcome.quarantined
        assert len(calls) == 1        # quarantine preempts redispatch

    def test_keyless_task_never_quarantined(self):
        def factory():
            def thunk():
                raise RuntimeError("dies")
            return thunk

        pool, sup = make(max_redispatch=0, quarantine_after=1)
        with pool:
            sup.submit(factory, tag=0)  # no key
            outcome = sup.next_outcome()
        assert isinstance(outcome, TaskFailed)
        assert not outcome.quarantined


class TestSpeculation:
    """Straggler twins.  Warm-up completions take ~0.05s so the adaptive
    thresholds are meaningful: straggler at ~2x, deadline pushed far out
    with a large multiplier so only speculation (not abandonment) fires.
    """

    def _warm(self, sup, tag_base=100):
        sup.submit(lambda: (lambda: time.sleep(0.05) or None),
                   tag=tag_base)
        assert isinstance(sup.next_outcome(), Completed)

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
        pool, sup = make(n_workers=2, tracer=tracer, eval_timeout_s=20.0,
                         speculate=True, min_completions=1,
                         deadline_multiplier=1000.0)
        with pool:
            self._warm(sup)
            sup.submit(factory, tag=0, key=b"k")
            outcome = sup.next_outcome()
            release.set()
        assert isinstance(outcome, Completed)
        assert outcome.result == "twin"
        assert outcome.speculative
        assert len(dispatches) == 2
        assert tracer.counters["supervise.speculate"] == 1
        assert tracer.counters["supervise.speculate_wins"] == 1
        assert pool.abandoned_tasks == 1  # the straggler was dropped

    def test_original_wins_race(self):
        release = threading.Event()
        dispatches = []

        def factory():
            dispatches.append(1)
            if len(dispatches) == 1:
                return lambda: time.sleep(0.3) or "original"
            return lambda: release.wait(30.0)  # twin hangs
        pool, sup = make(n_workers=2, eval_timeout_s=20.0, speculate=True,
                         min_completions=1, deadline_multiplier=1000.0,
                         straggler_multiplier=1.5)
        with pool:
            self._warm(sup)
            sup.submit(factory, tag=0, key=b"k")
            outcome = sup.next_outcome()
            release.set()
        assert isinstance(outcome, Completed)
        assert outcome.result == "original"
        assert not outcome.speculative
        assert len(dispatches) == 2       # a twin was launched and lost
        assert pool.abandoned_tasks == 1

    def test_no_twin_without_free_slot(self):
        dispatches = []

        def factory():
            dispatches.append(1)
            return lambda: time.sleep(0.25) or "slow"
        pool, sup = make(n_workers=1, eval_timeout_s=20.0, speculate=True,
                         min_completions=1, deadline_multiplier=1000.0)
        with pool:
            self._warm(sup)
            sup.submit(factory, tag=0)
            outcome = sup.next_outcome()
        assert isinstance(outcome, Completed)
        assert len(dispatches) == 1       # nowhere to put a twin
