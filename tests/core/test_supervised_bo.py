"""BOEngine supervised execution: censored synthesis, quarantine,
engine-level routing, and guard-kill accounting of write-offs
(docs/ROBUSTNESS.md)."""

import threading
import warnings

import numpy as np
import pytest

from repro.core import BOEngine, MedianGuard
from repro.core.journal import EvaluationJournal, JournaledObjective
from repro.faults import HangInjector, HangPlan
from repro.obs import InMemorySink, Tracer, summarize
from repro.sampling import latin_hypercube
from repro.sparksim.result import RunStatus
from repro.supervise import SupervisePolicy
from repro.supervise.quarantine import vector_key
from repro.tuners import SyntheticObjective, synthetic_space
from repro.tuners.base import ObjectiveWrapper


def make_problem(dim=4, seed=0, n_initial=8):
    space = synthetic_space(dim)
    objective = SyntheticObjective(space, n_effective=3, noise=0.01,
                                   rng=seed)
    initial = [objective(u) for u in latin_hypercube(n_initial, dim,
                                                     rng=seed)]
    return space, objective, initial


class _Probe(ObjectiveWrapper):
    """Spawnable probe: records the thread of every call, and from call
    *fail_at* on raises ``ValueError``.  Its views share the record."""

    def __init__(self, inner, *, fail_at=None):
        super().__init__(inner)
        self.threads = []
        self._lock = threading.Lock()
        self._fail_at = fail_at

    def __call__(self, u, time_limit_s=None):
        with self._lock:
            self.threads.append(threading.get_ident())
            n = len(self.threads)
        if self._fail_at is not None and n >= self._fail_at:
            raise ValueError(f"objective failed at call {n}")
        return self._objective(u, time_limit_s)


class TestWhereEvaluationsRun:
    @pytest.mark.parametrize("async_workers,policy,on_caller", [
        (0, None, True),
        (1, None, True),
        (2, None, False),
        (1, SupervisePolicy(eval_timeout_s=30.0), False)],
        ids=["serial-0", "serial-1", "two-workers", "one-worker-policy"])
    def test_evaluation_thread(self, async_workers, policy, on_caller):
        space, objective, initial = make_problem(seed=23)
        probe = _Probe(objective)
        sink = InMemorySink()
        tracer = Tracer([sink])
        engine = BOEngine(rng=24, n_candidates=64, refine=False,
                          async_workers=async_workers, supervise=policy,
                          tracer=tracer)
        evals = engine.minimize(probe, space, initial, budget=5)
        tracer.close()
        assert len(evals) == len(probe.threads) == 5
        caller = threading.get_ident()
        if on_caller:
            assert set(probe.threads) == {caller}
        else:
            assert caller not in probe.threads
        # async.* and pool.task records come with the threads, and only
        # with them: async_workers 0 and 1 are one setting.
        async_types = {e["type"] for e in sink.events()
                       if e["type"].startswith("async.")}
        assert (async_types == set()) is on_caller
        assert ("pool.task" in tracer.timers) is not on_caller


class TestExceptionRule:
    """Only a worker death is written off: any other exception from an
    evaluation propagates, supervised or not."""

    @pytest.mark.parametrize("async_workers,policy", [
        (1, SupervisePolicy(eval_timeout_s=30.0)),
        (2, SupervisePolicy(eval_timeout_s=30.0, speculate=True)),
        (0, None), (2, None)],
        ids=["one-worker-policy", "policy", "serial", "two-workers"])
    def test_objective_error_propagates(self, async_workers, policy):
        space, objective, initial = make_problem(seed=25)
        probe = _Probe(objective, fail_at=3)
        engine = BOEngine(rng=26, n_candidates=64, refine=False,
                          async_workers=async_workers, supervise=policy)
        with pytest.raises(ValueError, match="objective failed at call 3"):
            engine.minimize(probe, space, initial, budget=8)


class TestValidation:
    def test_supervise_requires_async_workers(self):
        with pytest.raises(ValueError, match="async_workers"):
            BOEngine(supervise=SupervisePolicy())

    def test_supervise_type_checked(self):
        with pytest.raises(TypeError, match="SupervisePolicy"):
            BOEngine(async_workers=1, supervise={"eval_timeout_s": 1.0})


class TestFaultFreeSupervision:
    def test_completes_budget(self):
        space, objective, initial = make_problem(seed=1)
        engine = BOEngine(rng=2, n_candidates=64, async_workers=2,
                          supervise=SupervisePolicy(eval_timeout_s=30.0))
        evals = engine.minimize(objective, space, initial, budget=10)
        assert len(evals) == 10
        assert all(e.fault is None for e in evals)
        assert engine.quarantined == []

    def test_single_worker_supervised(self):
        space, objective, initial = make_problem(seed=3)
        engine = BOEngine(rng=4, n_candidates=64, async_workers=1,
                          supervise=SupervisePolicy(eval_timeout_s=30.0))
        evals = engine.minimize(objective, space, initial, budget=6)
        assert len(evals) == 6

    def test_early_stop_respected(self):
        space, objective, initial = make_problem(seed=5)
        engine = BOEngine(rng=6, n_candidates=64, async_workers=2,
                          early_stop_patience=2,
                          supervise=SupervisePolicy(eval_timeout_s=30.0))
        evals = engine.minimize(objective, space, initial, budget=40)
        assert len(evals) < 40

    def test_non_spawnable_objective_degrades_audibly(self):
        space, objective, initial = make_problem(seed=7)

        class _PlainWrapper:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def __call__(self, u, time_limit_s=None):
                return self._inner(u, time_limit_s)

        engine = BOEngine(rng=8, n_candidates=64, async_workers=3,
                          supervise=SupervisePolicy(eval_timeout_s=30.0,
                                                    speculate=True))
        with pytest.warns(RuntimeWarning, match="degraded to serial"):
            evals = engine.minimize(_PlainWrapper(objective), space,
                                    initial, budget=6)
        assert len(evals) == 6


class TestDeadlinesAndQuarantine:
    def test_hung_evaluations_are_censored(self):
        space, objective, initial = make_problem(seed=9)
        # Every evaluation hangs far past the 0.2s hard deadline.
        inj = HangInjector(objective, HangPlan(1.0, seed=1, hang_s=30.0,
                                               death_share=0.0))
        sink = InMemorySink()
        tracer = Tracer([sink])
        engine = BOEngine(rng=10, n_candidates=64, async_workers=2,
                          supervise=SupervisePolicy(eval_timeout_s=0.2,
                                                    quarantine_after=99),
                          tracer=tracer)
        evals = engine.minimize(inj, space, initial, budget=4)
        assert len(evals) == 4
        assert all(e.fault == "deadline" for e in evals)
        assert all(e.status is RunStatus.TIMEOUT for e in evals)
        assert all(e.truncated and e.transient for e in evals)
        # Censored at the objective's full cap, charged to search cost.
        assert all(e.cost_s == pytest.approx(inj.time_limit_s)
                   for e in evals)
        assert tracer.counters["supervise.deadline_hit"] == 4

    def test_worker_deaths_are_censored_after_redispatch(self):
        space, objective, initial = make_problem(seed=11)
        inj = HangInjector(objective, HangPlan(1.0, seed=2,
                                               death_share=1.0))
        sink = InMemorySink()
        tracer = Tracer([sink])
        engine = BOEngine(rng=12, n_candidates=64, async_workers=2,
                          supervise=SupervisePolicy(eval_timeout_s=30.0,
                                                    quarantine_after=99),
                          tracer=tracer)
        evals = engine.minimize(inj, space, initial, budget=4)
        assert len(evals) == 4
        assert all(e.fault == "worker_death" for e in evals)
        assert all(e.status is RunStatus.RUNTIME_ERROR for e in evals)
        # Each task got one reclaim-and-redispatch before giving up.
        assert tracer.counters["supervise.reclaim"] == 4

    def test_poison_config_quarantined_and_not_reproposed(self):
        space, objective, initial = make_problem(seed=13)
        poisoned = []

        def poison(u):
            # Poison whatever the engine proposes first; remember it.
            if not poisoned:
                poisoned.append(u.copy())
            return bool(np.array_equal(u, poisoned[0]))

        inj = HangInjector(objective, HangPlan(0.0), poison=poison,
                           poison_kind="worker_death")
        engine = BOEngine(rng=14, n_candidates=64, async_workers=1,
                          supervise=SupervisePolicy(eval_timeout_s=30.0,
                                                    quarantine_after=1))
        evals = engine.minimize(inj, space, initial, budget=8)
        assert len(evals) == 8
        assert len(engine.quarantined) == 1
        assert np.array_equal(engine.quarantined[0], poisoned[0])
        # The poison vector was never proposed again after quarantine.
        key = vector_key(poisoned[0])
        later = [e for e in evals[1:]]
        assert all(vector_key(e.vector) != key for e in later)
        # Exactly one evaluation was charged to the poison config.
        assert sum(e.fault == "worker_death" for e in evals) == 1

    def test_censor_value_hook_preferred(self):
        space, objective, initial = make_problem(seed=15)

        class _Censoring(SyntheticObjective):
            def censor_value(self, config, limit_s):
                assert limit_s is None  # full-cap censoring
                return 1234.5

        censoring = _Censoring(space, n_effective=3, noise=0.01, rng=15)
        inj = HangInjector(censoring, HangPlan(1.0, seed=3,
                                               death_share=1.0))
        engine = BOEngine(rng=16, n_candidates=64, async_workers=1,
                          supervise=SupervisePolicy(eval_timeout_s=30.0,
                                                    quarantine_after=99))
        evals = engine.minimize(inj, space, initial, budget=2)
        assert all(e.objective == 1234.5 for e in evals)


class TestChaoticMix:
    def test_mixed_faults_complete_budget(self):
        space, objective, initial = make_problem(seed=17)
        inj = HangInjector(objective, HangPlan(0.4, seed=4, hang_s=0.5,
                                               death_share=0.5))
        sink = InMemorySink()
        tracer = Tracer([sink])
        engine = BOEngine(rng=18, n_candidates=64, async_workers=3,
                          supervise=SupervisePolicy(eval_timeout_s=0.2,
                                                    speculate=True,
                                                    quarantine_after=2),
                          tracer=tracer)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            evals = engine.minimize(inj, space, initial, budget=12)
        assert len(evals) == 12
        # The session made progress despite the chaos: at least one
        # clean evaluation landed.
        assert any(e.fault is None for e in evals)


def guard_kill_faults(events):
    """``fault`` of the evaluation behind each ``guard.kill`` event (the
    loop emits it right after that evaluation's ``eval.result``)."""
    faults, last = [], None
    for event in events:
        if event["type"] == "eval.result":
            last = event["data"]
        elif event["type"] == "guard.kill":
            faults.append(last["fault"])
    return faults


class TestGuardKillAccounting:
    """``guard.kill`` traces only runs a kill threshold stopped.  The
    censored write-offs — deadline hits, worker deaths, crash recovery —
    are truncated too, but no threshold killed them."""

    def test_deadline_write_offs_are_not_guard_kills(self):
        space, objective, initial = make_problem(seed=9)
        inj = HangInjector(objective, HangPlan(1.0, seed=1, hang_s=30.0,
                                               death_share=0.0))
        sink = InMemorySink()
        tracer = Tracer([sink])
        guard = MedianGuard(3.0, static_limit_s=480.0)
        engine = BOEngine(rng=10, n_candidates=64, async_workers=2,
                          supervise=SupervisePolicy(eval_timeout_s=0.2,
                                                    quarantine_after=99),
                          tracer=tracer)
        evals = engine.minimize(inj, space, initial, budget=4, guard=guard)
        tracer.close()
        assert [e.fault for e in evals] == ["deadline"] * 4
        assert all(e.truncated for e in evals)
        assert guard.threshold_s() is not None
        assert tracer.counters["supervise.deadline_hit"] == 4
        assert guard_kill_faults(sink.events()) == []
        assert summarize(sink.records).guard_kills == 0

    def test_crash_recovery_write_offs_are_not_guard_kills(self, tmp_path):
        # Record a 6-evaluation session, then drop the last settle line:
        # the journal now shows that evaluation in flight at a crash.
        path = tmp_path / "session.jsonl"

        def run(journaled, tracer=None):
            space, _, initial = make_problem(seed=19)
            engine = BOEngine(rng=20, n_candidates=64, refine=False,
                              tracer=tracer)
            return engine.minimize(journaled, space, initial, budget=6,
                                   guard=MedianGuard(3.0,
                                                     static_limit_s=480.0))

        journal = EvaluationJournal(path)
        journal.write_meta({"session": "crash-recovery"})
        run(JournaledObjective(make_problem(seed=19)[1], journal))
        journal.close()
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))

        journal = EvaluationJournal(path)
        _, records, pending, next_seq = journal.recovery()
        resumed = JournaledObjective(make_problem(seed=19)[1], journal,
                                     replay=records, pending=pending,
                                     next_seq=next_seq, recover="censor")
        sink = InMemorySink()
        tracer = Tracer([sink])
        evals = run(resumed, tracer)
        tracer.close()
        journal.close()
        # The write-off reached the loop truncated, under a threshold.
        assert evals[-1].fault == "crash_recovery"
        assert evals[-1].truncated
        assert "crash_recovery" not in guard_kill_faults(sink.events())

    def test_threshold_kills_are_still_traced(self):
        space, objective, initial = make_problem(seed=21)
        sink = InMemorySink()
        tracer = Tracer([sink])
        # A cap at the best prior truncates every run slower than it.
        guard = MedianGuard(3.0, static_limit_s=min(e.cost_s
                                                    for e in initial))
        engine = BOEngine(rng=22, n_candidates=64, refine=False,
                          tracer=tracer)
        evals = engine.minimize(objective, space, initial, budget=8,
                                guard=guard)
        tracer.close()
        killed = sum(e.truncated for e in evals)
        assert killed > 0
        assert guard_kill_faults(sink.events()) == [None] * killed
        assert summarize(sink.records).guard_kills == killed
