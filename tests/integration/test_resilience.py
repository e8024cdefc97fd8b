"""Integration tests for the resilience layer (docs/ROBUSTNESS.md).

The headline guarantee under test: a tuning session killed mid-search and
resumed from its journal produces a result bit-identical to the same-seed
session run uninterrupted — for ROBOTune and all three baselines, with
and without fault injection.
"""

import numpy as np
import pytest

from repro.core.journal import EvaluationJournal
from repro.core.selection import ParameterSelector
from repro.core.tuner import ROBOTune
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.space import spark_space
from repro.tuners import WorkloadObjective
from repro.tuners.bestconfig import BestConfig
from repro.tuners.gunther import Gunther
from repro.tuners.random_search import RandomSearch
from repro.workloads import get_workload

SEED = 1234


@pytest.fixture(scope="module")
def space():
    return spark_space()


class Killed(Exception):
    """Stand-in for the process dying mid-search."""


class KillAfter:
    """Objective wrapper that dies after *n* executed evaluations."""

    def __init__(self, objective, n):
        self._objective = objective
        self._shared = {"calls": 0, "n": n}

    @property
    def space(self):
        return self._objective.space

    @property
    def time_limit_s(self):
        return self._objective.time_limit_s

    def with_space(self, space):
        clone = object.__new__(KillAfter)
        clone.__dict__ = dict(self.__dict__)
        clone._objective = self._objective.with_space(space)
        return clone

    def __getattr__(self, name):
        return getattr(self.__dict__["_objective"], name)

    def __call__(self, u, time_limit_s=None):
        if self._shared["calls"] >= self._shared["n"]:
            raise Killed
        self._shared["calls"] += 1
        return self._objective(u, time_limit_s)


def make_objective(space, *, faults=0.0):
    objective = WorkloadObjective(get_workload("pagerank", "D1"), space,
                                  rng=np.random.default_rng(SEED + 1))
    if faults:
        objective = FaultInjector(objective, FaultPlan(faults, seed=SEED + 2),
                                  retry=RetryPolicy(max_retries=2))
    return objective


def make_tuner(name):
    rng = np.random.default_rng(SEED)
    if name == "ROBOTune":
        # n_repeats=2 keeps the selection phase short; what matters here
        # is that its evaluations are journaled and replayed too.
        return ROBOTune(selector=ParameterSelector(n_repeats=2, rng=rng),
                        rng=rng), rng
    return {"RandomSearch": RandomSearch(), "BestConfig": BestConfig(),
            "Gunther": Gunther()}[name], rng


def assert_identical(a, b):
    assert len(a.evaluations) == len(b.evaluations)
    for x, y in zip(a.evaluations, b.evaluations):
        assert np.array_equal(x.vector, y.vector)
        assert x.objective == y.objective
        assert x.cost_s == y.cost_s
        assert x.status is y.status
        assert x.truncated == y.truncated
        assert x.transient == y.transient
        assert x.fault == y.fault
        assert all(y.config[k] == v for k, v in x.config.items())


def kill_resume_roundtrip(name, space, tmp_path, *, budget, kill_after,
                          faults=0.0):
    journal_path = tmp_path / "session.jsonl"

    # Reference: the same seed, never interrupted.
    tuner, rng = make_tuner(name)
    straight = tuner.tune(make_objective(space, faults=faults), budget,
                          rng=rng)

    # The session dies after *kill_after* executed evaluations...
    tuner, rng = make_tuner(name)
    with pytest.raises(Killed):
        tuner.checkpoint(KillAfter(make_objective(space, faults=faults),
                                   kill_after),
                         budget, journal_path, rng=rng)
    n_logged = len(EvaluationJournal(journal_path))
    assert n_logged == kill_after      # every finished evaluation survived

    # ... and a fresh process resumes it from the journal alone.
    tuner, rng = make_tuner(name)
    resumed = tuner.resume(make_objective(space, faults=faults), budget,
                           journal_path, rng=rng)
    assert_identical(straight, resumed)
    return straight, resumed


class TestKillAndResume:
    def test_robotune_resumes_bit_identical(self, space, tmp_path):
        # 30 objective calls is mid-parameter-selection for this budget:
        # resume must replay the selection phase's evaluations as well.
        straight, resumed = kill_resume_roundtrip(
            "ROBOTune", space, tmp_path, budget=15, kill_after=30)
        assert resumed.selected_parameters == straight.selected_parameters
        assert resumed.best_time_s == straight.best_time_s

    @pytest.mark.parametrize("name", ["RandomSearch", "BestConfig", "Gunther"])
    def test_baselines_resume_bit_identical(self, name, space, tmp_path):
        kill_resume_roundtrip(name, space, tmp_path, budget=40,
                              kill_after=30)

    def test_resume_under_fault_injection(self, space, tmp_path):
        # The fault plan's evaluation index must stay aligned across the
        # replay (via the injector's skip hook) for this to hold.
        straight, _ = kill_resume_roundtrip(
            "RandomSearch", space, tmp_path, budget=40, kill_after=30,
            faults=0.15)
        assert any(e.fault is not None for e in straight.evaluations)

    def test_resume_cuts_torn_tails(self, space, tmp_path):
        # Two crashes, each tearing the final record (mid-record, then
        # only its newline): every resume keeps what the last one wrote.
        straight_path = tmp_path / "straight.jsonl"
        tuner, rng = make_tuner("RandomSearch")
        straight = tuner.checkpoint(make_objective(space), 40, straight_path,
                                    rng=rng)
        journal_path = tmp_path / "session.jsonl"
        tuner, rng = make_tuner("RandomSearch")
        with pytest.raises(Killed):
            tuner.checkpoint(KillAfter(make_objective(space), 10), 40,
                             journal_path, rng=rng)
        journal_path.write_bytes(journal_path.read_bytes()[:-5])
        tuner, rng = make_tuner("RandomSearch")
        with pytest.raises(Killed):
            tuner.resume(KillAfter(make_objective(space), 20), 40,
                         journal_path, rng=rng)
        assert len(EvaluationJournal(journal_path)) == 30
        journal_path.write_bytes(journal_path.read_bytes()[:-1])
        tuner, rng = make_tuner("RandomSearch")
        resumed = tuner.resume(make_objective(space), 40, journal_path,
                               rng=rng)
        assert_identical(straight, resumed)
        assert len(EvaluationJournal(journal_path)) == 40
        assert journal_path.read_bytes() == straight_path.read_bytes()

    def test_resume_refuses_foreign_journal(self, space, tmp_path):
        journal_path = tmp_path / "session.jsonl"
        tuner, rng = make_tuner("RandomSearch")
        tuner.checkpoint(make_objective(space), 5, journal_path, rng=rng)
        other, rng = make_tuner("Gunther")
        with pytest.raises(ValueError, match="written by 'RandomSearch'"):
            other.resume(make_objective(space), 5, journal_path, rng=rng)

    def test_resume_refuses_other_workload(self, space, tmp_path):
        journal_path = tmp_path / "session.jsonl"
        tuner, rng = make_tuner("RandomSearch")
        tuner.checkpoint(make_objective(space), 5, journal_path, rng=rng)
        other = WorkloadObjective(get_workload("terasort", "D1"), space,
                                  rng=np.random.default_rng(SEED + 1))
        tuner, rng = make_tuner("RandomSearch")
        with pytest.raises(ValueError, match="belongs to workload"):
            tuner.resume(other, 5, journal_path, rng=rng)


class TestInFlightRecovery:
    """Dispatch records with no settling eval: work in flight at the kill.

    ``KillAfter`` raises *inside* the objective call, after the journal
    durably recorded the dispatch — exactly what a process death mid-
    evaluation leaves on disk.
    """

    def _kill_session(self, space, tmp_path, *, budget=40, kill_after=10):
        journal_path = tmp_path / "session.jsonl"
        tuner, rng = make_tuner("RandomSearch")
        with pytest.raises(Killed):
            tuner.checkpoint(KillAfter(make_objective(space), kill_after),
                             budget, journal_path, rng=rng)
        return journal_path

    def test_kill_leaves_exactly_one_pending_dispatch(self, space, tmp_path):
        journal_path = self._kill_session(space, tmp_path)
        journal = EvaluationJournal(journal_path)
        _, records, pending, next_seq = journal.recovery()
        assert len(pending) == 1          # the evaluation that was executing
        assert next_seq == 11
        assert len(records) == 10         # only settled records count

    def test_redispatch_resume_settles_the_pending_dispatch(self, space,
                                                            tmp_path):
        # Bit-identity of the default (redispatch) mode is pinned by
        # TestKillAndResume; here we pin the journal-level accounting.
        straight, resumed = kill_resume_roundtrip(
            "RandomSearch", space, tmp_path, budget=40, kill_after=10)
        _, records, pending, _ = EvaluationJournal(
            tmp_path / "session.jsonl").recovery()
        assert pending == []
        assert len(records) == 40
        assert all(e.fault is None for e in resumed.evaluations)

    def test_censor_resume_writes_off_the_inflight_evaluation(self, space,
                                                              tmp_path):
        journal_path = self._kill_session(space, tmp_path)
        crashed = np.asarray(
            EvaluationJournal(journal_path).recovery()[2][0].vector)
        tuner, rng = make_tuner("RandomSearch")
        resumed = tuner.resume(make_objective(space), 40, journal_path,
                               rng=rng, recover="censor")
        assert resumed.n_evaluations == 40
        censored = [e for e in resumed.evaluations
                    if e.fault == "crash_recovery"]
        assert len(censored) == 1
        assert np.array_equal(censored[0].vector, crashed)
        assert censored[0].truncated and censored[0].transient
        _, records, pending, _ = EvaluationJournal(journal_path).recovery()
        assert pending == []
        assert len(records) == 40


class TestSupervisedTuningUnderChaos:
    """Hang/worker-death chaos on the real workload objective."""

    def test_robotune_supervised_survives_hangs(self, space):
        from repro.core import ParameterSelectionCache
        from repro.faults import HangInjector, HangPlan
        from repro.supervise import SupervisePolicy
        objective = make_objective(space)
        # Pre-warm the selection cache so the unsupervised selection phase
        # is skipped and the chaos lands on the supervised BO loop.
        cache = ParameterSelectionCache()
        cache.put(objective.workload.key, list(space.names)[:6])
        # SEED + 6 draws no fault on indices 0-3 (the unsupervised initial
        # design) and a hang/death mix on the supervised BO phase.
        chaotic = HangInjector(objective,
                               HangPlan(0.3, seed=SEED + 6, hang_s=5.0,
                                        death_share=0.5))
        tuner = ROBOTune(selection_cache=cache, init_samples=4,
                         async_workers=2, rng=np.random.default_rng(SEED),
                         supervise=SupervisePolicy(eval_timeout_s=0.3,
                                                   quarantine_after=2))
        result = tuner.tune(chaotic, 12, rng=np.random.default_rng(SEED))
        assert result.n_evaluations == 12
        faults = [e.fault for e in result.evaluations if e.fault]
        assert faults                      # the chaos actually landed
        assert set(faults) <= {"deadline", "worker_death"}


class TestTuningUnderFaults:
    """Tier-1 coverage of the full fault path on the real objective."""

    def test_random_search_completes_under_faults(self, space):
        objective = make_objective(space, faults=0.2)
        result = RandomSearch().tune(objective, 25,
                                     rng=np.random.default_rng(SEED))
        assert result.n_evaluations == 25
        stats = objective.stats
        assert stats["injected"] > 0
        # Retry cost is charged: total cost covers at least the backoff.
        assert result.search_cost_s >= stats["backoff_s"]

    def test_robotune_completes_under_faults(self, space):
        objective = make_objective(space, faults=0.15)
        tuner, rng = make_tuner("ROBOTune")
        result = tuner.tune(objective, 12, rng=rng)
        assert result.n_evaluations == 12
        assert result.best_time_s > 0

    def test_fault_free_run_is_untouched_by_wrapping(self, space):
        plain = RandomSearch().tune(make_objective(space), 15,
                                    rng=np.random.default_rng(SEED))
        wrapped_obj = FaultInjector(make_objective(space), FaultPlan(0.0),
                                    retry=RetryPolicy())
        wrapped = RandomSearch().tune(wrapped_obj, 15,
                                      rng=np.random.default_rng(SEED))
        assert_identical(plain, wrapped)
