"""Chaos smoke benchmark: tuning under a fixed transient-fault plan.

Runs short ROBOTune and RandomSearch sessions with fault injection at a
fixed plan seed and asserts the resilience guarantees that matter
operationally: the session completes (no unhandled exception), spends its
full budget, surfaces faults, and the retry/backoff overhead stays
bounded relative to the fault-free twin of the same session.  The E-ROB
fault-rate sweep table is rendered into ``results/`` alongside the other
artifacts.
"""

from __future__ import annotations

import numpy as np

from repro.bench.experiments import run_robustness_experiment
from repro.core.tuner import ROBOTune
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.space.spark_params import spark_space
from repro.tuners.objective import WorkloadObjective
from repro.tuners.random_search import RandomSearch
from repro.workloads.registry import get_workload

from conftest import TRIALS

SEED = 11
FAULT_RATE = 0.1
BUDGET = 30


def _objective(space, *, faults: float):
    objective = WorkloadObjective(get_workload("pagerank", "D1"), space,
                                  rng=np.random.default_rng(SEED + 1))
    if faults:
        objective = FaultInjector(objective,
                                  FaultPlan(faults, seed=SEED + 2),
                                  retry=RetryPolicy(max_retries=2))
    return objective


def test_chaos_random_search_bounded_overhead(capsys):
    space = spark_space()
    clean = RandomSearch().tune(_objective(space, faults=0.0), BUDGET,
                                rng=np.random.default_rng(SEED))
    faulted_obj = _objective(space, faults=FAULT_RATE)
    faulted = RandomSearch().tune(faulted_obj, BUDGET,
                                  rng=np.random.default_rng(SEED))
    stats = faulted_obj.stats

    assert faulted.n_evaluations == BUDGET
    assert stats["injected"] > 0
    # At a 10% fault rate with the documented slowdown/abort magnitudes
    # and <=2 retries, the whole chaos tax — retried attempts, backoff,
    # stretched runs — must stay well under a 2x search-cost blowup.
    overhead = faulted.search_cost_s / clean.search_cost_s
    # The injector always executes the wrapped run, so the fault-free
    # twin saw the identical underlying simulator draws.
    assert faulted.search_cost_s >= clean.search_cost_s
    assert overhead < 2.0
    # Quality may degrade but the session still finds a usable config.
    assert np.isfinite(faulted.best_time_s)
    with capsys.disabled():
        print(f"\nchaos RS (rate {FAULT_RATE}, budget {BUDGET}): "
              f"{stats['injected']} injected, {stats['transient']} surfaced, "
              f"{stats['retries']} retries, cost overhead {overhead:.2f}x, "
              f"best {faulted.best_time_s:.0f}s vs clean "
              f"{clean.best_time_s:.0f}s")


def test_chaos_robotune_completes(capsys):
    space = spark_space()
    objective = _objective(space, faults=FAULT_RATE)
    result = ROBOTune(rng=SEED).tune(objective, BUDGET,
                                     rng=np.random.default_rng(SEED))
    stats = objective.stats
    assert result.n_evaluations == BUDGET
    assert np.isfinite(result.best_time_s)
    assert stats["injected"] > 0
    with capsys.disabled():
        print(f"chaos ROBOTune (rate {FAULT_RATE}, budget {BUDGET}): "
              f"best {result.best_time_s:.0f}s, {stats['injected']} faults "
              f"injected, {stats['retries']} retries")


def test_chaos_supervised_robotune_quarantines_poison(capsys):
    """Supervised chaos: hangs, worker deaths and a deterministic poison
    config at ``async_workers=4`` must neither deadlock nor starve the
    budget, and the repeat offender must end up quarantined."""
    import threading

    from repro.core.memo import ParameterSelectionCache
    from repro.faults import HangInjector, HangPlan
    from repro.supervise import SupervisePolicy

    space = spark_space()
    objective = _objective(space, faults=0.0)
    # Pre-warm the selection cache: the chaos must land on the supervised
    # BO loop, not the (unsupervised) selection phase.
    cache = ParameterSelectionCache()
    cache.put(objective.workload.key, list(space.names)[:8])

    init_samples = 6
    lock = threading.Lock()
    state = {"seen": 0, "target": None}

    def poison(u):
        # The first BO proposal is a deterministic repeat offender.
        with lock:
            state["seen"] += 1
            if state["seen"] <= init_samples:
                return False
            if state["target"] is None:
                state["target"] = np.asarray(u, dtype=float).copy()
            return bool(np.array_equal(u, state["target"]))

    # Plan seed 49 draws no fault on the initial design (indices 0-5)
    # and a hang/death mix across the supervised BO phase.
    chaotic = HangInjector(objective,
                           HangPlan(0.25, seed=49, hang_s=2.0,
                                    death_share=0.5),
                           poison=poison, poison_kind="worker_death")
    tuner = ROBOTune(selection_cache=cache, init_samples=init_samples,
                     async_workers=4, rng=SEED,
                     supervise=SupervisePolicy(eval_timeout_s=0.5,
                                               speculate=True,
                                               quarantine_after=2))
    result = tuner.tune(chaotic, 24, rng=np.random.default_rng(SEED))

    assert result.n_evaluations == 24        # full budget despite the chaos
    assert result.quarantined_configs        # the repeat offender is out
    faults = [e.fault for e in result.evaluations if e.fault]
    assert faults
    assert np.isfinite(result.best_time_s)
    with capsys.disabled():
        print(f"\nchaos supervised ROBOTune (k=4, budget 24): "
              f"{chaotic.stats['hangs']} hangs, "
              f"{chaotic.stats['deaths']} deaths, "
              f"{len(result.quarantined_configs)} quarantined, "
              f"{len(faults)} censored evals, "
              f"best {result.best_time_s:.0f}s")


def test_chaos_under_daemon_survives_daemon_death(capsys, tmp_path):
    """Service-level chaos in bounded time: a supervised session with a
    faulty objective runs under a real ``repro serve`` daemon, the daemon
    is SIGKILLed mid-session (every in-flight evaluation worker dies with
    it), and a restarted daemon must adopt the orphan and settle it DONE
    with the full budget.  ``--recover censor`` writes the in-flight
    evaluations off instead of re-executing them, so the whole scenario
    stays inside the CI step's hard 600s cap."""
    from repro.serve import SessionSpec
    from tests.serve.harness import DaemonHarness, export_artifacts

    spec = SessionSpec(workload="pagerank", budget=16, seed=SEED,
                       init_samples=4, selection_samples=10,
                       selection_repeats=2,
                       fault_rate=FAULT_RATE, retries=2,
                       async_workers=3, eval_timeout_s=5.0,
                       speculate=True, quarantine_after=2)
    store_root = tmp_path / "store"

    first = DaemonHarness(store_root, workers=1).start()
    sid = first.client().submit(spec)
    first.kill_when_journal_reaches(sid, 6)
    assert first.store.state(sid) == "RUNNING"  # orphaned mid-chaos

    with DaemonHarness(store_root, workers=1, drain=True,
                       extra_args=("--recover", "censor")) as second:
        assert second.wait(timeout_s=540) == 0
        export_artifacts(second.store)

    view = first.store.view(sid)
    assert view["state"] == "DONE", view.get("error")
    result = view["result"]
    assert result["n_evaluations"] == spec.budget  # full budget, post-crash
    assert result["best_objective"] is not None
    assert np.isfinite(result["best_objective"])
    with capsys.disabled():
        print(f"\nchaos daemon (rate {FAULT_RATE}, supervised k=3, "
              f"SIGKILL + censor-recover): {result['n_evaluations']} evals, "
              f"best {result['best_objective']:.0f}s, "
              f"{len(result['quarantined_configs'])} quarantined")


def test_robustness_sweep_report(emit):
    table = run_robustness_experiment(budget=25, trials=min(TRIALS, 2),
                                      fault_rates=(0.0, 0.05, 0.1, 0.2),
                                      tuners=("ROBOTune", "RandomSearch"),
                                      base_seed=SEED)
    emit("e_rob_fault_sweep", table)
    assert "fault rate" in table
