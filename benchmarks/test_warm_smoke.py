"""Warm-started large-n smoke: journals → low-rank surrogate → session.

CI's end-to-end check of the surrogate scale-up path: a fixture
directory of prior-session journals holding 500+ evaluations is folded
into a fresh session whose ``gp_max_exact`` is forced low enough that
every BO fit runs on the low-rank (Nyström/SoR) GP.  The gate is
completion and plumbing — the session finishes inside the suite's
wall-clock cap, every prior row is folded, and the tracer shows the
``lowrank`` surrogate actually engaged — not solution quality, which
the integration suite pins separately.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import ParameterSelector, ROBOTune
from repro.core.journal import EvaluationJournal
from repro.obs import InMemorySink, Tracer
from repro.sampling import latin_hypercube
from repro.sparksim import RunStatus
from repro.tuners import SyntheticObjective, synthetic_space
from repro.tuners.base import Evaluation

N_PRIOR = 520
DIM = 10


def _write_fixture(directory, objective, space) -> int:
    """Journals of prior sessions over the same workload, N_PRIOR rows."""
    n_written = 0
    per_journal = N_PRIOR // 4
    U = latin_hypercube(N_PRIOR, space.dim, rng=90)
    for j in range(4):
        journal = EvaluationJournal(directory / f"s{j}.jsonl")
        journal.write_meta({"tuner": "ROBOTune", "workload": "warmsmoke/D1",
                            "budget": per_journal})
        for u in U[j * per_journal:(j + 1) * per_journal]:
            ev = objective(u)
            journal.append(Evaluation(
                vector=u, config=space.decode(u), objective=ev.objective,
                cost_s=ev.cost_s, status=RunStatus.SUCCESS))
            n_written += 1
        journal.close()
    return n_written


def test_warm_started_large_n_session(tmp_path, capsys):
    space = synthetic_space(DIM)
    prior_obj = SyntheticObjective(space, n_effective=3, rng=91,
                                   name="warmsmoke", dataset="D1")
    prior = tmp_path / "journals"
    prior.mkdir()
    t0 = time.perf_counter()
    n_prior = _write_fixture(prior, prior_obj, space)
    fixture_s = time.perf_counter() - t0
    assert n_prior >= 500

    sink = InMemorySink()
    tracer = Tracer([sink])
    tuner = ROBOTune(
        selector=ParameterSelector(n_samples=40, n_trees=40, n_repeats=3,
                                   rng=92),
        warm_start=str(prior), rng=92,
        # Force every fit past the exact-GP threshold: with 500+ warm
        # rows folded in, the first fit already runs low-rank.
        engine_kwargs={"n_candidates": 64, "refine": False,
                       "gp_max_exact": 64, "gp_inducing": 96},
    )
    objective = SyntheticObjective(space, n_effective=3, rng=91,
                                   name="warmsmoke", dataset="D1")
    t0 = time.perf_counter()
    result = tuner.tune(objective, budget=30, rng=93, tracer=tracer)
    tune_s = time.perf_counter() - t0
    tracer.close()

    assert result.n_evaluations == 30          # priors consume no budget
    assert result.warm_start_n >= 500
    assert len(result.warm_start_sources) == 4
    modes = [r["data"]["mode"] for r in sink.records
             if r.get("type") == "gp.mode"]
    assert "lowrank" in modes                  # the scale-up path engaged
    assert np.isfinite(result.best_time_s)

    with capsys.disabled():
        print(f"\nwarm smoke: {n_prior} prior evals written in "
              f"{fixture_s:.1f}s, warm-started low-rank session "
              f"(budget 30) in {tune_s:.1f}s, best "
              f"{result.best_time_s:.2f}s")
