"""One session builder: every front end runs the runner's session.

``repro tune``, the daemon behind ``repro submit``,
``benchmarks/paired_quality.py`` and the benchmark's cold sessions all
name one session by (workload, dataset, seed, budget).  These tests pin
that by evaluation digest, selection phase included.
"""

import pytest

from repro.cli import main
from repro.core.journal import EvaluationJournal
from repro.core.selection import ParameterSelector
from repro.core.tuner import ROBOTune
from repro.serve import (SessionCancelled, SessionSpec, evaluation_digest,
                         run_session)
from repro.space.spark_params import spark_space
from repro.tuners.objective import WorkloadObjective
from repro.workloads.registry import get_workload


def digest(result) -> str:
    return evaluation_digest(list(result.selection_evaluations)
                             + list(result.evaluations))


class TestOneSelectorRule:
    def test_unset_selection_fields_equal_the_paper_defaults(self):
        spec = SessionSpec(workload="terasort", budget=25, seed=5)
        explicit = SessionSpec(workload="terasort", budget=25, seed=5,
                               selection_samples=100, selection_repeats=10)
        assert digest(run_session(spec)) == digest(run_session(explicit))

    def test_default_spec_equals_the_cold_benchmark_construction(self):
        seed = 7
        objective = WorkloadObjective(get_workload("kmeans", "D1"),
                                      spark_space(), rng=seed)
        cold = ROBOTune(selector=ParameterSelector(rng=seed),
                        rng=seed).tune(objective, 30, rng=seed)
        spec = SessionSpec(workload="kmeans", budget=30, seed=seed)
        assert digest(run_session(spec)) == digest(cold)


class TestTuneCommand:
    def test_faulted_journal_equals_the_served_session(self, tmp_path,
                                                       capsys):
        journal = tmp_path / "run.jsonl"
        assert main(["tune", "--workload", "terasort", "--budget", "25",
                     "--seed", "5", "--faults", "0.2",
                     "--journal", str(journal)]) == 0
        assert "faults:" in capsys.readouterr().out
        _, records = EvaluationJournal(journal).load()
        served = run_session(SessionSpec(workload="terasort", budget=25,
                                         seed=5, fault_rate=0.2))
        assert evaluation_digest([r.to_evaluation() for r in records]) \
            == digest(served)


class TestCancelInBO:
    """A cancel that lands in the BO phase ends the session, supervised
    or not: its ``SessionCancelled`` is no worker death to write off."""

    @pytest.mark.parametrize("eval_timeout_s", [None, 30.0],
                             ids=["unsupervised", "supervised"])
    def test_cancel_raises_with_nothing_written_off(self, tmp_path,
                                                    eval_timeout_s):
        spec = SessionSpec("pagerank", budget=20, seed=1, init_samples=5,
                           selection_samples=10, selection_repeats=1,
                           async_workers=1, eval_timeout_s=eval_timeout_s)
        calls = iter(range(1, 1000))
        journal = EvaluationJournal(tmp_path / "session.jsonl")
        with pytest.raises(SessionCancelled):
            # Calls 1-10 are the selection samples and 11-15 the initial
            # design, so the 19th call is the BO phase's fourth.
            run_session(spec, journal=journal,
                        should_cancel=lambda: next(calls) >= 19)
        journal.close()
        _, records = journal.load()
        assert len(records) == 18
        assert [r.fault for r in records] == [None] * 18
