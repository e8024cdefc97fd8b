"""One session builder: every front end runs the runner's session.

``repro tune``, the daemon behind ``repro submit``,
``benchmarks/paired_quality.py`` and the benchmark's cold sessions all
name one session by (workload, dataset, seed, budget).  These tests pin
that by evaluation digest, selection phase included.
"""

from repro.cli import main
from repro.core.journal import EvaluationJournal
from repro.core.selection import ParameterSelector
from repro.core.tuner import ROBOTune
from repro.serve import SessionSpec, evaluation_digest, run_session
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
