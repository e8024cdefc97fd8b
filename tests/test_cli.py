"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main


class TestWorkloads:
    def test_lists_table1(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for ab in ("PR", "KM", "CC", "LR", "TS"):
            assert ab in out
        assert "million pages" in out


class TestSimulate:
    def test_good_config_succeeds(self, capsys):
        code = main(["simulate", "--workload", "terasort",
                     "--set", "spark.executor.cores=8",
                     "--set", "spark.executor.memory=24576",
                     "--set", "spark.executor.instances=15"])
        out = capsys.readouterr().out
        assert code == 0
        assert "success" in out
        assert "dominant bottleneck" in out

    def test_default_config_failure_exit_code(self, capsys):
        code = main(["simulate", "--workload", "pagerank"])
        out = capsys.readouterr().out
        assert code == 1
        assert "oom" in out

    def test_malformed_set_rejected(self, capsys):
        code = main(["simulate", "--set", "not-a-pair"])
        assert code == 2

    def test_unknown_parameter_rejected(self):
        with pytest.raises(KeyError):
            main(["simulate", "--set", "spark.bogus=1"])

    def test_conf_file_round_trip(self, tmp_path, capsys):
        conf = tmp_path / "spark-defaults.conf"
        conf.write_text("spark.executor.cores 8\n"
                        "spark.executor.memory 24576m\n"
                        "spark.executor.instances 15\n"
                        "spark.shuffle.compress true\n")
        code = main(["simulate", "--workload", "terasort",
                     "--conf", str(conf)])
        assert code == 0

    def test_boolean_and_categorical_coercion(self, capsys):
        code = main(["simulate", "--workload", "terasort",
                     "--set", "spark.executor.cores=8",
                     "--set", "spark.executor.memory=24576",
                     "--set", "spark.executor.instances=15",
                     "--set", "spark.shuffle.compress=false",
                     "--set", "spark.io.compression.codec=zstd"])
        assert code == 0


class TestTune:
    def test_tune_small_budget(self, capsys, tmp_path):
        conf_out = tmp_path / "best.conf"
        code = main(["tune", "--workload", "terasort", "--budget", "25",
                     "--seed", "1", "--emit-conf", str(conf_out),
                     "--store-dir", str(tmp_path / "stores")])
        out = capsys.readouterr().out
        assert code == 0
        assert "best objective" in out
        assert conf_out.exists()
        assert (tmp_path / "stores" / "selection_cache.json").exists()
        # The emitted file parses back as a full 44-parameter config.
        lines = [ln for ln in conf_out.read_text().splitlines() if ln]
        assert len(lines) == 44

    def test_tune_core_seconds_metric(self, capsys):
        code = main(["tune", "--workload", "terasort", "--budget", "20",
                     "--seed", "2", "--metric", "core_seconds"])
        assert code == 0
        assert "core_seconds" in capsys.readouterr().out

    def test_tune_async_workers(self, capsys):
        code = main(["tune", "--workload", "terasort", "--budget", "20",
                     "--seed", "3", "--async-workers", "2"])
        assert code == 0
        assert "best objective" in capsys.readouterr().out

    def test_negative_async_workers_rejected(self, capsys):
        code = main(["tune", "--workload", "terasort", "--budget", "5",
                     "--async-workers", "-2"])
        assert code == 2
        assert "--async-workers" in capsys.readouterr().err


class TestCompare:
    def test_compare_prints_ratios(self, capsys):
        code = main(["compare", "--workload", "terasort", "--budget", "15",
                     "--trials", "1", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "best/RS" in out
        for tuner in ("ROBOTune", "BestConfig", "Gunther", "RandomSearch"):
            assert tuner in out

    def test_compare_maps_workloads(self, capsys):
        code = main(["compare", "--workload", "terasort,kmeans",
                     "--map-workloads", "--budget", "8", "--trials", "1"])
        assert code == 0
        assert "terasort,kmeans/D1" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["tune", "importance", "compare"])
def test_sessions_take_no_jobs_option(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


class TestImportance:
    def test_importance_table(self, capsys):
        code = main(["importance", "--workload", "terasort",
                     "--samples", "40", "--top", "5", "--seed", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "MDA importance" in out


class TestResilienceFlags:
    def test_faults_rate_out_of_range_rejected(self, capsys):
        code = main(["tune", "--workload", "terasort", "--budget", "5",
                     "--faults", "1.5"])
        assert code == 2
        assert "--faults" in capsys.readouterr().err

    def test_negative_retries_rejected(self, capsys):
        code = main(["tune", "--workload", "terasort", "--budget", "5",
                     "--retries", "-1"])
        assert code == 2
        assert "--retries" in capsys.readouterr().err

    def test_resume_requires_journal_flag(self, capsys):
        code = main(["tune", "--workload", "terasort", "--budget", "5",
                     "--resume"])
        assert code == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_resume_requires_existing_journal(self, capsys, tmp_path):
        code = main(["tune", "--workload", "terasort", "--budget", "5",
                     "--journal", str(tmp_path / "absent.jsonl"),
                     "--resume"])
        assert code == 2
        assert "existing journal" in capsys.readouterr().err

    def test_fresh_journal_refuses_existing_session(self, capsys, tmp_path):
        journal = tmp_path / "run.jsonl"
        journal.write_text('{"kind": "meta"}\n')
        code = main(["tune", "--workload", "terasort", "--budget", "5",
                     "--journal", str(journal)])
        assert code == 2
        assert "already holds a session" in capsys.readouterr().err

    def test_tune_with_faults_and_journal(self, capsys, tmp_path):
        journal = tmp_path / "run.jsonl"
        code = main(["tune", "--workload", "terasort", "--budget", "10",
                     "--seed", "5", "--faults", "0.2",
                     "--journal", str(journal)])
        out = capsys.readouterr().out
        assert code == 0
        assert "faults:" in out
        assert "journal:" in out
        assert journal.exists()

    def test_compare_accepts_fault_flags(self, capsys):
        code = main(["compare", "--workload", "terasort", "--budget", "8",
                     "--trials", "1", "--seed", "3", "--faults", "0.1",
                     "--retries", "1"])
        assert code == 0


class TestSupervisionFlags:
    def test_nonpositive_eval_timeout_rejected(self, capsys):
        code = main(["tune", "--workload", "terasort", "--budget", "5",
                     "--async-workers", "2", "--eval-timeout", "0"])
        assert code == 2
        assert "--eval-timeout" in capsys.readouterr().err

    def test_eval_timeout_requires_async_workers(self, capsys):
        code = main(["tune", "--workload", "terasort", "--budget", "5",
                     "--eval-timeout", "30"])
        assert code == 2
        assert "--eval-timeout requires --async-workers" in \
            capsys.readouterr().err

    def test_speculate_requires_eval_timeout(self, capsys):
        code = main(["tune", "--workload", "terasort", "--budget", "5",
                     "--async-workers", "2", "--speculate"])
        assert code == 2
        assert "--speculate requires --eval-timeout" in \
            capsys.readouterr().err

    def test_bad_quarantine_threshold_rejected(self, capsys):
        code = main(["tune", "--workload", "terasort", "--budget", "5",
                     "--async-workers", "2", "--eval-timeout", "30",
                     "--quarantine-after", "0"])
        assert code == 2
        assert "--quarantine-after" in capsys.readouterr().err

    def test_supervised_tune_runs(self, capsys):
        code = main(["tune", "--workload", "terasort", "--budget", "12",
                     "--seed", "6", "--async-workers", "2",
                     "--eval-timeout", "30", "--speculate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "supervised:      deadline 30s" in out
        assert "speculative twins" in out
        assert "0 config(s) quarantined" in out

    def test_recover_flag_accepted_on_resume(self, capsys, tmp_path):
        journal = tmp_path / "run.jsonl"
        assert main(["tune", "--workload", "terasort", "--budget", "8",
                     "--seed", "7", "--journal", str(journal)]) == 0
        capsys.readouterr()
        code = main(["tune", "--workload", "terasort", "--budget", "8",
                     "--seed", "7", "--journal", str(journal),
                     "--resume", "--recover", "censor"])
        assert code == 0
        assert "journal:" in capsys.readouterr().out

    def test_resume_of_torn_journal_counts_every_evaluation(self, capsys,
                                                           tmp_path):
        journal = tmp_path / "run.jsonl"
        args = ["tune", "--workload", "terasort", "--budget", "8",
                "--seed", "7", "--journal", str(journal)]
        assert main(args) == 0
        count = re.search(r"\((\d+) evaluations\)",
                          capsys.readouterr().out).group(1)
        whole = journal.read_bytes()
        journal.write_bytes(whole[:len(whole) // 2])   # killed mid-record
        for _ in range(2):
            assert main([*args, "--resume"]) == 0
            assert f"({count} evaluations, resumed)" in \
                capsys.readouterr().out
            assert journal.read_bytes() == whole

    def test_resume_of_torn_header_keeps_the_session_identity(
            self, capsys, tmp_path):
        journal = tmp_path / "run.jsonl"
        args = ["tune", "--budget", "6", "--seed", "3",
                "--journal", str(journal)]
        assert main([*args, "--workload", "kmeans"]) == 0
        whole = journal.read_bytes()
        journal.write_bytes(whole[:40])        # killed inside the header
        assert main([*args, "--workload", "kmeans", "--resume"]) == 0
        assert journal.read_bytes() == whole
        with pytest.raises(ValueError, match="workload"):
            main([*args, "--workload", "pagerank", "--resume"])

    def test_bad_recover_mode_rejected(self):
        with pytest.raises(SystemExit):
            main(["tune", "--workload", "terasort", "--budget", "5",
                  "--recover", "retry"])


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
