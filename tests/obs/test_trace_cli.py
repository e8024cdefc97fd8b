"""CLI tracing: --trace / --trace-summary on tune and compare.

The acceptance bar: a traced ``tune`` run writes a schema-valid JSONL
trace covering the bo/gp/guard/hedge/memo/fault/parallel event families,
and ``--trace-summary`` renders the fold-up.
"""

import tempfile
import zlib

from repro.cli import main
from repro.obs import load_trace, validate_trace

TUNERS = ("ROBOTune", "BestConfig", "Gunther", "RandomSearch")


class TestTuneTracing:
    def test_traced_run_covers_the_event_families(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        code = main(["tune", "--workload", "terasort", "--budget", "25",
                     "--seed", "3", "--faults", "0.3",
                     "--trace", str(trace), "--trace-summary"])
        out = capsys.readouterr().out
        assert code == 0
        records = load_trace(trace)
        assert validate_trace(records) == []
        types = {r["type"] for r in records if r.get("kind") == "event"}
        for family in ("bo.iteration", "hedge.probs", "acq.winner", "gp.fit",
                       "guard.threshold", "memo.miss", "memo.store",
                       "selection.params", "fault.injected", "parallel.map",
                       "eval.result", "span.start", "span.end"):
            assert family in types, f"missing {family}"
        # The trace ends with the metrics fold-up.
        assert records[-1]["kind"] == "metrics"
        assert records[-1]["counters"]["evals"] == 25 + 100  # tune + selection
        # And the summary is printed.
        assert f"trace written to {trace}" in out
        assert "trace summary" in out
        assert "time by component" in out
        assert "hedge probabilities" in out

    def test_summary_without_file_needs_no_path(self, capsys):
        code = main(["tune", "--workload", "terasort", "--budget", "20",
                     "--seed", "2", "--trace-summary"])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace summary" in out
        assert "trace written" not in out

    def test_existing_trace_file_is_refused(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        trace.write_text('{"kind": "meta", "schema": 1}\n')
        code = main(["tune", "--workload", "terasort", "--budget", "5",
                     "--trace", str(trace)])
        assert code == 2
        assert "already holds records" in capsys.readouterr().err

    def test_untraced_run_prints_no_summary(self, capsys):
        code = main(["tune", "--workload", "terasort", "--budget", "20",
                     "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace" not in out


class TestCompareTracing:
    def test_per_session_traces_and_aggregate(self, capsys, tmp_path):
        trace_dir = tmp_path / "traces"
        code = main(["compare", "--workload", "terasort", "--budget", "12",
                     "--trials", "1", "--seed", "3",
                     "--trace", str(trace_dir), "--trace-summary"])
        out = capsys.readouterr().out
        assert code == 0
        # The study names each trace by its grid coordinates and the
        # session seed, crc32 of "base_seed|tuner|workload|dataset|trial".
        files = sorted(p.name for p in trace_dir.glob("*.jsonl"))
        assert files == sorted(
            f"{tuner}-terasort-D1-trial0-s"
            f"{zlib.crc32(f'3|{tuner}|terasort|D1|0'.encode()):08x}.jsonl"
            for tuner in TUNERS)
        for path in trace_dir.glob("*.jsonl"):
            records = load_trace(path)
            assert validate_trace(records) == []
            assert records[0]["tuner"] == path.name.split("-")[0]
        # The aggregate table groups sessions by tuner.
        assert "sessions" in out
        for tuner in TUNERS:
            assert tuner in out

    def test_summary_alone_traces_into_a_removed_directory(
            self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        code = main(["compare", "--workload", "terasort", "--budget", "8",
                     "--trials", "1", "--seed", "3", "--trace-summary"])
        out = capsys.readouterr().out
        assert code == 0
        assert "traces written" not in out
        aggregate = out.split("sessions")[1]
        for tuner in TUNERS:
            assert tuner in aggregate
        assert list(tmp_path.iterdir()) == []
