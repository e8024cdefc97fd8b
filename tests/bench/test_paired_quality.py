"""``benchmarks/paired_quality.py compare`` is a gate: it exits 1 when a
build's geometric-mean or worst best-found ratio passes its threshold.
It compares best-found values only: no CPU figure is computed or
printed."""

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "paired_quality.py"


@pytest.fixture(scope="module")
def pq():
    spec = importlib.util.spec_from_file_location("paired_quality", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(path, ratios):
    sessions = [{"workload": "kmeans", "seed": i, "best_s": 100.0 * r,
                 "curve": [200.0, 100.0 * r], "cpu_s": 1.0}
                for i, r in enumerate(ratios)]
    path.write_text(json.dumps({"budget": 2, "sessions": sessions}))
    return str(path)


def compare(pq, *files):
    return pq.compare(argparse.Namespace(files=list(files)))


def test_same_build_passes(pq, tmp_path, capsys):
    ref = record(tmp_path / "ref.json", [1.0, 1.0, 1.0, 1.0])
    assert compare(pq, ref, ref) == 0
    assert "gate: pass" in capsys.readouterr().out


def test_geometric_mean_past_threshold_fails(pq, tmp_path):
    ref = record(tmp_path / "ref.json", [1.0, 1.0, 1.0, 1.0])
    ratio = pq.GEO_MEAN_MAX + 0.005
    worse = record(tmp_path / "worse.json", [ratio] * 4)
    assert ratio < pq.WORST_MAX
    assert compare(pq, ref, worse) == 1


def test_one_bad_session_fails(pq, tmp_path):
    ref = record(tmp_path / "ref.json", [1.0, 1.0, 1.0, 1.0])
    bad = record(tmp_path / "bad.json",
                 [1.0, 1.0, 1.0, pq.WORST_MAX + 0.01])
    assert compare(pq, ref, bad) == 1


def test_any_failing_build_fails_the_run(pq, tmp_path):
    ref = record(tmp_path / "ref.json", [1.0, 1.0, 1.0, 1.0])
    good = record(tmp_path / "good.json", [0.99, 1.0, 1.01, 1.0])
    bad = record(tmp_path / "bad.json", [1.0, 1.0, 1.0, pq.WORST_MAX + 0.01])
    assert compare(pq, ref, good) == 0
    assert compare(pq, ref, good, bad) == 1


def test_no_cpu_comparison(pq, tmp_path, capsys):
    # Session CPU times differ wildly between the builds' records, and
    # records without them compare too: CPU is not part of the verdict.
    ref = record(tmp_path / "ref.json", [1.0, 1.0, 1.0, 1.0])
    slow = json.loads(Path(ref).read_text())
    for i, session in enumerate(slow["sessions"]):
        session["cpu_s"] = 50.0 * (i + 1)
    (tmp_path / "slow.json").write_text(json.dumps(slow))
    bare = json.loads(Path(ref).read_text())
    for session in bare["sessions"]:
        del session["cpu_s"]
    (tmp_path / "bare.json").write_text(json.dumps(bare))
    assert compare(pq, ref, str(tmp_path / "slow.json"),
                   str(tmp_path / "bare.json")) == 0
    out = capsys.readouterr().out
    assert "CPU" not in out
    assert out.count("gate: pass") == 2
    assert "cpu_ratio" not in pq.pair_stats(
        json.loads(Path(ref).read_text())["sessions"],
        slow["sessions"])
