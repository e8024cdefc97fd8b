"""``benchmarks/paired_quality.py compare`` is a gate: it exits 1 when a
build's geometric-mean or worst best-found ratio passes its threshold."""

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
