"""The layer wrappers observe without changing a single decision."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.selection import ParameterSelector
from repro.core.tuner import ROBOTune
from repro.serve import ServiceClient, SessionSpec, evaluation_digest, \
    run_session
from repro.space.spark_params import spark_space
from repro.tuners.objective import WorkloadObjective
from repro.workloads.registry import get_workload

import layers
from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
TINY = {"workload": "kmeans", "dataset": "D1", "budget": 8, "seed": 5,
        "init_samples": 4, "selection_samples": 12, "selection_repeats": 2}


def _tiny_session(rec=None):
    from clock import ClockedObjective
    objective = WorkloadObjective(get_workload("kmeans", "D1"), spark_space(),
                                  rng=5)
    tuner = ROBOTune(selector=ParameterSelector(n_samples=12, n_trees=10,
                                                n_repeats=2, rng=5),
                     init_samples=4, rng=5)
    log = []
    if rec is None:
        result = tuner.tune(ClockedObjective(objective, log), 8, rng=5)
    else:
        with rec.session("tiny"):
            result = tuner.tune(ClockedObjective(objective, log), 8, rng=5)
    assert len(log) == 12 + 8
    return evaluation_digest(list(result.selection_evaluations)
                             + list(result.evaluations))


def _originals():
    import repro.core.bo as bo
    import repro.core.selection as selection
    import repro.serve.daemon as daemon
    return (bo.minimize, bo.BOEngine.minimize, selection.ParameterSelector.collect,
            selection.grouped_permutation_importance, daemon.run_session,
            vars(bo.BOEngine).get("minimize"))


def test_traced_session_has_the_untraced_digest():
    before = _originals()
    plain = _tiny_session()
    rec = SpanRecorder()
    patches = layers.install(rec)
    try:
        traced = _tiny_session(rec)
    finally:
        patches.restore()
    assert traced == plain
    assert _originals() == before
    names = {s.name for s in rec.spans}
    assert {"session", "selection.collect", "selection.select", "forest.fit",
            "forest.oob", "importance", "bo.minimize", "bo.refine",
            "gp.hyperopt", "gp.refit", "gp.sweep", "hedge",
            "sim.run"} <= names
    assert rec.counters["bo.iterations"] == 8 - 4
    assert rec.counters["sim.runs"] == 12 + 8
    assert rec.counters["tree.predict_calls"] > 0


def test_layer_metrics_cover_every_per_layer_metric():
    rec = SpanRecorder()
    patches = layers.install(rec)
    try:
        _tiny_session(rec)
    finally:
        patches.restore()
    sessions = [s for s in rec.spans if s.name == "session"]
    metrics = layers.layer_metrics(rec.spans, rec.counters, sessions)
    assert set(metrics) | {"trace_overhead"} == set(layers.PER_LAYER_METRICS)
    assert 0 <= metrics["unattributed_s"] < sessions[0].duration
    assert metrics["bo.self_s"] < metrics["bo.minimize_s"]


def test_served_session_through_the_launcher(tmp_path):
    """The traced daemon settles the same digest as an in-process run
    and its spans cover the serve, journal and trace layers."""
    spec = SessionSpec(**TINY)
    expected = evaluation_digest(
        (lambda r: list(r.selection_evaluations) + list(r.evaluations))(
            run_session(spec)))
    store, report = tmp_path / "store", tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, str(HERE.parent / "launcher.py"), str(report), "1",
         "serve", "--store", str(store), "--max-sessions", "1"],
        env=env, stdout=subprocess.DEVNULL)
    try:
        client = ServiceClient.for_store(store)
        sid = client.submit(spec)
        view = client.wait(sid, timeout_s=60, poll_s=0.05)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
    assert view["state"] == "DONE"
    assert view["result"]["digest"] == expected
    payload = json.loads(report.read_text())
    assert len(payload["clock"][str(spec.seed)]) == 12 + 8
    names = {s["name"] for s in payload["spans"]}
    assert {"store.claim", "serve.run", "store.settle", "journal.append",
            "trace.write", "bo.minimize"} <= names
    assert {s["session"] for s in payload["spans"]
            if s["name"] in ("serve.run", "store.settle")} == {sid}
    assert payload["counters"]["store.claim_hits"] == 1
