"""Black-box acceptance: a real daemon serves sessions bit-identically.

Three sessions (different workloads/seeds/priorities) go through a
``repro serve`` subprocess; every result digest must equal an in-process
:func:`repro.serve.run_session` of the same spec.  That is the service's
core contract — journaling, scheduling, claiming and the request
channels may add machinery but never decisions (docs/SERVING.md).
"""

from __future__ import annotations

import pytest

from repro.obs import load_trace
from repro.serve import SessionSpec, result_payload, run_session

from .harness import DaemonHarness, export_artifacts, fast_spec_kwargs

SPECS = [
    SessionSpec(workload="pagerank", dataset="D1", seed=11, priority=1,
                **fast_spec_kwargs()),
    SessionSpec(workload="kmeans", dataset="D2", seed=23,
                **fast_spec_kwargs()),
    SessionSpec(workload="terasort", dataset="D1", seed=5, metric=
                "core_seconds", **fast_spec_kwargs()),
]


def test_three_sessions_bit_identical_to_in_process(tmp_path):
    with DaemonHarness(tmp_path / "store", workers=2) as daemon:
        client = daemon.client()
        sids = [client.submit(spec) for spec in SPECS]
        views = {sid: client.wait(sid, timeout_s=570) for sid in sids}
        export_artifacts(daemon.store)

    for sid, spec in zip(sids, SPECS):
        view = views[sid]
        assert view["state"] == "DONE", view.get("error")
        served = view["result"]
        local = result_payload(spec, run_session(spec))
        assert served["digest"] == local["digest"], (
            f"served digest diverged from in-process for {spec.workload}")
        assert served["n_stream"] == local["n_stream"]
        assert served["best_objective"] == pytest.approx(
            local["best_objective"])
        assert served["selected_parameters"] == local["selected_parameters"]


def test_daemon_writes_session_traces_and_registration(tmp_path):
    spec = SessionSpec(workload="pagerank", seed=3, **fast_spec_kwargs())
    with DaemonHarness(tmp_path / "store", workers=1) as daemon:
        info = daemon.store.daemon_info()
        assert info["pid"] == daemon.proc.pid
        client = daemon.client()
        assert client.ping()  # the daemon holds daemon.lock
        sid = client.submit(spec)
        view = client.wait(sid, timeout_s=570)
        assert view["state"] == "DONE"
        traces = list(daemon.store.session_dir(sid).glob("trace-*.jsonl"))
        assert len(traces) == 1  # one attempt, one trace file
        assert traces[0].stat().st_size > 0
    assert not daemon.client().ping()  # daemon gone after shutdown


def test_a_socket_daemon_serves_bit_identically(tmp_path):
    spec = SessionSpec(workload="kmeans", dataset="D2", seed=8,
                       **fast_spec_kwargs())
    with DaemonHarness(tmp_path / "store", socket="auto") as daemon:
        client = daemon.socket_client()
        assert client.ping()
        sid = client.submit(spec)
        view = client.wait(sid, timeout_s=570)
        export_artifacts(daemon.store)
    assert daemon.proc.returncode == 0  # SIGTERM: a clean exit
    assert view["state"] == "DONE", view.get("error")
    assert view["result"]["digest"] == result_payload(
        spec, run_session(spec))["digest"]
    assert not client.ping()


def test_priority_orders_single_worker_execution(tmp_path):
    # Submit both sessions BEFORE any daemon exists, then drain with one
    # worker: the later, higher-priority submission must be claimed
    # first (the daemon trace records the claim order).
    low = SessionSpec(workload="pagerank", seed=1, priority=0,
                      **fast_spec_kwargs())
    high = SessionSpec(workload="pagerank", seed=2, priority=5,
                       **fast_spec_kwargs())
    daemon = DaemonHarness(tmp_path / "store", workers=1, drain=True,
                           extra_args=("--trace",
                                       str(tmp_path / "daemon.jsonl")))
    client = daemon.client()
    sid_low = client.submit(low)
    sid_high = client.submit(high)
    daemon.start()
    assert daemon.wait(timeout_s=570) == 0
    daemon.stop()

    assert daemon.store.state(sid_low) == "DONE"
    assert daemon.store.state(sid_high) == "DONE"
    claims = [r["data"]["sid"] for r in load_trace(tmp_path / "daemon.jsonl")
              if r.get("type") == "serve.claim"]
    assert claims == [sid_high, sid_low]
