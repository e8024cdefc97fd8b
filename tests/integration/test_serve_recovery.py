"""Crash recovery under the daemon: SIGKILL, restart, bit-identity.

The brutal version of the service contract: a daemon is SIGKILLed at a
journal-defined progress point mid-session, a fresh daemon adopts the
orphaned RUNNING session through the stale-lock path, resumes it through
journal-v2 recovery — and the final result digest equals the golden
in-process run of the same spec.  The journal is then audited for
double-charging: every dispatch settles exactly once and the evaluation
count is exactly ``selection_samples + budget``.
"""

from __future__ import annotations

import json
import time

from repro.serve import SessionSpec, result_payload, run_session

from tests.serve.harness import DaemonHarness, export_artifacts, \
    fast_spec_kwargs

SPEC = SessionSpec(workload="pagerank", dataset="D1", seed=42,
                   **fast_spec_kwargs(budget=8))


def _journal_records(path):
    records = []
    for line in path.read_text().splitlines():
        if line.strip():
            records.append(json.loads(line))
    return records


def test_sigkill_restart_resumes_bit_identically(tmp_path):
    store_root = tmp_path / "store"

    # Phase 1: daemon picks the session up, then dies mid-session once
    # the journal shows real progress (a progress point, not a timer, so
    # the kill lands identically on fast and slow machines).
    first = DaemonHarness(store_root, workers=1).start()
    sid = first.client().submit(SPEC)
    killed_at = first.kill_when_journal_reaches(sid, 6)
    assert killed_at >= 6

    # The orphan is exactly as the crash left it: RUNNING, lock file on
    # disk but released with its dead owner, result absent.
    store = first.store
    assert store.state(sid) == "RUNNING"
    assert store.lock_holder(sid) is None  # the kernel dropped the flock
    assert store.result(sid) is None

    # Phase 2: a fresh daemon adopts and finishes it.
    with DaemonHarness(store_root, workers=1, drain=True) as second:
        assert second.wait(timeout_s=570) == 0
        export_artifacts(second.store)

    view = store.view(sid)
    assert view["state"] == "DONE", view.get("error")

    # Golden digest: identical to an uninterrupted in-process run.
    golden = result_payload(SPEC, run_session(SPEC))
    assert view["result"]["digest"] == golden["digest"]
    assert view["result"]["n_stream"] == golden["n_stream"]
    assert view["result"]["best_objective"] == golden["best_objective"]

    # No double-charged evaluation: every journal dispatch settled
    # exactly once, and the tuning-phase evaluation count is exactly the
    # session budget (selection-phase evaluations are not journaled as
    # dispatches).
    records = _journal_records(store.journal_path(sid))
    dispatches = [r["seq"] for r in records if r["kind"] == "dispatch"]
    settles = [r["seq"] for r in records if r["kind"] == "eval"
               and r.get("seq") is not None]
    assert sorted(set(dispatches)) == sorted(dispatches)
    assert sorted(settles) == sorted(set(settles))
    assert set(settles) == set(dispatches)

    # Two trace files: the killed attempt and the resumed attempt.
    assert [p.name for p in sorted(store.session_dir(sid).glob("trace-*"))] == [
        "trace-0.jsonl", "trace-1.jsonl"]


def test_second_daemon_does_not_steal_a_live_session(tmp_path):
    # Two daemons over one store: the session claimed by the live first
    # daemon must not be double-claimed by the second.  The first daemon
    # is SIGSTOPped mid-session, so the session stays claimed and RUNNING
    # through the whole observation window however fast it runs: a
    # stopped process's pid is alive, and the store must keep treating it
    # as the owner.
    store_root = tmp_path / "store"
    with DaemonHarness(store_root, workers=1) as first:
        sid = first.client().submit(SPEC)
        try:
            # Journal progress means the claim (and its RUNNING
            # transition) is done.
            first.pause_when_journal_reaches(sid, 6)
            holder = first.store.lock_holder(sid)
            assert holder is not None and holder["pid"] == first.proc.pid
            with DaemonHarness(store_root, workers=1) as second:
                info = second.store.daemon_info()
                assert info["pid"] == second.proc.pid
                # Give the rival time to (incorrectly) try a takeover.
                time.sleep(1.0)
                still = first.store.lock_holder(sid)
                assert still is not None and still["pid"] == first.proc.pid
                assert first.store.state(sid) == "RUNNING"
        finally:
            first.resume()
        view = first.client().wait(sid, timeout_s=570)
    assert view["state"] == "DONE"
    # One trace file: only the first daemon ever claimed the session.
    assert [p.name for p in first.store.session_dir(sid).glob("trace-*")] \
        == ["trace-0.jsonl"]
    assert view["result"]["digest"] == result_payload(
        SPEC, run_session(SPEC))["digest"]
