"""In-process TuningDaemon tests: settle paths, recovery, lifecycle."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.journal import EvaluationJournal
from repro.obs import InMemorySink, Tracer
from repro.serve import (SessionCancelled, SessionSpec, SessionStore,
                         TuningDaemon, result_payload, run_session)

from .harness import fast_spec_kwargs

SPEC = SessionSpec(workload="pagerank", seed=4, **fast_spec_kwargs())


def drain(store, **kw):
    kw.setdefault("poll_s", 0.02)
    kw.setdefault("session_traces", False)
    return TuningDaemon(store, drain=True, **kw).run()


class TestSettlePaths:
    def test_success_settles_done_with_result(self, tmp_path):
        store = SessionStore(tmp_path / "store")
        sid = store.submit(SPEC)
        assert drain(store) == 1
        assert store.state(sid) == "DONE"
        assert store.result(sid)["digest"] == result_payload(
            SPEC, run_session(SPEC))["digest"]

    def test_broken_session_settles_failed(self, tmp_path):
        store = SessionStore(tmp_path / "store")
        # Spec validation cannot know the workload registry; the runner
        # discovers the bad name and the daemon settles FAILED.
        sid = store.submit(SessionSpec(workload="not-a-workload"))
        assert drain(store) == 1
        view = store.view(sid)
        assert view["state"] == "FAILED"
        assert "not-a-workload" in view["error"]

    def test_cancel_mid_run_settles_cancelled(self, tmp_path):
        store = SessionStore(tmp_path / "store")
        sid = store.submit(SessionSpec(workload="pagerank", seed=9,
                                       **fast_spec_kwargs(budget=200)))
        daemon = TuningDaemon(store, poll_s=0.02, session_traces=False)
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        for _ in range(2400):  # wait for real progress, then cancel
            if store.journal_path(sid).exists() \
                    and store.journal_path(sid).stat().st_size > 0:
                break
            time.sleep(0.02)
        store.cancel(sid)
        for _ in range(2400):
            if store.state(sid) == "CANCELLED":
                break
            time.sleep(0.02)
        daemon.stop()
        thread.join(timeout=60)
        assert store.state(sid) == "CANCELLED"
        assert store.result(sid) is None

    def test_max_sessions_bounds_the_run(self, tmp_path):
        store = SessionStore(tmp_path / "store")
        for seed in (1, 2, 3):
            store.submit(SessionSpec(workload="pagerank", seed=seed,
                                     **fast_spec_kwargs()))
        settled = TuningDaemon(store, poll_s=0.02, max_sessions=2,
                               session_traces=False).run()
        assert settled == 2
        depth = store.queue_depth()
        assert depth["DONE"] == 2 and depth["PENDING"] == 1


class TestRecovery:
    def test_adopts_and_finishes_an_orphan_bit_identically(self, tmp_path):
        # Simulate a crashed daemon by hand: claim, abort the session
        # partway through (the journal keeps the prefix the "crashed"
        # process produced), then leave the claim lock stale on disk.
        store = SessionStore(tmp_path / "store")
        sid = store.submit(SPEC)
        claim = store.claim("doomed")
        assert claim is not None
        journal = EvaluationJournal(store.journal_path(sid))
        calls = iter(range(1000))
        with pytest.raises(SessionCancelled):
            # "Crash" after 12 objective calls (mid-tuning phase).
            run_session(SPEC, journal=journal,
                        should_cancel=lambda: next(calls) >= 12)
        journal.close()
        import json
        lock = store._lock_path(sid)
        holder = json.loads(lock.read_text())
        holder["pid"] = 2 ** 22 + 1  # the claimer "died"
        lock.write_text(json.dumps(holder))

        sink = InMemorySink()
        tracer = Tracer(sink)
        assert drain(store, tracer=tracer) == 1
        tracer.close()
        assert store.state(sid) == "DONE"
        golden = result_payload(SPEC, run_session(SPEC))
        assert store.result(sid)["digest"] == golden["digest"]
        counters = [r for r in sink.records if r.get("kind") == "metrics"]
        assert counters and counters[-1]["counters"]["serve.resumed"] == 1

    def test_queue_events_and_claim_timer_are_emitted(self, tmp_path):
        store = SessionStore(tmp_path / "store")
        store.submit(SPEC)
        sink = InMemorySink()
        tracer = Tracer(sink)
        drain(store, tracer=tracer)
        tracer.close()
        events = [r["type"] for r in sink.records if r.get("kind") == "event"]
        assert "serve.queue" in events
        assert "serve.claim" in events
        assert "serve.state" in events
        metrics = [r for r in sink.records if r.get("kind") == "metrics"]
        assert metrics and "serve.claim" in metrics[-1]["timers"]


class TestValidation:
    @pytest.mark.parametrize("kw", [
        {"workers": 0},
        {"poll_s": 0.0},
        {"max_sessions": 0},
    ])
    def test_bad_construction_rejected(self, tmp_path, kw):
        with pytest.raises(ValueError):
            TuningDaemon(SessionStore(tmp_path / "s"), **kw)
