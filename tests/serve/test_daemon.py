"""In-process TuningDaemon tests: settle paths, recovery, lifecycle."""

from __future__ import annotations

import threading
import time

import pytest

import repro.serve.daemon as daemon_module
import repro.serve.store as store_module
from repro.core.journal import EvaluationJournal
from repro.obs import InMemorySink, JsonlTraceWriter, Tracer
from repro.serve import (ServiceClient, SessionCancelled, SessionSpec,
                         SessionStore, TuningDaemon, result_payload,
                         run_session)
from repro.serve.store import TICK_S, WAIT_SHARE

from .harness import DaemonHarness, fast_spec_kwargs

SPEC = SessionSpec(workload="pagerank", seed=4, **fast_spec_kwargs())


def drain(store, **kw):
    kw.setdefault("poll_s", 0.02)
    kw.setdefault("session_traces", False)
    return TuningDaemon(store, drain=True, **kw).run()


def crash_partway(store, spec):
    """Leave *spec* as a crashed daemon would: claimed, journaled up to
    its 12th objective call, and its claim lock released, as the kernel
    releases a dead owner's."""
    sid = store.submit(spec)
    claim = store.claim("doomed")
    assert claim is not None
    journal = EvaluationJournal(store.journal_path(sid))
    calls = iter(range(1000))
    with pytest.raises(SessionCancelled):
        run_session(spec, journal=journal,
                    should_cancel=lambda: next(calls) >= 12)
    journal.close()
    store.release(claim)  # the claimer "died"
    return sid


def _raising_after_an_evaluation(exc):
    """A run_session whose session raises *exc* before its second
    evaluation."""
    def run(spec, **kwargs):
        calls = iter(range(1000))

        def check():
            if next(calls) >= 1:
                raise exc
            return False
        return run_session(spec, **dict(kwargs, should_cancel=check))
    return run


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


class TestCommitBeforeSettle:
    """A session's journal and trace are closed (fsync'd) before the
    store writes its terminal state."""

    @pytest.fixture()
    def order(self, monkeypatch):
        calls = []

        def recorded(owner, name, label):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(label)
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        recorded(EvaluationJournal, "close", "journal.close")
        recorded(JsonlTraceWriter, "close", "trace.close")
        for settle in ("complete", "fail", "cancelled"):
            recorded(SessionStore, settle, settle)
        return calls

    @pytest.mark.parametrize("run, settle", [
        (run_session, "complete"),
        (_raising_after_an_evaluation(SessionCancelled("cancelled")),
         "cancelled"),
        (_raising_after_an_evaluation(RuntimeError("broke")), "fail"),
    ], ids=["done", "cancelled", "failed"])
    def test_journal_and_trace_close_before_the_settle(
            self, tmp_path, monkeypatch, order, run, settle):
        monkeypatch.setattr(daemon_module, "run_session", run)
        store = SessionStore(tmp_path / "store")
        sid = store.submit(SPEC)
        assert drain(store, session_traces=True) == 1
        assert order == ["journal.close", "trace.close", settle]
        assert store.journal_path(sid).stat().st_size > 0


class TestWaking:
    def test_submission_wakes_an_idle_daemon_before_its_rescan(
            self, tmp_path):
        store = SessionStore(tmp_path / "store")
        daemon = TuningDaemon(store, poll_s=30.0, session_traces=False,
                              tracer=Tracer(InMemorySink()))
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        try:
            for _ in range(1000):  # the worker's first (empty) claim scan
                if daemon.tracer.timers.get("serve.claim"):
                    break
                time.sleep(0.01)
            assert daemon.tracer.timers["serve.claim"]["count"] == 1
            sid = store.submit(SPEC)
            # Well inside the 30 s rescan: only the new session wakes it.
            view = ServiceClient.for_store(store.root).wait(sid,
                                                            timeout_s=20.0)
            assert view["state"] == "DONE"
        finally:
            daemon.stop()
            thread.join(timeout=30.0)
        assert not thread.is_alive()

    def test_idle_checks_back_off_to_one_per_poll(self, tmp_path):
        daemon = TuningDaemon(tmp_path / "store", poll_s=0.25,
                              session_traces=False)
        gaps: list[float] = []

        class RecordingStop:  # records the idle sleeps, sleeps none
            def wait(self, gap):
                gaps.append(gap)
                return False

        daemon._stop = RecordingStop()
        stamp = daemon.store.sessions_stamp()
        idle_s = 0.0
        while idle_s < 3600.0:  # an hour of rescans on an unchanged store
            idle_s = daemon._await_change(stamp, idle_s)
        assert gaps[0] == TICK_S and max(gaps) == 0.25
        waited = 0.0
        for gap in gaps:  # a change is seen within a tick or 1/128 of idle
            assert gap <= max(TICK_S, WAIT_SHARE * waited) + 1e-12
            waited += gap
        assert len(gaps) <= 1.05 * 3600.0 / 0.25
        daemon.store.submit(SPEC)
        gaps.clear()
        assert daemon._await_change(stamp, idle_s) == 0.0
        assert gaps == [0.25]  # the first check after that long idle
        assert daemon._await_change(daemon.store.sessions_stamp(), 0.0) > 0
        assert gaps[1] == TICK_S  # and every tick again after a change

    @pytest.mark.parametrize("mode", [{"drain": True}, {"max_sessions": 1}],
                             ids=["drain", "max_sessions"])
    def test_exits_on_its_last_settle_not_a_poll_later(
            self, tmp_path, monkeypatch, mode):
        store = SessionStore(tmp_path / "store")
        store.submit(SPEC)
        settled_at = []
        complete = SessionStore.complete

        def recorded(self, claim, result):
            complete(self, claim, result)
            settled_at.append(time.monotonic())
        monkeypatch.setattr(SessionStore, "complete", recorded)
        daemon = TuningDaemon(store, poll_s=5.0, session_traces=False,
                              **mode)
        assert daemon.run() == 1
        assert time.monotonic() - settled_at[0] < 1.0

    def test_sigterm_stops_an_idle_daemon(self, tmp_path):
        harness = DaemonHarness(tmp_path / "store").start()
        # stop() sends SIGTERM and falls back to SIGKILL (-9) after 30 s.
        assert harness.stop(timeout_s=30.0) == 0


def _fail_calls(monkeypatch, names, times):
    """Make each of the SessionStore methods *names* raise OSError on
    its first *times* calls (every call when None), then work."""
    for name in names:
        original = getattr(SessionStore, name)
        failed = []

        def flaky(self, *args, _original=original, _failed=failed,
                  **kwargs):
            if times is None or len(_failed) < times:
                _failed.append(True)
                raise OSError("injected store fault")
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(SessionStore, name, flaky)


class TestStoreFaults:
    """A store call that raises ends no worker, and a one-worker drain
    daemon still exits.  A fault that passes lets the session settle,
    bit-identically; a settle that keeps failing settles it FAILED at
    the third try, and when FAILED cannot be written either, the daemon
    exits with the session RUNNING for the next daemon to finish."""

    @pytest.mark.parametrize("names, times, op, n_errors, n_settled, state", [
        (("claim",), 1, "claim", 1, 1, "DONE"),
        (("complete", "fail"), 1, "settle", 1, 1, "DONE"),
        (("complete",), None, "settle", 3, 1, "FAILED"),
        (("complete", "fail"), None, "settle", 3, 0, "RUNNING"),
    ], ids=["claim", "complete-and-fail", "complete-always",
            "complete-and-fail-always"])
    def test_the_worker_survives_and_the_session_settles(
            self, tmp_path, monkeypatch, names, times, op, n_errors,
            n_settled, state):
        _fail_calls(monkeypatch, names, times)
        store = SessionStore(tmp_path / "store")
        sid = store.submit(SPEC)
        sink = InMemorySink()
        daemon = TuningDaemon(store, drain=True, poll_s=0.02,
                              session_traces=False, tracer=Tracer(sink))
        settled = []
        thread = threading.Thread(target=lambda: settled.append(daemon.run()),
                                  daemon=True)
        thread.start()
        thread.join(timeout=120.0)
        try:
            assert not thread.is_alive(), "the drain daemon never exited"
        finally:
            daemon.stop()
            thread.join(timeout=30.0)
        assert settled == [n_settled]  # released attempts do not count
        errors = [r["data"] for r in sink.records
                  if r.get("type") == "serve.worker_error"]
        expected = {"op": op, "error": "OSError"}
        if op == "settle":
            expected["sid"] = sid
        assert errors == [expected] * n_errors
        assert store.state(sid) == state
        if state == "FAILED":
            assert store.view(sid)["error"] == (
                "settle failed 3 times: OSError: injected store fault")
            return
        if state == "RUNNING":  # the exit released it: a daemon adopts it
            monkeypatch.undo()
            assert drain(store) == 1
            assert store.state(sid) == "DONE"
        assert store.result(sid)["digest"] == result_payload(
            SPEC, run_session(SPEC))["digest"]


class TestRecovery:
    def test_adopts_and_finishes_an_orphan_bit_identically(self, tmp_path):
        # A crash after 12 objective calls (mid-tuning phase): the
        # journal keeps the prefix the "crashed" process produced.
        store = SessionStore(tmp_path / "store")
        sid = crash_partway(store, SPEC)

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


class TestView:
    """A settled session's view takes its evaluation count from the
    result, without opening the journal, and the two agree."""

    @pytest.mark.parametrize("extra, crash", [
        ({}, False),
        ({"fault_rate": 0.3, "retries": 2}, False),
        ({"async_workers": 2, "eval_timeout_s": 60.0}, False),
        ({}, True),
    ], ids=["plain", "faults", "supervised", "resumed"])
    def test_done_count_equals_the_journal(self, tmp_path, monkeypatch,
                                           extra, crash):
        store = SessionStore(tmp_path / "store")
        spec = SessionSpec(workload="pagerank", seed=4,
                           **fast_spec_kwargs(**extra))
        sid = crash_partway(store, spec) if crash else store.submit(spec)
        assert drain(store) == 1
        assert store.state(sid) == "DONE"
        n = len(EvaluationJournal(store.journal_path(sid)))
        assert n >= spec.budget

        def unopened(path):
            raise AssertionError(f"view opened the journal {path}")
        monkeypatch.setattr(store_module, "EvaluationJournal", unopened)
        assert store.view(sid)["n_evaluations"] == n


class TestValidation:
    @pytest.mark.parametrize("kw", [
        {"workers": 0},
        {"poll_s": 0.0},
        {"max_sessions": 0},
    ])
    def test_bad_construction_rejected(self, tmp_path, kw):
        with pytest.raises(ValueError):
            TuningDaemon(SessionStore(tmp_path / "s"), **kw)
