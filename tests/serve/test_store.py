"""SessionStore unit tests: transitions, locking, recovery, submission."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.serve import (Claim, SessionSpec, SessionStore, StaleClaimError)
from repro.serve.session import STATES

SRC = Path(__file__).resolve().parents[2] / "src"


def spec(**kw):
    kw.setdefault("workload", "pagerank")
    return SessionSpec(**kw)


@contextmanager
def switching_often():
    """Let threads interleave at almost every bytecode."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def run_all(target, n):
    """Run ``target(i)`` on *n* threads at once; assert they all finish
    and none raised."""
    errors = []

    def run(i):
        try:
            target(i)
        except BaseException as exc:
            errors.append(exc)
            raise

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
    with switching_often():
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def run_python(code, *args):
    """Run *code* in a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run([sys.executable, "-c", code, *map(str, args)],
                   env=env, check=True, timeout=120)


@pytest.fixture()
def store(tmp_path):
    return SessionStore(tmp_path / "store")


class TestLifecycle:
    def test_submit_is_pending_and_listed(self, store):
        sid = store.submit(spec())
        assert store.state(sid) == "PENDING"
        assert [s["sid"] for s in store.list_sessions()] == [sid]
        assert store.queue_depth()["PENDING"] == 1

    def test_claim_runs_and_completes(self, store):
        sid = store.submit(spec())
        claim = store.claim("w0")
        assert claim.sid == sid and not claim.resumed
        assert store.state(sid) == "RUNNING"
        store.complete(claim, {"digest": "d" * 64})
        assert store.state(sid) == "DONE"
        assert store.result(sid)["digest"] == "d" * 64
        assert store.claim("w0") is None  # nothing left to run

    def test_fail_records_the_error(self, store):
        store.submit(spec())
        claim = store.claim()
        store.fail(claim, "boom")
        view = store.view(claim.sid)
        assert view["state"] == "FAILED"
        assert "boom" in view["error"]

    def test_unknown_sid_raises_keyerror(self, store):
        with pytest.raises(KeyError):
            store.state("s999999-deadbeef")
        with pytest.raises(KeyError):
            store.cancel("s999999-deadbeef")

    def test_result_is_durable_before_done(self, store):
        # complete() writes result.json before flipping the state, so a
        # DONE state always has a readable result.
        sid = store.submit(spec())
        store.complete(store.claim(), {"x": 1})
        assert store.state(sid) == "DONE"
        assert store.result(sid) == {"x": 1}


class TestOrdering:
    def test_priority_then_submission_order(self, store):
        s_low = store.submit(spec(seed=1, priority=0))
        s_old = store.submit(spec(seed=2, priority=3))
        s_new = store.submit(spec(seed=3, priority=3))
        order = []
        while True:
            claim = store.claim()
            if claim is None:
                break
            order.append(claim.sid)
            store.complete(claim, {})
        assert order == [s_old, s_new, s_low]


class TestLocking:
    def test_two_handles_never_double_claim(self, store, tmp_path):
        other = SessionStore(tmp_path / "store")  # second handle, same dir
        store.submit(spec())
        first = store.claim("a")
        assert first is not None
        assert other.claim("b") is None  # live lock blocks the rival

    def test_settle_with_stale_claim_refused(self, store, tmp_path):
        other = SessionStore(tmp_path / "store")
        store.submit(spec())
        claim = store.claim("a")
        # The claimer dies: the kernel releases its lock.
        store.release(claim)
        adopted = other.claim("b")
        assert adopted is not None and adopted.resumed
        with pytest.raises(StaleClaimError):
            store.complete(claim, {})  # the original claim was taken over
        other.complete(adopted, {"ok": True})
        assert store.state(claim.sid) == "DONE"

    def test_dead_owner_running_session_is_adoptable(self, store):
        sid = store.submit(spec())
        claim = store.claim("a")
        inode = store._lock_path(sid).stat().st_ino
        # Crash: the kernel releases the lock; the session stays RUNNING.
        store.release(claim)
        assert store.lock_holder(sid) is None
        adopted = store.claim("restarted")
        assert adopted is not None
        assert adopted.sid == sid
        assert adopted.resumed  # RUNNING state means work may exist
        assert adopted.token != claim.token
        # Lock files are never unlinked: every claimer locks one inode.
        assert store._lock_path(sid).stat().st_ino == inode

    def test_concurrent_claimers_never_double_claim(self, store, tmp_path):
        sids = [store.submit(spec(seed=i)) for i in range(40)]
        shared = SessionStore(tmp_path / "store")
        # Three handles of their own, and two threads on one handle.
        handles = [SessionStore(tmp_path / "store") for _ in range(3)]
        handles += [shared, shared]
        start = threading.Barrier(len(handles))
        settled: list[list[str]] = [[] for _ in handles]

        def claimer(i):
            start.wait()
            while (claim := handles[i].claim(f"c{i}")) is not None:
                handles[i].complete(claim, {"by": i})
                settled[i].append(claim.sid)

        run_all(claimer, len(handles))
        assert sorted(sid for done in settled for sid in done) == sids
        assert store.queue_depth()["DONE"] == 40

    def test_torn_lock_file_is_stale(self, store):
        sid = store.submit(spec())
        # The lock's text only names its holder; an empty or torn text
        # (an older build's crash between create and write) holds nothing.
        store._lock_path(sid).write_text("")
        claim = store.claim()
        assert claim is not None and claim.sid == sid

    def test_a_reused_pid_strands_nothing(self, store):
        sid = store.submit(spec())
        run_python("import sys\n"
                   "from repro.serve import SessionStore\n"
                   "assert SessionStore(sys.argv[1]).claim('gone')\n",
                   store.root)
        # The claimer exited; its pid may since name any live process,
        # this one for instance.
        lock = store._lock_path(sid)
        holder = json.loads(lock.read_text())
        assert holder["owner"] == "gone"
        holder["pid"] = os.getpid()
        lock.write_text(json.dumps(holder))
        assert store.state(sid) == "RUNNING"
        adopted = store.claim("restarted")
        assert adopted is not None and adopted.sid == sid
        assert adopted.resumed


class TestCancellation:
    def test_pending_cancels_immediately(self, store):
        sid = store.submit(spec())
        assert store.cancel(sid) == "CANCELLED"
        assert store.state(sid) == "CANCELLED"
        assert store.claim() is None

    def test_running_gets_a_marker(self, store):
        sid = store.submit(spec())
        claim = store.claim()
        assert store.cancel(sid) == "requested"
        assert store.cancel_requested(sid)
        store.cancelled(claim)
        assert store.state(sid) == "CANCELLED"

    def test_terminal_cancel_is_a_no_op(self, store):
        sid = store.submit(spec())
        store.complete(store.claim(), {})
        assert store.cancel(sid) == "DONE"
        assert store.state(sid) == "DONE"

    def test_cancelled_pending_is_not_claimed(self, store):
        # A cancel marker that lands while the session is still PENDING
        # (but the lock was contended) is honored at claim time.
        sid = store.submit(spec())
        store._write_json(store._cancel_marker(sid), {"requested": True})
        assert store.claim() is None
        assert store.state(sid) == "CANCELLED"


class TestSubmission:
    def test_concurrent_submitters_share_no_number(self, tmp_path):
        root = tmp_path / "store"
        start = threading.Barrier(4)
        sids: list[list[str]] = [[] for _ in range(4)]

        def submitter(i):
            handle = SessionStore(root)
            start.wait()
            for k in range(25):
                sids[i].append(handle.submit(spec(seed=100 * i + k)))

        run_all(submitter, 4)
        numbered = [f"s{n:06d}" for n in range(100)]
        assert sorted(sid for handle in sids for sid in handle) == numbered
        listed = SessionStore(root).list_sessions()
        assert [s["sid"] for s in listed] == numbered
        assert [s["seq"] for s in listed] == list(range(100))

    def test_a_session_directory_appears_whole(self, store, monkeypatch):
        store.submit(spec(seed=0))
        seen = []
        write = SessionStore._write_json

        def whole():
            for directory in store.sessions_dir.glob("s*"):
                seen.append(directory.name)
                assert (directory / "spec.json").exists(), directory
                assert (directory / "state.json").exists(), directory

        def spy(path, payload):
            whole()
            write(path, payload)
            whole()

        monkeypatch.setattr(SessionStore, "_write_json", staticmethod(spy))
        sid = store.submit(spec(seed=1))
        whole()
        assert sid in seen and len(seen) > 2

    def test_a_killed_submit_leaves_nothing_behind(self, store):
        # SIGKILLed between writing its files and publishing them.
        with pytest.raises(subprocess.CalledProcessError):
            run_python("import os, signal, sys\n"
                       "from repro.serve import SessionSpec, SessionStore\n"
                       "os.rename = lambda *a: os.kill(os.getpid(), "
                       "signal.SIGKILL)\n"
                       "SessionStore(sys.argv[1]).submit("
                       "SessionSpec(workload='pagerank'))\n",
                       store.root)
        staged = [p for p in store.root.iterdir() if p.name != "sessions"]
        assert len(staged) == 1 and staged[0].name.startswith(".")
        assert {p.name for p in staged[0].iterdir()} \
            == {"spec.json", "state.json"}
        assert store.list_sessions() == []
        assert store.queue_depth() == {state: 0 for state in STATES}
        assert store.claim() is None
        assert store.submit(spec()) == "s000000"


class TestOlderStores:
    def test_a_store_written_before_numbered_names_still_serves(self, store):
        """The layout older builds wrote: hex-suffixed sids, ``seq`` in
        ``state.json``, an index cache and its lock, a RUNNING session
        whose lock names a dead pid, and a torn submit."""
        def old_session(seq, state, priority=0):
            sid = f"s{seq:06d}-1a2b3c4{seq}"
            directory = store.sessions_dir / sid
            directory.mkdir(parents=True)
            (directory / "spec.json").write_text(json.dumps(
                spec(seed=seq, priority=priority).to_dict()))
            if state is not None:
                (directory / "state.json").write_text(json.dumps(
                    {"state": state, "seq": seq, "error": None}))
            return sid

        done = old_session(0, "DONE")
        low = old_session(1, "PENDING")
        orphan = old_session(2, "RUNNING")
        (store.session_dir(orphan) / "lock").write_text(json.dumps(
            {"pid": 2 ** 22 + 1, "owner": "w0", "token": "t"}))
        high = old_session(3, "PENDING", priority=5)
        old_session(4, None)  # torn: its submitter died before state.json
        (store.root / "index.json").write_text(json.dumps(
            {"version": 1, "next_seq": 4, "sessions": {}}))
        (store.root / "index.lock").write_text(str(2 ** 22 + 1))

        listed = store.list_sessions()
        assert [s["sid"] for s in listed] == [done, low, orphan, high]
        assert [s["seq"] for s in listed] == [0, 1, 2, 3]
        assert store.view(orphan)["seq"] == 2
        claims = []
        while (claim := store.claim()) is not None:
            claims.append(claim)
            store.complete(claim, {})
        assert [c.sid for c in claims] == [high, low, orphan]
        assert [c.resumed for c in claims] == [False, False, True]
        assert store.submit(spec()) == "s000005"


class TestDaemonInfo:
    def test_daemon_registration_round_trips(self, store):
        store.write_daemon_info({"pid": os.getpid(), "address": "x:1"})
        assert store.daemon_info()["address"] == "x:1"


class TestTracePaths:
    def test_trace_paths_count_attempts(self, store):
        sid = store.submit(spec())
        p0 = store.next_trace_path(sid)
        assert p0.name == "trace-0.jsonl"
        p0.write_text("{}\n")
        assert store.next_trace_path(sid).name == "trace-1.jsonl"
        assert [p.name for p in store.session_dir(sid).glob("trace-*")] \
            == ["trace-0.jsonl"]


class TestClaimToken:
    def test_claim_is_frozen_proof(self):
        claim = Claim(sid="s", spec=spec(), token="t", resumed=False)
        with pytest.raises(AttributeError):
            claim.token = "forged"
