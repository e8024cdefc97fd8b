"""SessionStore unit tests: transitions, locking, recovery, index."""

from __future__ import annotations

import json
import os

import pytest

from repro.obs import durable
from repro.obs.durable import create_exclusive
from repro.serve import (Claim, SessionSpec, SessionStore, StaleClaimError)


def spec(**kw):
    kw.setdefault("workload", "pagerank")
    return SessionSpec(**kw)


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
        # Simulate the claimer dying: its lock records a dead pid.
        lock = store._lock_path(claim.sid)
        holder = json.loads(lock.read_text())
        holder["pid"] = 2 ** 22 + 1  # vanishingly unlikely to be alive
        lock.write_text(json.dumps(holder))
        adopted = other.claim("b")
        assert adopted is not None and adopted.resumed
        with pytest.raises(StaleClaimError):
            store.complete(claim, {})  # the original claim was taken over
        other.complete(adopted, {"ok": True})
        assert store.state(claim.sid) == "DONE"

    def test_dead_owner_running_session_is_adoptable(self, store):
        sid = store.submit(spec())
        claim = store.claim("a")
        # Crash: the lock stays on disk but its pid is dead.
        lock = store._lock_path(sid)
        holder = json.loads(lock.read_text())
        holder["pid"] = 2 ** 22 + 1
        lock.write_text(json.dumps(holder))
        adopted = store.claim("restarted")
        assert adopted is not None
        assert adopted.sid == sid
        assert adopted.resumed  # RUNNING state means work may exist
        assert adopted.token != claim.token

    def test_torn_lock_file_is_stale(self, store):
        sid = store.submit(spec())
        # No live holder writes a lock like this (create_exclusive links
        # it whole); an older build's crash between create and write did.
        store._lock_path(sid).write_text("")
        claim = store.claim()
        assert claim is not None and claim.sid == sid

    def test_lock_name_appears_only_whole(self, tmp_path, monkeypatch):
        # While create_exclusive opens its file to write the holder, the
        # lock name must not exist: an empty lock reads as torn (stale)
        # to the claim lock and as pid 0 to the index lock, and either
        # one would take the lock over from its live holder.
        lock = tmp_path / "lock"
        seen = []
        real_fdopen = os.fdopen

        def spy(fd, *args, **kwargs):
            seen.append(lock.exists())
            return real_fdopen(fd, *args, **kwargs)

        monkeypatch.setattr(durable.os, "fdopen", spy)
        create_exclusive(lock, '{"pid": 1}')
        assert seen == [False]
        assert lock.read_text() == '{"pid": 1}'
        assert [p.name for p in tmp_path.iterdir()] == ["lock"]

    def test_taken_lock_raises_and_leaves_no_temp(self, tmp_path):
        lock = tmp_path / "lock"
        create_exclusive(lock, "first")
        with pytest.raises(FileExistsError):
            create_exclusive(lock, "second")
        assert lock.read_text() == "first"
        assert [p.name for p in tmp_path.iterdir()] == ["lock"]


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


class TestIndex:
    def test_rebuild_matches_cache_after_operations(self, store):
        s1 = store.submit(spec(seed=1))
        store.submit(spec(seed=2, priority=4))
        store.complete(store.claim(), {})  # settles the priority-4 one
        store.cancel(s1)
        assert store.rebuild_index() == store.load_index()

    def test_lost_cache_is_recoverable(self, store):
        sids = [store.submit(spec(seed=i)) for i in range(3)]
        cached = store.load_index()
        index = store.root / "index.json"
        torn = index.read_text()[:40]
        index.unlink()
        assert store.load_index() == cached
        assert [s["sid"] for s in store.list_sessions()] == sids
        index.write_text(torn)
        assert store.load_index() == cached

    def test_next_seq_survives_cache_loss(self, store):
        store.submit(spec(seed=1))
        (store.root / "index.json").unlink()
        sid2 = store.submit(spec(seed=2))
        assert sid2.startswith("s000001-")  # no seq reuse

    def test_cache_loss_strands_no_session(self, store):
        sid = store.submit(spec())
        (store.root / "index.json").unlink()
        claim = store.claim()
        assert claim is not None and claim.sid == sid
        assert store.submit(spec(seed=2)).startswith("s000001-")

    def test_stale_index_lock_is_taken_over(self, store):
        (store.root).mkdir(parents=True, exist_ok=True)
        (store.root / "index.lock").write_text(str(2 ** 22 + 1))
        sid = store.submit(spec())  # must not deadlock
        assert store.state(sid) == "PENDING"

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
