"""Durable session store: a directory of journals plus an index file.

Layout (everything under one *root* directory)::

    root/
      index.json              # summary cache: {sid: {state, priority, ...}}
      index.lock              # transient pid lock serializing index updates
      daemon.json             # last daemon's pid + socket endpoint
      sessions/<sid>/
        spec.json             # the immutable SessionSpec
        state.json            # authoritative lifecycle state (fsync'd)
        journal.jsonl         # the session's EvaluationJournal
                              # (flushed per record, fsync'd per dispatch)
        result.json           # settled outcome (written before DONE)
        lock                  # advisory claim lock while RUNNING
        cancel                # cancel-request marker
        trace-<n>.jsonl       # per-attempt obs traces

Durability and concurrency rules:

* ``state.json`` is the **source of truth**; every transition is written
  via write-to-temp → fsync → atomic rename → fsync(dir)
  (:func:`repro.obs.durable.replace_text`), so a crash leaves either the
  old or the new state, never a torn file.
* ``index.json`` is a cache over the per-session state files, updated
  under ``index.lock`` and always reconstructible bit-for-bit with
  :meth:`SessionStore.rebuild_index` (the hypothesis suite in
  ``tests/serve/test_store_properties.py`` holds the store to that).
  A read of a missing or torn ``index.json`` falls back to that
  reconstruction.
* A session is claimed by creating ``lock`` with ``O_CREAT|O_EXCL`` —
  the filesystem is the arbiter, so two daemons sharing a store can
  never both claim one session.  A lock whose recorded pid is dead is
  *stale*; takeover renames it away (only one racer's rename succeeds)
  before re-claiming, which is how a restarted daemon adopts the
  sessions a killed daemon left RUNNING.
* Settling operations require the :class:`Claim` returned by
  :meth:`SessionStore.claim` and verify its token against the lock on
  disk, so a handle that lost its claim cannot corrupt a successor's.

Waiting.  Every write to ``index.json`` replaces the file, so its
:meth:`SessionStore.index_stamp` changes with every submit and
transition.  An idle daemon worker compares that stamp and claims when
it moves; a client waiting on a session reads its ``state.json``
(:meth:`SessionStore.state`).  Both pace their checks with
:func:`check_gap`: every :data:`TICK_S` at first, then further apart
as the wait grows, up to the waiter's own poll interval.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from ..core.journal import EvaluationJournal
from ..obs import as_tracer
from ..obs.durable import create_exclusive, replace_text
from .session import STATES, TERMINAL_STATES, TRANSITIONS, SessionSpec

__all__ = ["SessionStore", "Claim", "StaleClaimError", "TICK_S",
           "WAIT_SHARE", "check_gap"]

_INDEX_VERSION = 1

#: Seconds between the first cheap checks of anyone waiting on the
#: store: an idle daemon worker's index stamp, a waiting client's
#: session state.
TICK_S = 0.005
#: Past its first ticks, a wait sleeps this share of the time it has
#: waited so far between two checks.
WAIT_SHARE = 1 / 128


def check_gap(waited_s: float, cap_s: float) -> float:
    """Seconds to sleep before the next check of a wait that has lasted
    *waited_s*: :data:`TICK_S` at first, then :data:`WAIT_SHARE` of the
    time waited, never more than *cap_s*.  Such a wait sees a change
    within a tick or that share of its length, and once it has lasted
    ``cap_s / WAIT_SHARE`` it checks once per *cap_s*."""
    return min(cap_s, max(TICK_S, waited_s * WAIT_SHARE))


class StaleClaimError(RuntimeError):
    """A settle was attempted with a claim that no longer holds the lock."""


@dataclass(frozen=True)
class Claim:
    """Proof of ownership of one RUNNING session."""

    sid: str
    spec: SessionSpec
    token: str
    #: True when a prior journal exists: the runner must resume, not start.
    resumed: bool


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned by another user
        return True
    return True


class SessionStore:
    """One handle onto a (possibly shared) session store directory.

    Handles are cheap; several may point at the same *root* from the
    same or different processes (client + daemon, or two daemons).  All
    cross-handle coordination happens through the filesystem.

    Parameters
    ----------
    root:
        Store directory; created on first use.
    tracer:
        Optional :class:`repro.obs.Tracer`; the store emits the
        ``serve.submit`` / ``serve.state`` events (docs/OBSERVABILITY.md).
    """

    def __init__(self, root: str | Path, *, tracer=None) -> None:
        self.root = Path(root)
        self.tracer = as_tracer(tracer)
        self._local = threading.Lock()  # serializes THIS handle's claims

    # -- paths --------------------------------------------------------------------
    @property
    def sessions_dir(self) -> Path:
        return self.root / "sessions"

    def session_dir(self, sid: str) -> Path:
        return self.sessions_dir / sid

    def journal_path(self, sid: str) -> Path:
        return self.session_dir(sid) / "journal.jsonl"

    def next_trace_path(self, sid: str) -> Path:
        """A fresh per-attempt trace file (attempt 0 on first claim)."""
        directory = self.session_dir(sid)
        n = len(list(directory.glob("trace-*.jsonl")))
        return directory / f"trace-{n}.jsonl"

    # -- durable writes -----------------------------------------------------------
    @staticmethod
    def _write_json(path: Path, payload: Mapping[str, Any]) -> None:
        replace_text(path, json.dumps(payload, sort_keys=True))

    @staticmethod
    def _read_json(path: Path) -> dict[str, Any]:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    # -- index lock ---------------------------------------------------------------
    def _index_lock_path(self) -> Path:
        return self.root / "index.lock"

    def _acquire_index_lock(self, *, spin_s: float = 0.002) -> None:
        path = self._index_lock_path()
        self.root.mkdir(parents=True, exist_ok=True)
        while True:
            try:
                create_exclusive(path, str(os.getpid()))
            except FileExistsError:
                if self._takeover_stale(path):
                    continue
                time.sleep(spin_s)
                continue
            return

    @staticmethod
    def _force_takeover(path: Path) -> bool:
        """Rename-then-unlink a lock already judged stale.

        The rename is the race arbiter: the source disappears with the
        first winner, so exactly one racer takes a given stale lock
        over (the rest see FileNotFoundError and re-contend).
        """
        stale = path.with_name(f"{path.name}.stale.{os.getpid()}")
        try:
            os.rename(path, stale)
        except FileNotFoundError:
            return True
        stale.unlink(missing_ok=True)
        return True

    def _takeover_stale(self, path: Path) -> bool:
        """Remove *path* iff its recorded pid is dead; True if removed."""
        try:
            pid = int(path.read_text().strip() or "0")
        except (FileNotFoundError, ValueError):
            return True  # vanished or torn: retry the create immediately
        if pid and _pid_alive(pid):
            return False
        return self._force_takeover(path)

    def _release_index_lock(self) -> None:
        self._index_lock_path().unlink(missing_ok=True)

    # -- index --------------------------------------------------------------------
    def _index_path(self) -> Path:
        return self.root / "index.json"

    def _load_index_unlocked(self) -> dict[str, Any]:
        try:
            return self._read_json(self._index_path())
        except (FileNotFoundError, json.JSONDecodeError):
            # Lost or torn cache: the session files still hold every
            # session and the next sequence number.
            return self.rebuild_index()

    def load_index(self) -> dict[str, Any]:
        """The stored index (a cache; ``state.json`` files are the truth)."""
        return self._load_index_unlocked()

    def index_stamp(self) -> tuple[int, int, int] | None:
        """``index.json``'s (inode, mtime_ns, size), None when missing: a
        one-``stat`` check that the index changed since a claim scan."""
        try:
            st = os.stat(self._index_path())
        except FileNotFoundError:
            return None
        return st.st_ino, st.st_mtime_ns, st.st_size

    def rebuild_index(self) -> dict[str, Any]:
        """Reconstruct the index purely from the per-session files on disk.

        The reconstruction must equal :meth:`load_index` after any
        sequence of store operations — the round-trip invariant the
        property suite pins.  It is also the recovery path when the
        index cache is lost or torn: ``next_seq`` is recomputed as one
        past the highest per-session sequence number.
        """
        sessions: dict[str, Any] = {}
        next_seq = 0
        if self.sessions_dir.exists():
            for directory in sorted(self.sessions_dir.iterdir()):
                state_path = directory / "state.json"
                spec_path = directory / "spec.json"
                if not state_path.exists() or not spec_path.exists():
                    continue  # torn submit: never made it into the index
                state = self._read_json(state_path)
                spec = self._read_json(spec_path)
                sessions[directory.name] = {
                    "state": state["state"],
                    "priority": int(spec.get("priority", 0)),
                    "seq": int(state["seq"]),
                    "workload": spec["workload"],
                    "dataset": spec.get("dataset", "D1"),
                }
                next_seq = max(next_seq, int(state["seq"]) + 1)
        return {"version": _INDEX_VERSION, "next_seq": next_seq,
                "sessions": sessions}

    def _update_index(self, sid: str, summary: Mapping[str, Any]) -> None:
        self._acquire_index_lock()
        try:
            index = self._load_index_unlocked()
            entry = dict(index["sessions"].get(sid, {}))
            entry.update(summary)
            index["sessions"][sid] = entry
            index["next_seq"] = max(int(index.get("next_seq", 0)),
                                    int(entry.get("seq", -1)) + 1)
            self._write_json(self._index_path(), index)
        finally:
            self._release_index_lock()

    # -- submission ---------------------------------------------------------------
    def submit(self, spec: SessionSpec) -> str:
        """Accept a session: durably create its directory, PENDING."""
        self._acquire_index_lock()
        try:
            index = self._load_index_unlocked()
            seq = int(index.get("next_seq", 0))
            sid = f"s{seq:06d}-{os.urandom(4).hex()}"
            directory = self.session_dir(sid)
            directory.mkdir(parents=True, exist_ok=False)
            self._write_json(directory / "spec.json", spec.to_dict())
            self._write_json(directory / "state.json",
                             {"state": "PENDING", "seq": seq, "error": None})
            index["next_seq"] = seq + 1
            index["sessions"][sid] = {
                "state": "PENDING", "priority": int(spec.priority),
                "seq": seq, "workload": spec.workload,
                "dataset": spec.dataset,
            }
            self._write_json(self._index_path(), index)
        finally:
            self._release_index_lock()
        self.tracer.emit("serve.submit",
                         {"sid": sid, "workload": spec.workload,
                          "dataset": spec.dataset, "budget": int(spec.budget),
                          "seed": int(spec.seed),
                          "priority": int(spec.priority)})
        self.tracer.count("serve.submitted")
        return sid

    # -- reading ------------------------------------------------------------------
    def spec(self, sid: str) -> SessionSpec:
        try:
            payload = self._read_json(self.session_dir(sid) / "spec.json")
        except FileNotFoundError:
            raise KeyError(f"no session {sid!r} in {self.root}") from None
        return SessionSpec.from_dict(payload)

    def state(self, sid: str) -> str:
        try:
            return self._read_json(
                self.session_dir(sid) / "state.json")["state"]
        except FileNotFoundError:
            raise KeyError(f"no session {sid!r} in {self.root}") from None

    def result(self, sid: str) -> dict[str, Any] | None:
        try:
            return self._read_json(self.session_dir(sid) / "result.json")
        except FileNotFoundError:
            return None

    def view(self, sid: str) -> dict[str, Any]:
        """One session's externally visible status (the client payload).

        A settled session's evaluation count is its result's stream
        length (``n_stream``); a session without one counts its journal.
        """
        try:
            state = self._read_json(self.session_dir(sid) / "state.json")
        except FileNotFoundError:
            raise KeyError(f"no session {sid!r} in {self.root}") from None
        spec = self.spec(sid)
        result = self.result(sid)
        n_evals = None if result is None else result.get("n_stream")
        if n_evals is None:
            n_evals = len(EvaluationJournal(self.journal_path(sid)))
        view: dict[str, Any] = {
            "sid": sid, "state": state["state"], "seq": int(state["seq"]),
            "error": state.get("error"),
            "workload": spec.workload, "dataset": spec.dataset,
            "budget": int(spec.budget), "seed": int(spec.seed),
            "priority": int(spec.priority),
            "n_evaluations": int(n_evals),
            "cancel_requested": self.cancel_requested(sid),
        }
        if result is not None:
            view["result"] = result
        return view

    def list_sessions(self) -> list[dict[str, Any]]:
        """Summaries of every stored session, in submission order."""
        index = self.load_index()
        out = []
        for sid, entry in sorted(index["sessions"].items(),
                                 key=lambda kv: kv[1]["seq"]):
            out.append({"sid": sid, **entry})
        return out

    def queue_depth(self) -> dict[str, int]:
        """Sessions per lifecycle state (the ``serve.queue`` payload)."""
        depth = {state: 0 for state in STATES}
        for entry in self.load_index()["sessions"].values():
            depth[entry["state"]] = depth.get(entry["state"], 0) + 1
        return depth

    # -- claiming -----------------------------------------------------------------
    def _lock_path(self, sid: str) -> Path:
        return self.session_dir(sid) / "lock"

    def _try_lock(self, sid: str, owner: str) -> str | None:
        """Create the claim lock; returns the token or None if held live."""
        path = self._lock_path(sid)
        token = os.urandom(8).hex()
        while True:
            try:
                create_exclusive(path, json.dumps(
                    {"pid": os.getpid(), "owner": owner, "token": token}))
            except FileExistsError:
                try:
                    holder = self._read_json(path)
                except FileNotFoundError:
                    continue  # vanished under us: retry the create
                except json.JSONDecodeError:
                    # create_exclusive links a lock into place only
                    # after its text is fsync'd, so no live holder's lock
                    # reads torn: this one is stale (e.g. left by an
                    # older build that created the name before writing).
                    holder = {}
                if holder and _pid_alive(int(holder.get("pid", 0))):
                    return None
                if not self._force_takeover(path):
                    return None
                continue
            return token

    def lock_holder(self, sid: str) -> dict[str, Any] | None:
        """The live claim lock's contents, or None (dead holders count
        as None: their sessions are adoptable)."""
        try:
            holder = self._read_json(self._lock_path(sid))
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        return holder if _pid_alive(int(holder.get("pid", 0))) else None

    def claim(self, owner: str = "worker") -> Claim | None:
        """Claim the best runnable session, or None when nothing runs.

        Candidates are PENDING sessions plus RUNNING sessions whose
        claim lock is stale (their daemon died — adopting them is the
        crash-recovery path); ordering is highest priority first, then
        submission order.  A PENDING candidate with a cancel marker is
        settled CANCELLED here instead of being claimed.
        """
        with self._local:
            candidates = [
                (-(entry["priority"]), entry["seq"], sid, entry["state"])
                for sid, entry in self.load_index()["sessions"].items()
                if entry["state"] in ("PENDING", "RUNNING")]
            for _, _, sid, _ in sorted(candidates):
                claim = self._try_claim(sid, owner)
                if claim is not None:
                    return claim
        return None

    def _try_claim(self, sid: str, owner: str) -> Claim | None:
        token = self._try_lock(sid, owner)
        if token is None:
            return None
        # Re-read the authoritative state *after* winning the lock: the
        # index snapshot may be stale (TOCTOU window).
        state = self._read_json(self.session_dir(sid) / "state.json")
        if state["state"] not in ("PENDING", "RUNNING"):
            self._lock_path(sid).unlink(missing_ok=True)
            return None
        if state["state"] == "PENDING" and self.cancel_requested(sid):
            self._transition(sid, state, "CANCELLED")
            self._lock_path(sid).unlink(missing_ok=True)
            self.tracer.count("serve.cancelled")
            return None
        resumed = (state["state"] == "RUNNING"
                   or (self.journal_path(sid).exists()
                       and self.journal_path(sid).stat().st_size > 0))
        if state["state"] == "PENDING":
            self._transition(sid, state, "RUNNING")
        spec = self.spec(sid)
        self.tracer.emit("serve.claim", {"sid": sid, "owner": owner,
                                         "resumed": bool(resumed)})
        self.tracer.count("serve.claims")
        if resumed:
            self.tracer.emit("serve.recover", {"sid": sid})
            self.tracer.count("serve.resumed")
        return Claim(sid=sid, spec=spec, token=token, resumed=bool(resumed))

    def _transition(self, sid: str, state: Mapping[str, Any], to: str, *,
                    error: str | None = None) -> None:
        frm = state["state"]
        if to not in TRANSITIONS[frm]:
            raise ValueError(f"illegal transition {frm} -> {to} for {sid}")
        payload = dict(state)
        payload["state"] = to
        payload["error"] = error
        self._write_json(self.session_dir(sid) / "state.json", payload)
        self._update_index(sid, {"state": to})
        self.tracer.emit("serve.state", {"sid": sid, "from": frm, "to": to})

    # -- settling (claim-holders only) --------------------------------------------
    def _verify(self, claim: Claim) -> dict[str, Any]:
        try:
            holder = self._read_json(self._lock_path(claim.sid))
        except (FileNotFoundError, json.JSONDecodeError):
            raise StaleClaimError(f"claim on {claim.sid} no longer holds "
                                  "the lock") from None
        if holder.get("token") != claim.token:
            raise StaleClaimError(f"claim on {claim.sid} was taken over")
        return self._read_json(self.session_dir(claim.sid) / "state.json")

    def complete(self, claim: Claim, result: Mapping[str, Any]) -> None:
        """Settle DONE: the result is durable before the state says so."""
        state = self._verify(claim)
        self._write_json(self.session_dir(claim.sid) / "result.json",
                         dict(result))
        self._transition(claim.sid, state, "DONE")
        self._lock_path(claim.sid).unlink(missing_ok=True)
        self.tracer.count("serve.done")

    def fail(self, claim: Claim, error: str) -> None:
        state = self._verify(claim)
        self._transition(claim.sid, state, "FAILED", error=str(error))
        self._lock_path(claim.sid).unlink(missing_ok=True)
        self.tracer.count("serve.failed")

    def cancelled(self, claim: Claim) -> None:
        state = self._verify(claim)
        self._transition(claim.sid, state, "CANCELLED")
        self._lock_path(claim.sid).unlink(missing_ok=True)
        self.tracer.count("serve.cancelled")

    # -- cancellation -------------------------------------------------------------
    def _cancel_marker(self, sid: str) -> Path:
        return self.session_dir(sid) / "cancel"

    def cancel_requested(self, sid: str) -> bool:
        return self._cancel_marker(sid).exists()

    def cancel(self, sid: str) -> str:
        """Request cancellation; returns the resulting (or current) state.

        PENDING sessions cancel immediately when the claim lock is free;
        RUNNING (or contended) sessions get a durable marker the runner
        honors at its next evaluation boundary.  Terminal sessions are
        left alone.
        """
        state = self.state(sid)  # raises KeyError for unknown sids
        if state in TERMINAL_STATES:
            return state
        self._write_json(self._cancel_marker(sid), {"requested": True})
        if state == "PENDING":
            token = self._try_lock(sid, "cancel")
            if token is not None:
                fresh = self._read_json(self.session_dir(sid) / "state.json")
                if fresh["state"] == "PENDING":
                    self._transition(sid, fresh, "CANCELLED")
                    self.tracer.count("serve.cancelled")
                self._lock_path(sid).unlink(missing_ok=True)
                return self.state(sid)
        return "CANCELLED" if self.state(sid) == "CANCELLED" else "requested"

    # -- daemon registration ------------------------------------------------------
    def write_daemon_info(self, info: Mapping[str, Any]) -> None:
        """Record the serving daemon's pid/endpoint (client discovery)."""
        self._write_json(self.root / "daemon.json", dict(info))

    def daemon_info(self) -> dict[str, Any] | None:
        try:
            return self._read_json(self.root / "daemon.json")
        except FileNotFoundError:
            return None
