"""Durable session store: one directory per session, each fact in one file.

Layout (everything under one *root* directory)::

    root/
      daemon.json             # last daemon's pid + socket endpoint
      daemon.lock             # held shared by every serving daemon:
                              # an flock (daemon_alive)
      .submit-<hex>/          # staging: a submit not yet published
      sessions/s<seq:06d>/    # the directory name holds the session number
        spec.json             # the immutable SessionSpec (priority,
                              # workload, dataset, ...)
        state.json            # the lifecycle state (fsync'd)
        journal.jsonl         # the session's EvaluationJournal
                              # (flushed per record, fsync'd per dispatch)
        result.json           # settled outcome (written before DONE)
        lock                  # claim lock: an flock; its text only names
                              # the holder
        cancel                # cancel-request marker
        trace-<n>.jsonl       # per-attempt obs traces

Each fact has one home: the lifecycle state is ``state.json``'s,
priority, workload and dataset are ``spec.json``'s, and the number is
the directory name's.  Sids of stores written before numbers moved
into the name, like ``s000000-1a2b3c4d``, keep working: the number is
the digits after ``s``.

Durability and concurrency rules:

* Every transition writes ``state.json`` via write-to-temp → fsync →
  atomic rename → fsync(dir) (:func:`repro.obs.durable.replace_text`),
  so a crash leaves either the old or the new state, never a torn file.
* A submit writes ``spec.json`` and ``state.json`` into a hidden staging
  directory in the root, then renames it to the next free
  ``sessions/s<seq>``.  A rename onto an existing session directory
  fails, so the rename hands out each number once without a lock, and
  a session directory is never seen without its files.  A killed
  submit leaves only its staging directory, which nothing reads.
* A session is claimed by taking an exclusive ``fcntl.flock`` on its
  ``lock`` file.  The kernel is the arbiter: two handles contend for it
  whether they share a process or not, and it drops the lock when its
  holder exits, however it exits.  A RUNNING session whose lock is free
  lost its owner, and the next claim scan adopts it — how a restarted
  daemon takes over what a killed one left RUNNING.  No pid is
  consulted, so a reused pid cannot strand a session.  Lock files are
  never unlinked: every process locks the same inode.
* A serving daemon holds a shared ``fcntl.flock`` on ``daemon.lock``
  (:meth:`SessionStore.daemon_lock`), so a daemon is alive exactly
  while someone holds it (:meth:`SessionStore.daemon_alive`), whatever
  pid ``daemon.json`` names.
* Settling operations require the :class:`Claim` returned by
  :meth:`SessionStore.claim`, on the handle that holds its lock, so a
  handle that lost its claim cannot corrupt a successor's.

Scans.  :meth:`~SessionStore.claim`, :meth:`~SessionStore.queue_depth`
and :meth:`~SessionStore.list_sessions` list ``sessions/``.  A handle
reads a ``state.json`` only until it has seen the session in a terminal
state, and each ``spec.json`` once: neither changes after that.

Waiting.  Every submit renames a directory into ``sessions/``, so
:meth:`SessionStore.sessions_stamp` changes with every submit.  An idle
daemon worker compares that stamp and claims when it moves; a client
waiting on a session reads its ``state.json`` (:meth:`SessionStore.state`).
Both pace their checks with :func:`check_gap`: every :data:`TICK_S` at
first, then further apart as the wait grows, up to the waiter's own
poll interval.
"""

from __future__ import annotations

import errno
import fcntl
import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

from ..core.journal import EvaluationJournal
from ..obs import as_tracer
from ..obs.durable import fsync_dir, replace_text
from .session import STATES, TERMINAL_STATES, TRANSITIONS, SessionSpec

__all__ = ["SessionStore", "Claim", "StaleClaimError", "TICK_S",
           "WAIT_SHARE", "check_gap"]

#: Seconds between the first cheap checks of anyone waiting on the
#: store: an idle daemon worker's sessions stamp, a waiting client's
#: session state.
TICK_S = 0.005
#: Past its first ticks, a wait sleeps this share of the time it has
#: waited so far between two checks.
WAIT_SHARE = 1 / 128

#: A session directory's name: ``s`` and the session number, with a hex
#: suffix in stores written before the number alone named a session.
_SID = re.compile(r"s(\d+)(?:-[0-9a-f]+)?")


def check_gap(waited_s: float, cap_s: float) -> float:
    """Seconds to sleep before the next check of a wait that has lasted
    *waited_s*: :data:`TICK_S` at first, then :data:`WAIT_SHARE` of the
    time waited, never more than *cap_s*.  Such a wait sees a change
    within a tick or that share of its length, and once it has lasted
    ``cap_s / WAIT_SHARE`` it checks once per *cap_s*."""
    return min(cap_s, max(TICK_S, waited_s * WAIT_SHARE))


def _seq(name: str) -> int | None:
    """The session number in a directory name; None for other names."""
    match = _SID.fullmatch(name)
    return None if match is None else int(match.group(1))


def _locked(path: Path, probe: int) -> bool:
    """Whether someone holds an flock on *path* that a *probe*
    (``LOCK_SH`` or ``LOCK_EX``) would wait for; False when there is no
    such file.  A probe that gets the lock holds it for an instant."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError:
        return False
    try:
        fcntl.flock(fd, probe | fcntl.LOCK_NB)
    except BlockingIOError:
        return True
    finally:
        os.close(fd)
    return False


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


class SessionStore:
    """One handle onto a (possibly shared) session store directory.

    Handles are cheap; several may point at the same *root* from the
    same or different processes (client + daemon, or two daemons), and
    threads may share one.  All coordination, between handles or
    threads, happens through the filesystem and the kernel's file
    locks.

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
        #: sid -> (token, fd) of every claim lock this handle holds.
        self._held: dict[str, tuple[str, int]] = {}
        #: What never changes once read: specs, and the (number, sid,
        #: state) of sessions seen in a terminal state.
        self._specs: dict[str, SessionSpec] = {}
        self._terminal: dict[str, tuple[int, str, str]] = {}

    # -- paths --------------------------------------------------------------------
    @property
    def sessions_dir(self) -> Path:
        return self.root / "sessions"

    def session_dir(self, sid: str) -> Path:
        if _seq(sid) is None:  # a request's sid names no other path
            raise KeyError(f"no session {sid!r} in {self.root}")
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

    # -- submission ---------------------------------------------------------------
    def submit(self, spec: SessionSpec) -> str:
        """Accept a session: publish its directory, PENDING, under the
        next free number."""
        staging = self.root / f".submit-{os.urandom(8).hex()}"
        staging.mkdir(parents=True)
        self._write_json(staging / "spec.json", spec.to_dict())
        self._write_json(staging / "state.json",
                         {"state": "PENDING", "error": None})
        self.sessions_dir.mkdir(exist_ok=True)
        # One past the highest number on disk, torn submits of older
        # builds included; a rival submit that renames first takes it.
        seq = 1 + max((n for n in map(_seq, os.listdir(self.sessions_dir))
                       if n is not None), default=-1)
        while True:
            sid = f"s{seq:06d}"
            try:
                os.rename(staging, self.session_dir(sid))
                break
            except OSError as exc:
                if exc.errno not in (errno.EEXIST, errno.ENOTEMPTY):
                    raise
                seq += 1
        fsync_dir(self.sessions_dir)
        self.tracer.emit("serve.submit",
                         {"sid": sid, "workload": spec.workload,
                          "dataset": spec.dataset, "budget": int(spec.budget),
                          "seed": int(spec.seed),
                          "priority": int(spec.priority)})
        self.tracer.count("serve.submitted")
        return sid

    # -- reading ------------------------------------------------------------------
    def spec(self, sid: str) -> SessionSpec:
        spec = self._specs.get(sid)
        if spec is None:
            try:
                payload = self._read_json(self.session_dir(sid) / "spec.json")
            except FileNotFoundError:
                raise KeyError(f"no session {sid!r} in {self.root}") from None
            spec = self._specs[sid] = SessionSpec.from_dict(payload)
        return spec

    def _read_state(self, sid: str) -> dict[str, Any]:
        """*sid*'s ``state.json``; remembers a terminal state for good."""
        try:
            state = self._read_json(self.session_dir(sid) / "state.json")
        except FileNotFoundError:
            raise KeyError(f"no session {sid!r} in {self.root}") from None
        if state["state"] in TERMINAL_STATES:
            self._terminal[sid] = (_seq(sid), sid, state["state"])
        return state

    def state(self, sid: str) -> str:
        settled = self._terminal.get(sid)
        return settled[2] if settled else self._read_state(sid)["state"]

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
        state = self._read_state(sid)
        spec = self.spec(sid)
        result = self.result(sid)
        n_evals = None if result is None else result.get("n_stream")
        if n_evals is None:
            n_evals = len(EvaluationJournal(self.journal_path(sid)))
        view: dict[str, Any] = {
            "sid": sid, "state": state["state"], "seq": _seq(sid),
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

    def _scan(self) -> list[tuple[int, str, str]]:
        """(number, sid, state) of every published session, unordered."""
        try:
            names = os.listdir(self.sessions_dir)
        except FileNotFoundError:
            return []
        found = []
        for sid in names:
            entry = self._terminal.get(sid)
            if entry is None:
                seq = _seq(sid)
                if seq is None:
                    continue
                try:
                    entry = (seq, sid, self._read_state(sid)["state"])
                except KeyError:
                    continue  # an older build's torn submit: never published
            found.append(entry)
        return found

    def list_sessions(self) -> list[dict[str, Any]]:
        """Summaries of every stored session, in submission order."""
        out = []
        for seq, sid, state in sorted(self._scan()):
            spec = self.spec(sid)
            out.append({"sid": sid, "state": state,
                        "priority": int(spec.priority), "seq": seq,
                        "workload": spec.workload, "dataset": spec.dataset})
        return out

    def queue_depth(self) -> dict[str, int]:
        """Sessions per lifecycle state (the ``serve.queue`` payload)."""
        depth = {state: 0 for state in STATES}
        for _, _, state in self._scan():
            depth[state] += 1
        return depth

    def sessions_stamp(self) -> tuple[int, int, int] | None:
        """``sessions/``'s (inode, mtime_ns, link count), None before the
        first submit: a one-``stat`` check that a session was published
        since a claim scan."""
        try:
            st = os.stat(self.sessions_dir)
        except FileNotFoundError:
            return None
        return st.st_ino, st.st_mtime_ns, st.st_nlink

    # -- claiming -----------------------------------------------------------------
    def _lock_path(self, sid: str) -> Path:
        return self.session_dir(sid) / "lock"

    def _try_lock(self, sid: str, owner: str) -> str | None:
        """Take *sid*'s claim lock for this handle: a fresh token, or None
        while anyone else, this handle included, holds it."""
        fd = os.open(self._lock_path(sid), os.O_RDWR | os.O_CREAT, 0o644)
        token = os.urandom(8).hex()
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            # For lock_holder only: the flock, not this text, is the claim.
            os.ftruncate(fd, 0)
            os.pwrite(fd, json.dumps({"pid": os.getpid(), "owner": owner,
                                      "token": token}).encode(), 0)
        except BlockingIOError:
            os.close(fd)
            return None
        except BaseException:
            os.close(fd)
            raise
        self._held[sid] = (token, fd)
        return token

    def _unlock(self, sid: str) -> None:
        _, fd = self._held.pop(sid)
        os.close(fd)

    def lock_holder(self, sid: str) -> dict[str, Any] | None:
        """The claim lock's text while someone holds the lock, else None.

        The lock itself is probed: the kernel drops it when its holder
        exits, so a held lock has a live holder.  The probe holds the
        lock shared for an instant, and a claim scan that meets it then
        skips the session until its next scan.
        """
        path = self._lock_path(sid)
        if not _locked(path, fcntl.LOCK_SH):
            return None
        try:
            return self._read_json(path)
        except json.JSONDecodeError:
            return {}  # taken an instant ago: its text is not written yet

    def claim(self, owner: str = "worker") -> Claim | None:
        """Claim the best runnable session, or None when nothing runs.

        Candidates are PENDING sessions plus RUNNING sessions whose
        claim lock is free (their owner died or released them — adopting
        them is the crash-recovery path); ordering is highest priority
        first, then submission order.  A PENDING candidate with a cancel
        marker is settled CANCELLED here instead of being claimed.
        """
        runnable = sorted((-self.spec(sid).priority, seq, sid)
                          for seq, sid, state in self._scan()
                          if state in ("PENDING", "RUNNING"))
        for _, _, sid in runnable:
            claim = self._try_claim(sid, owner)
            if claim is not None:
                return claim
        return None

    def _try_claim(self, sid: str, owner: str) -> Claim | None:
        token = self._try_lock(sid, owner)
        if token is None:
            return None
        claim = None
        try:
            # Re-read the state now that the lock is ours: the scan's
            # read may be stale.
            state = self._read_state(sid)
            if state["state"] not in ("PENDING", "RUNNING"):
                return None
            if state["state"] == "PENDING" and self.cancel_requested(sid):
                self._transition(sid, state, "CANCELLED")
                self.tracer.count("serve.cancelled")
                return None
            resumed = (state["state"] == "RUNNING"
                       or (self.journal_path(sid).exists()
                           and self.journal_path(sid).stat().st_size > 0))
            if state["state"] == "PENDING":
                self._transition(sid, state, "RUNNING")
            claim = Claim(sid=sid, spec=self.spec(sid), token=token,
                          resumed=bool(resumed))
        finally:
            if claim is None:  # not claimed, or raised: let the lock go
                self._unlock(sid)
        self.tracer.emit("serve.claim", {"sid": sid, "owner": owner,
                                         "resumed": claim.resumed})
        self.tracer.count("serve.claims")
        if claim.resumed:
            self.tracer.emit("serve.recover", {"sid": sid})
            self.tracer.count("serve.resumed")
        return claim

    def _transition(self, sid: str, state: Mapping[str, Any], to: str, *,
                    error: str | None = None) -> None:
        frm = state["state"]
        if to not in TRANSITIONS[frm]:
            raise ValueError(f"illegal transition {frm} -> {to} for {sid}")
        payload = dict(state)
        payload["state"] = to
        payload["error"] = error
        self._write_json(self.session_dir(sid) / "state.json", payload)
        self.tracer.emit("serve.state", {"sid": sid, "from": frm, "to": to})

    # -- settling (claim-holders only) --------------------------------------------
    def _verify(self, claim: Claim) -> dict[str, Any]:
        held = self._held.get(claim.sid)
        if held is None or held[0] != claim.token:
            raise StaleClaimError(f"claim on {claim.sid} no longer holds "
                                  "the lock")
        return self._read_state(claim.sid)

    def complete(self, claim: Claim, result: Mapping[str, Any]) -> None:
        """Settle DONE: the result is durable before the state says so."""
        state = self._verify(claim)
        self._write_json(self.session_dir(claim.sid) / "result.json",
                         dict(result))
        self._transition(claim.sid, state, "DONE")
        self._unlock(claim.sid)
        self.tracer.count("serve.done")

    def fail(self, claim: Claim, error: str) -> None:
        state = self._verify(claim)
        self._transition(claim.sid, state, "FAILED", error=str(error))
        self._unlock(claim.sid)
        self.tracer.count("serve.failed")

    def cancelled(self, claim: Claim) -> None:
        state = self._verify(claim)
        self._transition(claim.sid, state, "CANCELLED")
        self._unlock(claim.sid)
        self.tracer.count("serve.cancelled")

    def release(self, claim: Claim) -> None:
        """Drop *claim*'s lock without settling it, as its holder's death
        would: the session stays RUNNING and the next claim scan adopts
        it from its journal.  A no-op once the claim no longer holds the
        lock."""
        held = self._held.get(claim.sid)
        if held is not None and held[0] == claim.token:
            self._unlock(claim.sid)

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
        if state == "PENDING" and self._try_lock(sid, "cancel") is not None:
            try:
                fresh = self._read_state(sid)
                if fresh["state"] == "PENDING":
                    self._transition(sid, fresh, "CANCELLED")
                    self.tracer.count("serve.cancelled")
            finally:
                self._unlock(sid)
            return self.state(sid)
        return "CANCELLED" if self.state(sid) == "CANCELLED" else "requested"

    # -- daemon registration ------------------------------------------------------
    @contextmanager
    def daemon_lock(self) -> Iterator[None]:
        """Hold ``daemon.lock`` shared while the block runs, as a serving
        daemon does: the kernel drops it when the block ends or the
        process dies, however it dies.  Several daemons may hold it."""
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.root / "daemon.lock", os.O_RDWR | os.O_CREAT,
                     0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_SH)
            yield
        finally:
            os.close(fd)

    def daemon_alive(self) -> bool:
        """True while a daemon holds ``daemon.lock``.  No pid is
        consulted: a dead daemon's pid may name another live process.
        The probe holds the lock alone for an instant, so two probes at
        once may see each other."""
        return _locked(self.root / "daemon.lock", fcntl.LOCK_EX)

    def write_daemon_info(self, info: Mapping[str, Any]) -> None:
        """Record the serving daemon's pid/endpoint (client discovery)."""
        self._write_json(self.root / "daemon.json", dict(info))

    def daemon_info(self) -> dict[str, Any] | None:
        try:
            return self._read_json(self.root / "daemon.json")
        except FileNotFoundError:
            return None
