"""The tuning-as-a-service scheduler daemon (docs/SERVING.md).

One :class:`TuningDaemon` owns a :class:`~repro.serve.store.SessionStore`
and a fleet of session-runner threads.  Each runner loops
claim → run → settle: it claims the highest-priority runnable session
(PENDING, or RUNNING with a free claim lock — the crash-recovery case),
runs it through :func:`repro.serve.runner.run_session` with the
session's crash-safe journal, and settles DONE/FAILED/CANCELLED.
Within a session, the BO loop runs its evaluations through its one
executor, :class:`~repro.supervise.EvaluationSupervisor`, so supervised
execution (``async_workers``/``eval_timeout_s`` in the spec) applies
unchanged under the daemon: deadlines, speculation, quarantine and
redispatch of a worker death.  Any other exception from an evaluation,
a cancel's :class:`~repro.serve.session.SessionCancelled` included,
ends the session's run.

Durability contract: the daemon itself holds **no** state a kill can
lose.  Sessions live in the store (fsync'd transitions), evaluations in
per-session journals (every record flushed as it is written, every
dispatch fsync'd before its evaluation runs), so SIGKILL at any instant
loses at most the evaluations in flight, and an OS crash at most the
settles written since the last dispatch.  The journal's
:meth:`~repro.core.journal.EvaluationJournal.recovery` names both (the
dispatches no settle follows), and the next daemon's resume re-executes
them bit-identically (``recover="redispatch"``).  A session's
journal and trace are closed, which fsyncs them, before its terminal
state is written, so a settled session never names records that are
only in the page cache.

Waking: an idle worker compares the store's
:meth:`~repro.serve.store.SessionStore.sessions_stamp`, one ``stat`` of
``sessions/``, and claims as soon as it changes.  It checks every
:data:`~repro.serve.store.TICK_S` at first, then further apart the
longer it has been idle (:func:`~repro.serve.store.check_gap`), never
more than ``poll_s`` apart: a submission soon after the last change
starts within a tick, and a long-idle daemon costs a check per
``poll_s``.  A full claim scan still runs every ``poll_s``: a daemon's
death changes no file (the kernel drops its claim locks), so that
rescan is what adopts its sessions, and it also catches a change the
stamp missed.  The main loop checks the drain and ``max_sessions``
exits and emits queue depth once per ``poll_s``, and at once whenever
a worker settles a session or :meth:`~TuningDaemon.stop` is called, so
a batch daemon exits as soon as its last session settles.

Store faults: an exception from a claim scan idles the worker as a miss
does, and one from a settle releases the claim unsettled
(:meth:`~repro.serve.store.SessionStore.release`), so the next scan
adopts the session and resumes it from its journal.  A session's
:data:`SETTLE_TRIES`-th failed settle in one daemon settles it FAILED
with the settle's error instead; if that raises too, the daemon keeps
the claim, its drain check stops waiting on the session, and it
releases the claim on exit, as its death would.  Either way the worker
lives on and emits ``serve.worker_error``; only sessions that settled
count as settled.

Liveness: the daemon holds ``daemon.lock`` in the store shared while
it runs, taken before it registers in ``daemon.json``, and the kernel
drops it however the daemon ends (``ping``).  With ``socket_address``
it answers requests (:mod:`repro.serve.transport`) on a socket from a
thread of its own.

Observability: the daemon's tracer carries the ``serve.*`` event family
(queue depth, claim latency, session lifecycle — docs/OBSERVABILITY.md)
and every session attempt writes its own ``trace-<n>.jsonl`` in the
session directory: the service's metrics feed is the trace stream.
"""

from __future__ import annotations

import os
import threading
import traceback
from functools import partial
from pathlib import Path

from ..obs import JsonlTraceWriter, Tracer, as_tracer
from .runner import result_payload, run_session
from .session import SessionCancelled
from .store import Claim, SessionStore, check_gap
from .transport import serve_requests

__all__ = ["TuningDaemon", "SETTLE_TRIES"]

#: Failed settles of one session in one daemon before it is settled
#: FAILED instead of released for another attempt.
SETTLE_TRIES = 3


class TuningDaemon:
    """Schedule and execute stored tuning sessions until told to stop.

    Parameters
    ----------
    store:
        The session store (a :class:`SessionStore` or its root path).
    workers:
        Session-runner threads: how many sessions run concurrently.
    poll_s:
        Period of the daemon's slow checks: an idle worker's full claim
        rescan and the ``serve.queue`` depth event.  An idle worker does
        not wait for it to claim: it checks the sessions stamp at least
        this often, and every tick at first after a change.  Nor do the
        ``drain``/``max_sessions`` exits: every settle wakes the check.
    drain:
        Exit once no session is runnable and no runner is busy (batch
        mode for tests/CI); the default serves until :meth:`stop`.
    max_sessions:
        Exit after settling this many sessions (None = unbounded).
    recover:
        Journal recovery mode for adopted sessions (``"redispatch"``
        re-executes in-flight evaluations bit-identically,
        ``"censor"`` writes them off — see docs/ROBUSTNESS.md).
    socket_address:
        ``"host:port"``, a unix-socket path, or ``"auto"`` (bind
        127.0.0.1 on an ephemeral port); None disables the RPC server.
        The bound endpoint is registered in the store's ``daemon.json``.
    tracer:
        Daemon-level tracer for the ``serve.*`` feed (the store shares
        it); per-session traces are separate files in the session dirs.
    session_traces:
        Write a ``trace-<n>.jsonl`` per session attempt (default on).
    """

    def __init__(self, store: SessionStore | str | Path, *, workers: int = 1,
                 poll_s: float = 0.05, drain: bool = False,
                 max_sessions: int | None = None,
                 recover: str = "redispatch",
                 socket_address: str | None = None,
                 tracer=None, session_traces: bool = True) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if poll_s <= 0:
            raise ValueError("poll_s must be positive")
        if max_sessions is not None and max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.store = store if isinstance(store, SessionStore) \
            else SessionStore(store)
        self.workers = workers
        self.poll_s = poll_s
        self.drain = drain
        self.max_sessions = max_sessions
        self.recover = recover
        self.socket_address = socket_address
        self.tracer = as_tracer(tracer)
        self.store.tracer = self.tracer
        self.session_traces = session_traces
        self._stop = threading.Event()
        # Set on every settle, by a drain daemon's empty claim scans and
        # by stop(): the main loop's exit check runs then, not a poll later.
        self._wake = threading.Event()
        self._settled = 0
        self._busy = 0
        self._count_lock = threading.Lock()
        #: sid -> failed settles so far; claims kept after the last try.
        self._settle_failures: dict[str, int] = {}
        self._kept: list[Claim] = []

    # -- control ------------------------------------------------------------------
    def stop(self) -> None:
        """Ask the daemon to finish in-flight sessions and exit."""
        self._stop.set()
        self._wake.set()

    # -- main loop ----------------------------------------------------------------
    def run(self) -> int:
        """Serve until stopped/drained; returns sessions settled."""
        with self.store.daemon_lock(), \
                serve_requests(self.store, self.socket_address,
                               self.stop) as bound:
            self.store.write_daemon_info(
                {"pid": os.getpid(), "address": bound,
                 "workers": self.workers})
            threads = [threading.Thread(target=self._worker_loop,
                                        name=f"serve-worker-{i}",
                                        daemon=True)
                       for i in range(self.workers)]
            for thread in threads:
                thread.start()
            last_depth: dict | None = None
            try:
                while not self._stop.is_set():
                    depth = self.store.queue_depth()
                    if depth != last_depth:
                        self.tracer.emit("serve.queue", dict(depth))
                        last_depth = depth
                    if self._done_serving(depth):
                        break
                    # Cleared after the wait, before the next check: a
                    # settle during the check sets it again, so none is
                    # missed.
                    self._wake.wait(self.poll_s)
                    self._wake.clear()
            finally:
                self._stop.set()
                for thread in threads:
                    thread.join(timeout=30.0)
                for claim in self._kept:
                    self.store.release(claim)
        return self._settled

    def _done_serving(self, depth: dict) -> bool:
        if (self.max_sessions is not None
                and self._settled >= self.max_sessions):
            return True
        if not self.drain:
            return False
        with self._count_lock:
            busy, kept = self._busy, len(self._kept)
        return (busy == 0 and depth["PENDING"] == 0
                and depth["RUNNING"] == kept)

    # -- workers ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        owner = threading.current_thread().name
        idle_s = 0.0  # since this worker last saw the sessions stamp move
        while not self._stop.is_set():
            # Enforce --max-sessions at claim time, not just on the main
            # loop's poll tick: claims issued between ticks would
            # overshoot the cap otherwise.  The busy slot is reserved
            # under the lock BEFORE claiming so concurrent workers
            # cannot jointly overshoot.
            with self._count_lock:
                if (self.max_sessions is not None
                        and self._settled + self._busy
                        >= self.max_sessions):
                    reserved = False
                else:
                    self._busy += 1
                    reserved = True
            if not reserved:
                self._stop.wait(self.poll_s)
                continue
            stamp = self.store.sessions_stamp()
            try:
                with self.tracer.timer("serve.claim"):
                    claim = self.store.claim(owner)
            except Exception as exc:  # noqa - a store fault idles the worker
                self.tracer.emit("serve.worker_error",
                                 {"op": "claim", "error": type(exc).__name__})
                claim = None
            if claim is None:
                with self._count_lock:
                    self._busy -= 1
                if self.drain:  # the exit check may have seen this scan busy
                    self._wake.set()
                idle_s = self._await_change(stamp, idle_s)
                continue
            idle_s = 0.0
            settled = False
            try:
                settled = self._run_claim(claim)
            finally:
                with self._count_lock:
                    self._busy -= 1
                    self._settled += settled
                self._wake.set()

    def _await_change(self, stamp: tuple[int, int, int] | None,
                      idle_s: float) -> float:
        """Idle until a session is published off *stamp* (taken before
        the last claim scan, so a submit during the scan counts), the
        next rescan is due or the daemon stops.  *idle_s* is how long
        the worker has been idle, which paces its checks
        (``check_gap``); returns it updated, 0 once the stamp moved."""
        rescan_at = idle_s + self.poll_s
        while idle_s < rescan_at:
            gap = min(rescan_at - idle_s, check_gap(idle_s, self.poll_s))
            if self._stop.wait(gap):
                break
            idle_s += gap
            if self.store.sessions_stamp() != stamp:
                return 0.0
        return idle_s

    def _run_claim(self, claim: Claim) -> bool:
        """Run and settle one claimed session; False when the settle
        failed and the claim was released or kept unsettled instead
        (:meth:`_settle_failed`)."""
        sid = claim.sid
        tracer = None
        if self.session_traces:
            tracer = Tracer(
                JsonlTraceWriter(self.store.next_trace_path(sid)),
                meta={"sid": sid, "workload": claim.spec.workload,
                      "dataset": claim.spec.dataset,
                      "budget": int(claim.spec.budget),
                      "seed": int(claim.spec.seed),
                      "resumed": bool(claim.resumed)})
        try:
            try:
                # Given the journal's path, the session opens the journal
                # and closes (commits) it before it returns or raises.
                with self.tracer.span("serve.session", sid=sid,
                                      resumed=bool(claim.resumed)):
                    result = run_session(
                        claim.spec, journal=self.store.journal_path(sid),
                        resume=claim.resumed, recover=self.recover,
                        tracer=tracer,
                        should_cancel=lambda: self.store.cancel_requested(
                            sid))
            finally:
                if tracer is not None:
                    tracer.close()  # fsync'd before the settle, too
            settle = partial(self.store.complete, claim,
                             result_payload(claim.spec, result))
        except SessionCancelled:
            settle = partial(self.store.cancelled, claim)
        except Exception as exc:  # noqa - settled as FAILED with the traceback
            settle = partial(self.store.fail, claim,
                             f"{type(exc).__name__}: {exc}\n"
                             f"{traceback.format_exc()}")
        try:
            settle()
        except Exception as exc:  # noqa - the claim is released or kept
            self.tracer.emit("serve.worker_error",
                             {"op": "settle", "error": type(exc).__name__,
                              "sid": sid})
            return self._settle_failed(claim, exc)
        return True

    def _settle_failed(self, claim: Claim, exc: Exception) -> bool:
        """Release *claim* after its settle raised *exc*, or at the
        session's :data:`SETTLE_TRIES`-th failure settle it FAILED, or
        keep it until exit when that raises too.  True once settled."""
        with self._count_lock:
            failures = self._settle_failures.get(claim.sid, 0) + 1
            self._settle_failures[claim.sid] = failures
        if failures < SETTLE_TRIES:
            self.store.release(claim)
            return False
        try:
            self.store.fail(claim, f"settle failed {failures} times: "
                                   f"{type(exc).__name__}: {exc}")
        except Exception:  # noqa - released on exit, as a death releases
            with self._count_lock:
                self._kept.append(claim)
            return False
        return True
