"""The tuning-as-a-service scheduler daemon (docs/SERVING.md).

One :class:`TuningDaemon` owns a :class:`~repro.serve.store.SessionStore`
and a fleet of session-runner threads.  Each runner loops
claim → run → settle: it claims the highest-priority runnable session
(PENDING, or RUNNING-with-a-dead-owner — the crash-recovery case), runs
it through :func:`repro.serve.runner.run_session` with the session's
crash-safe journal, and settles DONE/FAILED/CANCELLED.  Within a
session, supervised execution (``async_workers``/``eval_timeout_s`` in
the spec) claims individual evaluations through the existing
:class:`~repro.supervise.EvaluationSupervisor`/`WorkerPool` path, so
deadlines, speculation, quarantine and redispatch-on-death all apply
unchanged under the daemon.

Durability contract: the daemon itself holds **no** state a kill can
lose.  Sessions live in the store (fsync'd transitions), evaluations in
per-session journals (fsync'd dispatch/settle pairs), so SIGKILL at any
instant loses at most the evaluations in flight — which journal-v2
``pending_dispatches()`` recovery re-executes bit-identically on the
next daemon's resume (``recover="redispatch"``).

Observability: the daemon's tracer carries the ``serve.*`` event family
(queue depth, claim latency, session lifecycle — docs/OBSERVABILITY.md)
and every session attempt writes its own ``trace-<n>.jsonl`` in the
session directory: the service's metrics feed is the trace stream.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import traceback
from pathlib import Path

from ..core.journal import EvaluationJournal
from ..obs import JsonlTraceWriter, Tracer, as_tracer
from .runner import result_payload, run_session
from .session import SessionCancelled
from .store import Claim, SessionStore
from .transport import handle_request, parse_address

__all__ = ["TuningDaemon"]


class TuningDaemon:
    """Schedule and execute stored tuning sessions until told to stop.

    Parameters
    ----------
    store:
        The session store (a :class:`SessionStore` or its root path).
    workers:
        Session-runner threads: how many sessions run concurrently.
    poll_s:
        Idle claim-poll interval.
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
        self._settled = 0
        self._busy = 0
        self._count_lock = threading.Lock()
        self._server_sock: socket.socket | None = None

    # -- control ------------------------------------------------------------------
    def stop(self) -> None:
        """Ask the daemon to finish in-flight sessions and exit."""
        self._stop.set()

    # -- main loop ----------------------------------------------------------------
    def run(self) -> int:
        """Serve until stopped/drained; returns sessions settled."""
        bound = self._start_rpc_server()
        self.store.write_daemon_info(
            {"pid": os.getpid(), "address": bound,
             "workers": self.workers})
        threads = [threading.Thread(target=self._worker_loop,
                                    name=f"serve-worker-{i}", daemon=True)
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
                    self._stop.set()
                    break
                self._stop.wait(self.poll_s)
        finally:
            self._stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
            self._close_rpc_server()
        return self._settled

    def _done_serving(self, depth: dict) -> bool:
        if (self.max_sessions is not None
                and self._settled >= self.max_sessions):
            return True
        if not self.drain:
            return False
        with self._count_lock:
            busy = self._busy
        return busy == 0 and depth["PENDING"] == 0 and depth["RUNNING"] == 0

    # -- workers ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        owner = threading.current_thread().name
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
            with self.tracer.timer("serve.claim"):
                claim = self.store.claim(owner)
            if claim is None:
                with self._count_lock:
                    self._busy -= 1
                self._stop.wait(self.poll_s)
                continue
            try:
                self._run_claim(claim)
            finally:
                with self._count_lock:
                    self._busy -= 1
                    self._settled += 1

    def _run_claim(self, claim: Claim) -> None:
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
        journal = EvaluationJournal(self.store.journal_path(sid))
        try:
            with self.tracer.span("serve.session", sid=sid,
                                  resumed=bool(claim.resumed)):
                result = run_session(
                    claim.spec, journal=journal, resume=claim.resumed,
                    recover=self.recover, tracer=tracer,
                    should_cancel=lambda: self.store.cancel_requested(sid))
            self.store.complete(claim, result_payload(claim.spec, result))
        except SessionCancelled:
            self.store.cancelled(claim)
        except Exception as exc:  # noqa - settled as FAILED with the traceback
            self.store.fail(claim, f"{type(exc).__name__}: {exc}\n"
                                   f"{traceback.format_exc()}")
        finally:
            journal.close()
            if tracer is not None:
                tracer.close()

    # -- RPC server ---------------------------------------------------------------
    def _start_rpc_server(self) -> str | None:
        if self.socket_address is None:
            return None
        if self.socket_address == "auto":
            family, endpoint = "tcp", ("127.0.0.1", 0)
        else:
            family, endpoint = parse_address(self.socket_address)
        if family == "tcp":
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(endpoint)
            host, port = sock.getsockname()[:2]
            bound = f"{host}:{port}"
        else:
            Path(endpoint).unlink(missing_ok=True)
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.bind(endpoint)
            bound = str(endpoint)
        sock.listen(16)
        sock.settimeout(0.2)
        self._server_sock = sock
        thread = threading.Thread(target=self._serve_rpc, name="serve-rpc",
                                  daemon=True)
        thread.start()
        return bound

    def _serve_rpc(self) -> None:
        assert self._server_sock is not None
        while not self._stop.is_set():
            try:
                conn, _ = self._server_sock.accept()
            except TimeoutError:
                continue
            except OSError:
                return  # socket closed during shutdown
            try:
                self._handle_conn(conn)
            finally:
                conn.close()

    def _handle_conn(self, conn: socket.socket) -> None:
        conn.settimeout(5.0)
        chunks: list[bytes] = []
        try:
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
                if chunk.endswith(b"\n"):
                    break
            raw = b"".join(chunks)
            if not raw:
                return
            try:
                request = json.loads(raw.decode())
            except json.JSONDecodeError as exc:
                response = {"ok": False, "error": f"bad request: {exc}"}
            else:
                response = handle_request(self.store, request)
                if request.get("op") == "shutdown":
                    self._stop.set()
            conn.sendall(json.dumps(response).encode() + b"\n")
        except OSError:
            return  # client went away mid-exchange; nothing to settle

    def _close_rpc_server(self) -> None:
        if self._server_sock is not None:
            self._server_sock.close()
            self._server_sock = None
