"""Black-box harness: a real ``repro serve`` daemon subprocess.

The harness treats the service exactly like an operator would — it
spawns ``python -m repro serve --store DIR`` as a subprocess, talks to
it only through the public client, and can SIGKILL it mid-session
to exercise crash recovery, or SIGSTOP it to hold a session live for as
long as a test needs.  Nothing here imports daemon internals.

Set ``REPRO_SERVE_ARTIFACTS=/some/dir`` (the CI serve-smoke job does)
and :func:`export_artifacts` copies per-session trace summaries there
for post-mortem inspection.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.obs import load_trace, render_summary, summarize
from repro.serve import ServiceClient, SessionStore

__all__ = ["DaemonHarness", "export_artifacts", "fast_spec_kwargs"]

#: Spec knobs that keep one smoke session to a few seconds of wall clock
#: without losing any phase (selection + BO both run).
FAST_SPEC = {"budget": 6, "init_samples": 4, "selection_samples": 10,
             "selection_repeats": 2}


def fast_spec_kwargs(**overrides):
    """FAST_SPEC with per-test overrides folded in."""
    kwargs = dict(FAST_SPEC)
    kwargs.update(overrides)
    return kwargs


class DaemonHarness:
    """Run one service daemon subprocess against a store directory."""

    def __init__(self, store_root: Path, *, workers: int = 1,
                 drain: bool = False, socket: str | None = None,
                 extra_args: tuple[str, ...] = ()) -> None:
        self.store_root = Path(store_root)
        self.store = SessionStore(self.store_root)
        self.workers = workers
        self.drain = drain
        self.socket = socket
        self.extra_args = tuple(extra_args)
        self.proc: subprocess.Popen | None = None

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> "DaemonHarness":
        argv = [sys.executable, "-m", "repro", "serve",
                "--store", str(self.store_root),
                "--workers", str(self.workers)]
        if self.drain:
            argv.append("--drain")
        if self.socket:
            argv += ["--socket", self.socket]
        argv += list(self.extra_args)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(argv, env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE)
        self._await_registration()
        return self

    def _await_registration(self, attempts: int = 400,
                            poll_s: float = 0.05) -> None:
        """Wait for the daemon to write its registration (it is serving)."""
        assert self.proc is not None
        for _ in range(attempts):
            info = self.store.daemon_info()
            if info is not None and info.get("pid") == self.proc.pid:
                return
            if self.proc.poll() is not None:
                raise RuntimeError(
                    "daemon exited before registering:\n"
                    + self.proc.stderr.read().decode(errors="replace"))
            time.sleep(poll_s)
        raise RuntimeError("daemon never registered in the store")

    def wait(self, timeout_s: float = 600.0) -> int:
        """Wait for the daemon process to exit (drain mode)."""
        assert self.proc is not None
        return self.proc.wait(timeout=timeout_s)

    def stop(self, timeout_s: float = 60.0) -> int:
        """Graceful SIGTERM shutdown; SIGKILL only if it hangs."""
        assert self.proc is not None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30.0)
        self._drain_pipes()
        return self.proc.returncode

    def kill(self) -> None:
        """SIGKILL — the crash-recovery tests' hammer."""
        assert self.proc is not None
        self.proc.kill()
        self.proc.wait(timeout=30.0)
        self._drain_pipes()

    def _drain_pipes(self) -> None:
        assert self.proc is not None
        for pipe in (self.proc.stdout, self.proc.stderr):
            if pipe is not None:
                pipe.read()
                pipe.close()

    def __enter__(self) -> "DaemonHarness":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- clients ------------------------------------------------------------------
    def client(self) -> ServiceClient:
        return ServiceClient.for_store(self.store_root)

    def socket_client(self, timeout_s: float = 30.0) -> ServiceClient:
        return ServiceClient.for_socket("auto", store_root=self.store_root,
                                        timeout_s=timeout_s)

    # -- crash choreography -------------------------------------------------------
    def kill_when_journal_reaches(self, sid: str, n_lines: int, *,
                                  attempts: int = 2400,
                                  poll_s: float = 0.05) -> int:
        """SIGKILL the daemon once *sid*'s journal holds >= n_lines lines.

        Polling the journal (not a clock) makes the kill land at a
        deterministic *progress point* regardless of machine speed.
        Returns the line count observed at the kill.
        """
        return self._when_journal_reaches(sid, n_lines, self.kill,
                                          attempts, poll_s)

    def pause_when_journal_reaches(self, sid: str, n_lines: int, *,
                                   attempts: int = 2400,
                                   poll_s: float = 0.05) -> int:
        """SIGSTOP the daemon once *sid*'s journal holds >= n_lines lines.

        The session then stays claimed and RUNNING, by a daemon whose pid
        is alive, until :meth:`resume`, however fast it would otherwise
        finish.  Call :meth:`resume` in a ``finally``: a stopped process
        does not act on :meth:`stop`'s SIGTERM.  Returns the line count
        observed at the pause.
        """
        return self._when_journal_reaches(
            sid, n_lines, lambda: self.proc.send_signal(signal.SIGSTOP),
            attempts, poll_s)

    def resume(self) -> None:
        """SIGCONT a daemon paused by :meth:`pause_when_journal_reaches`."""
        assert self.proc is not None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGCONT)

    def _when_journal_reaches(self, sid: str, n_lines: int, act,
                              attempts: int, poll_s: float) -> int:
        path = self.store.journal_path(sid)
        for _ in range(attempts):
            if path.exists():
                lines = path.read_text().count("\n")
                if lines >= n_lines:
                    act()
                    return lines
            if self.proc is not None and self.proc.poll() is not None:
                raise RuntimeError("daemon exited before the progress point")
            time.sleep(poll_s)
        raise RuntimeError(
            f"journal for {sid} never reached {n_lines} lines")


def export_artifacts(store: SessionStore,
                     dest: str | None = None) -> list[Path]:
    """Render per-session trace summaries into *dest* (or $REPRO_SERVE_ARTIFACTS).

    No-op (returns []) when neither is set, so tests call it
    unconditionally and only CI pays the cost.
    """
    dest = dest or os.environ.get("REPRO_SERVE_ARTIFACTS")
    if not dest:
        return []
    out_dir = Path(dest)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for entry in store.list_sessions():
        sid = entry["sid"]
        for trace in sorted(store.session_dir(sid).glob("trace-*.jsonl")):
            try:
                text = render_summary(summarize(load_trace(trace)))
            except (ValueError, KeyError) as exc:
                text = f"unrenderable trace {trace.name}: {exc}"
            out = out_dir / f"{sid}-{trace.stem}.txt"
            out.write_text(f"session {sid} [{entry['state']}]\n{text}\n")
            written.append(out)
    return written
