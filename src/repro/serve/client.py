"""Thin service client: one call per CLI verb, transport-agnostic.

The client owns no policy — it forwards to whichever
:class:`~repro.serve.transport.Transport` it was given (file or socket)
and adds the one convenience the CLI and the tests both need:
:meth:`ServiceClient.wait`, a bounded poll for a session to reach a
terminal state.  It polls the transport's cheap ``state`` read and
fetches the full ``status`` view once, when the state is terminal.  The
reads are paced by :func:`~repro.serve.store.check_gap`: every
:data:`~repro.serve.store.TICK_S` at first, then 1/128 of the time
waited so far apart, up to ``poll_s``.  A session that settles within
a second is seen a few milliseconds after it settles, and one that
runs for minutes costs one read per ``poll_s``, as a fixed poll does.
The budget is the sum of the sleeps instead of a deadline read from a
clock, so the client stays out of the timing-sensitive code paths the
determinism lints fence off (docs/ANALYSIS.md, RPD005).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any

from .session import TERMINAL_STATES, SessionSpec
from .store import SessionStore, check_gap
from .transport import FileTransport, SocketTransport, Transport

__all__ = ["ServiceClient", "WaitTimeout"]


class WaitTimeout(TimeoutError):
    """A session did not settle within the wait budget."""


class ServiceClient:
    """Submit, watch and cancel tuning sessions on a service.

    Build one from whichever endpoint you have::

        ServiceClient.for_store("runs/serve")          # file transport
        ServiceClient.for_socket("127.0.0.1:7341")     # live daemon
        ServiceClient.for_socket("auto", store_root="runs/serve")
    """

    def __init__(self, transport: Transport) -> None:
        self.transport = transport

    @classmethod
    def for_store(cls, root: str | Path) -> "ServiceClient":
        return cls(FileTransport(SessionStore(root)))

    @classmethod
    def for_socket(cls, address: str, *,
                   store_root: str | Path | None = None,
                   timeout_s: float = 30.0) -> "ServiceClient":
        return cls(SocketTransport(address, store_root=store_root,
                                   timeout_s=timeout_s))

    # -- verbs --------------------------------------------------------------------
    def submit(self, spec: SessionSpec) -> str:
        return self.transport.submit(spec)

    def status(self, sid: str) -> dict[str, Any]:
        return self.transport.status(sid)

    def results(self, sid: str) -> dict[str, Any] | None:
        return self.transport.results(sid)

    def cancel(self, sid: str) -> str:
        return self.transport.cancel(sid)

    def list_sessions(self) -> list[dict[str, Any]]:
        return self.transport.list_sessions()

    def ping(self) -> bool:
        return self.transport.ping()

    # -- waiting ------------------------------------------------------------------
    def wait(self, sid: str, *, timeout_s: float = 300.0,
             poll_s: float = 0.25) -> dict[str, Any]:
        """Poll *sid*'s state until it settles; returns its final status
        view, the one :meth:`status` call a wait makes.

        The polls are paced by :func:`~repro.serve.store.check_gap`,
        never more than *poll_s* apart.  Raises :class:`WaitTimeout`
        once the sleeps add up to *timeout_s* without a terminal state.
        """
        waited, polls = 0.0, 0
        while True:
            state = self.transport.state(sid)
            polls += 1
            if state in TERMINAL_STATES:
                return self.status(sid)
            if waited >= timeout_s:
                raise WaitTimeout(f"session {sid} still {state} after "
                                  f"{polls} polls in {waited:.3g}s")
            gap = min(timeout_s - waited, check_gap(waited, poll_s))
            time.sleep(gap)
            waited += gap
