"""Thin service client: one request per verb (docs/SERVING.md).

The client owns no policy.  Each verb becomes one request object
(:mod:`repro.serve.transport`) for the client's request function:
:func:`~repro.serve.transport.handle_request` on a store handle in this
process, or a daemon's socket.  The one convenience it adds is
:meth:`ServiceClient.wait`, which polls the cheap ``state`` read, paced
by :func:`~repro.serve.store.check_gap`, and fetches the full
``status`` view once the state is terminal.  Its budget is the sum of
its sleeps, not a deadline read from a clock, so the client stays out
of the code the determinism lints fence off (docs/ANALYSIS.md, RPD005).
"""

from __future__ import annotations

import time
from functools import partial
from pathlib import Path
from typing import Any, Callable

from .session import TERMINAL_STATES, SessionSpec
from .store import SessionStore, check_gap
from .transport import handle_request, socket_requests

__all__ = ["ServiceClient", "WaitTimeout"]


class WaitTimeout(TimeoutError):
    """A session did not settle within the wait budget."""


class ServiceClient:
    """Submit, watch and cancel tuning sessions on a service.

    *call* answers one request object with one answer object.  Build a
    client from whichever endpoint you have::

        ServiceClient.for_store("runs/serve")          # in this process
        ServiceClient.for_socket("127.0.0.1:7341")     # live daemon
        ServiceClient.for_socket("auto", store_root="runs/serve")

    A request the service refuses raises :class:`RuntimeError` carrying
    its error, whichever way it went.
    """

    def __init__(self,
                 call: Callable[[dict[str, Any]], dict[str, Any]]) -> None:
        self.call = call

    @classmethod
    def for_store(cls, root: str | Path) -> "ServiceClient":
        return cls(partial(handle_request, SessionStore(root)))

    @classmethod
    def for_socket(cls, address: str, *,
                   store_root: str | Path | None = None,
                   timeout_s: float = 30.0) -> "ServiceClient":
        """A client of the daemon at *address*: ``"host:port"``, a
        unix-socket path, or ``"auto"``, the endpoint the daemon
        registered in *store_root*'s ``daemon.json``."""
        if address == "auto":
            if store_root is None:
                raise ValueError('address="auto" needs store_root')
            info = SessionStore(store_root).daemon_info()
            if info is None or not info.get("address"):
                raise ConnectionError(
                    f"no daemon registered a socket in {store_root}")
            address = str(info["address"])
        return cls(socket_requests(address, timeout_s=timeout_s))

    def _request(self, op: str, **args: Any) -> dict[str, Any]:
        answer = self.call({"op": op, **args})
        if not answer.get("ok"):
            raise RuntimeError(answer.get("error", "request failed"))
        return answer

    # -- verbs --------------------------------------------------------------------
    def submit(self, spec: SessionSpec) -> str:
        return self._request("submit", spec=spec.to_dict())["sid"]

    def state(self, sid: str) -> str:
        return self._request("state", sid=sid)["state"]

    def status(self, sid: str) -> dict[str, Any]:
        return self._request("status", sid=sid)["view"]

    def results(self, sid: str) -> dict[str, Any] | None:
        return self._request("results", sid=sid)["result"]

    def cancel(self, sid: str) -> str:
        return self._request("cancel", sid=sid)["state"]

    def list_sessions(self) -> list[dict[str, Any]]:
        return self._request("list")["sessions"]

    def ping(self) -> bool:
        """True while a daemon serves the store (holds its
        ``daemon.lock``); False when none does or none answers."""
        try:
            return bool(self._request("ping")["alive"])
        except (OSError, RuntimeError):
            return False

    def shutdown(self) -> bool:
        """Ask the daemon on the other end of a socket to finish its
        sessions and exit."""
        return bool(self._request("shutdown")["ok"])

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
            state = self.state(sid)
            polls += 1
            if state in TERMINAL_STATES:
                return self.status(sid)
            if waited >= timeout_s:
                raise WaitTimeout(f"session {sid} still {state} after "
                                  f"{polls} polls in {waited:.3g}s")
            gap = min(timeout_s - waited, check_gap(waited, poll_s))
            time.sleep(gap)
            waited += gap
