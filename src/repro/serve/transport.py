"""Client⇄service transports behind one :class:`Transport` protocol.

Two implementations, one contract:

* :class:`FileTransport` operates directly on a shared
  :class:`~repro.serve.store.SessionStore` directory.  No daemon needs
  to be listening for ``submit``/``state``/``status``/``results``/
  ``cancel`` to work — the daemon notices a submission when a session
  directory appears in the store — so the file transport is also the
  service's offline/degraded mode.
* :class:`SocketTransport` speaks a newline-delimited JSON request/
  response protocol to a live daemon over TCP (``host:port``) or a unix
  domain socket (a filesystem path).  ``address="auto"`` reads the
  endpoint the daemon registered in the store's ``daemon.json``.

The wire protocol is deliberately tiny: one request object per
connection, one response object back (``{"ok": true, ...}`` or
``{"ok": false, "error": ...}``).  :func:`handle_request` implements the
server side against a store so the daemon and the tests share it.

Two reads differ in cost.  ``state`` returns a session's lifecycle
state from its small ``state.json``; it is what a waiting client polls.
``status`` builds the full view, which counts the session's journal.
"""

from __future__ import annotations

import json
import os
import socket
from pathlib import Path
from typing import Any, Protocol

from .session import SessionSpec
from .store import SessionStore

__all__ = ["Transport", "FileTransport", "SocketTransport",
           "parse_address", "handle_request"]

#: Max bytes of one framed request/response line.
_MAX_LINE = 1 << 20


class Transport(Protocol):
    """What every client⇄service transport must provide."""

    def submit(self, spec: SessionSpec) -> str: ...

    def state(self, sid: str) -> str: ...

    def status(self, sid: str) -> dict[str, Any]: ...

    def results(self, sid: str) -> dict[str, Any] | None: ...

    def cancel(self, sid: str) -> str: ...

    def list_sessions(self) -> list[dict[str, Any]]: ...

    def ping(self) -> bool: ...


class FileTransport:
    """Transport over a shared store directory (no daemon required)."""

    def __init__(self, store: SessionStore | str | Path) -> None:
        self.store = store if isinstance(store, SessionStore) \
            else SessionStore(store)

    def submit(self, spec: SessionSpec) -> str:
        return self.store.submit(spec)

    def state(self, sid: str) -> str:
        return self.store.state(sid)

    def status(self, sid: str) -> dict[str, Any]:
        return self.store.view(sid)

    def results(self, sid: str) -> dict[str, Any] | None:
        return self.store.result(sid)

    def cancel(self, sid: str) -> str:
        return self.store.cancel(sid)

    def list_sessions(self) -> list[dict[str, Any]]:
        return self.store.list_sessions()

    def ping(self) -> bool:
        """True when a registered daemon process is alive."""
        info = self.store.daemon_info()
        if info is None:
            return False
        try:
            os.kill(int(info.get("pid", 0)), 0)
        except (ProcessLookupError, ValueError):
            return False
        except PermissionError:  # pragma: no cover - other-user daemon
            return True
        return True


def parse_address(text: str) -> tuple[str, Any]:
    """``host:port`` → ``("tcp", (host, port))``; else a unix-socket path."""
    if ":" in text:
        host, _, port = text.rpartition(":")
        try:
            return "tcp", (host or "127.0.0.1", int(port))
        except ValueError:
            pass  # not a port number: treat the whole text as a path
    return "unix", text


def handle_request(store: SessionStore,
                   request: dict[str, Any]) -> dict[str, Any]:
    """Serve one decoded request against *store* (the daemon's side)."""
    op = request.get("op")
    try:
        if op == "submit":
            spec = SessionSpec.from_dict(request["spec"])
            return {"ok": True, "sid": store.submit(spec)}
        if op == "state":
            return {"ok": True, "state": store.state(request["sid"])}
        if op == "status":
            return {"ok": True, "view": store.view(request["sid"])}
        if op == "results":
            return {"ok": True, "result": store.result(request["sid"])}
        if op == "cancel":
            return {"ok": True, "state": store.cancel(request["sid"])}
        if op == "list":
            return {"ok": True, "sessions": store.list_sessions()}
        if op in ("ping", "shutdown"):
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {op!r}"}
    except (KeyError, ValueError, TypeError, FileNotFoundError) as exc:
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


class SocketTransport:
    """Transport to a live daemon over TCP or a unix domain socket.

    Parameters
    ----------
    address:
        ``"host:port"``, a unix-socket path, or ``"auto"`` (resolve from
        the daemon registration in *store_root*'s ``daemon.json``).
    store_root:
        Needed only for ``address="auto"``.
    timeout_s:
        Per-request socket timeout.
    """

    def __init__(self, address: str, *, store_root: str | Path | None = None,
                 timeout_s: float = 30.0) -> None:
        if address == "auto":
            if store_root is None:
                raise ValueError('address="auto" needs store_root')
            info = SessionStore(store_root).daemon_info()
            if info is None or not info.get("address"):
                raise ConnectionError(
                    f"no daemon registered a socket in {store_root}")
            address = str(info["address"])
        self.family, self.endpoint = parse_address(address)
        self.timeout_s = float(timeout_s)

    # -- wire ---------------------------------------------------------------------
    def _call(self, request: dict[str, Any]) -> dict[str, Any]:
        if self.family == "tcp":
            sock = socket.create_connection(self.endpoint,
                                            timeout=self.timeout_s)
        else:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout_s)
            sock.connect(self.endpoint)
        try:
            sock.sendall(json.dumps(request).encode() + b"\n")
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
                if chunk.endswith(b"\n") or sum(map(len, chunks)) > _MAX_LINE:
                    break
        finally:
            sock.close()
        raw = b"".join(chunks)
        if not raw:
            raise ConnectionError("daemon closed the connection mid-request")
        response = json.loads(raw.decode())
        if not response.get("ok"):
            raise RuntimeError(response.get("error", "request failed"))
        return response

    # -- Transport protocol -------------------------------------------------------
    def submit(self, spec: SessionSpec) -> str:
        return self._call({"op": "submit", "spec": spec.to_dict()})["sid"]

    def state(self, sid: str) -> str:
        return self._call({"op": "state", "sid": sid})["state"]

    def status(self, sid: str) -> dict[str, Any]:
        return self._call({"op": "status", "sid": sid})["view"]

    def results(self, sid: str) -> dict[str, Any] | None:
        return self._call({"op": "results", "sid": sid})["result"]

    def cancel(self, sid: str) -> str:
        return self._call({"op": "cancel", "sid": sid})["state"]

    def list_sessions(self) -> list[dict[str, Any]]:
        return self._call({"op": "list"})["sessions"]

    def ping(self) -> bool:
        try:
            return bool(self._call({"op": "ping"})["ok"])
        except (OSError, RuntimeError):
            return False

    def shutdown(self) -> bool:
        """Ask the daemon to drain and exit (tests and operators)."""
        return bool(self._call({"op": "shutdown"})["ok"])
