"""One request protocol between service clients and a session store.

A request is a JSON object naming an ``op`` and its arguments; the
answer is one object, ``{"ok": true, ...}`` or ``{"ok": false, "error":
...}``.  :func:`handle_request` is the only server side.  A
:class:`~repro.serve.client.ServiceClient` reaches it either in its own
process (``for_store``: no daemon needs to be listening, since a daemon
notices a submission when its session directory appears) or over a
daemon's socket (``for_socket``): one newline-framed JSON line per
connection, over TCP (``host:port``) or a unix socket (a path), to the
server :func:`serve_requests` runs, which answers with one line.

``state`` reads a session's small ``state.json``: it is what a waiting
client polls.  ``status`` builds the full view, which may count the
session's journal.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from .session import SessionSpec
from .store import SessionStore

__all__ = ["parse_address", "handle_request", "socket_requests",
           "serve_requests"]

#: Max bytes of one request line, newline included: a daemon answers a
#: longer one with an error, unread.
_MAX_LINE = 1 << 20


def _too_long() -> dict[str, Any]:
    """The refusal of a request line longer than :data:`_MAX_LINE`."""
    return {"ok": False, "error": f"bad request: longer than {_MAX_LINE} bytes"}


def parse_address(text: str) -> tuple[str, Any]:
    """``host:port`` → ``("tcp", (host, port))``; else a unix-socket path."""
    if ":" in text:
        host, _, port = text.rpartition(":")
        try:
            return "tcp", (host or "127.0.0.1", int(port))
        except ValueError:
            pass  # not a port number: treat the whole text as a path
    return "unix", text


def handle_request(store: SessionStore, request: Any, *,
                   stop: Callable[[], None] | None = None) -> dict[str, Any]:
    """Serve one decoded *request* against *store*.  *stop* ends the
    daemon that serves the request (the ``shutdown`` op); a request
    served in the client's own process has none."""
    if not isinstance(request, dict):
        return {"ok": False, "error": "bad request: not a JSON object"}
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
        if op == "ping":
            return {"ok": True, "alive": store.daemon_alive()}
        if op == "shutdown" and stop is not None:
            stop()
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {op!r}"}
    except (KeyError, ValueError, TypeError, FileNotFoundError) as exc:
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


def socket_requests(address: str, *, timeout_s: float = 30.0
                    ) -> Callable[[dict[str, Any]], dict[str, Any]]:
    """A request function for the daemon at *address*: each request is
    one line on a connection of its own, answered by one line."""
    family, endpoint = parse_address(address)

    def call(request: dict[str, Any]) -> dict[str, Any]:
        data = json.dumps(request).encode() + b"\n"
        if len(data) > _MAX_LINE:
            # The daemon's answer, given here: it stops reading a line past
            # _MAX_LINE, so sending the rest would end in a broken pipe.
            return _too_long()
        sock = socket.socket(
            socket.AF_INET if family == "tcp" else socket.AF_UNIX,
            socket.SOCK_STREAM)
        with sock, sock.makefile("rb") as answers:
            sock.settimeout(timeout_s)
            sock.connect(endpoint)
            sock.sendall(data)
            line = answers.readline()
        if not line.endswith(b"\n"):
            raise ConnectionError("the daemon closed the connection "
                                  "mid-request")
        return json.loads(line)
    return call


class _LineHandler(socketserver.StreamRequestHandler):
    """One connection: one request line in, one answer line out."""

    timeout = 5.0  # seconds a client may take over its request line

    def handle(self) -> None:
        try:
            line = self.rfile.readline(_MAX_LINE + 1)
            if line:
                answer = self.server.answer(line)
                self.wfile.write(json.dumps(answer).encode() + b"\n")
        except OSError:
            pass  # the client went away mid-exchange: nothing to settle


class _RequestServer(socketserver.TCPServer):
    """Answers request lines against one store, a connection at a time.

    A handler that raises is reported by ``handle_error`` and the server
    goes on serving."""

    allow_reuse_address = True
    request_queue_size = 16

    def __init__(self, family: str, endpoint: Any, store: SessionStore,
                 stop: Callable[[], None]) -> None:
        if family == "unix":
            self.address_family = socket.AF_UNIX
            Path(endpoint).unlink(missing_ok=True)
        super().__init__(endpoint, _LineHandler)
        self.store, self.stop = store, stop

    def answer(self, line: bytes) -> dict[str, Any]:
        if len(line) > _MAX_LINE:
            return _too_long()
        try:
            request = json.loads(line)
        except ValueError as exc:  # not JSON, or not UTF-8
            return {"ok": False, "error": f"bad request: {exc}"}
        return handle_request(self.store, request, stop=self.stop)


@contextmanager
def serve_requests(store: SessionStore, address: str | None,
                   stop: Callable[[], None]) -> Iterator[str | None]:
    """Answer requests against *store* on *address* from a thread of
    their own while the block runs; yields the bound address.

    *address* is ``"host:port"``, a unix-socket path, or ``"auto"``
    (127.0.0.1 on an ephemeral port); None serves nothing and yields
    None.  *stop* is what the ``shutdown`` op calls.
    """
    if address is None:
        yield None
        return
    family, endpoint = (("tcp", ("127.0.0.1", 0)) if address == "auto"
                        else parse_address(address))
    with _RequestServer(family, endpoint, store, stop) as server:
        threading.Thread(target=server.serve_forever, args=(0.2,),
                         name="serve-rpc", daemon=True).start()
        try:
            if family == "tcp":
                host, port = server.server_address[:2]
                yield f"{host}:{port}"
            else:
                yield str(endpoint)
        finally:
            server.shutdown()
