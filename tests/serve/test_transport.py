"""The request protocol: address parsing, request dispatch, and every
verb through both channels, the caller's own process and a daemon's
socket."""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager

import pytest

from repro.serve import (ServiceClient, SessionSpec, SessionStore,
                         TuningDaemon, handle_request, parse_address)
from repro.serve import transport as transport_module
from repro.serve.transport import _MAX_LINE, socket_requests

SPEC = SessionSpec(workload="pagerank", budget=6, seed=0, init_samples=4,
                   selection_samples=10, selection_repeats=2)
UNKNOWN = "s999999"


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("127.0.0.1:7341") == ("tcp",
                                                   ("127.0.0.1", 7341))

    def test_bare_port_defaults_host(self):
        assert parse_address(":7341") == ("tcp", ("127.0.0.1", 7341))

    def test_paths_are_unix_sockets(self):
        assert parse_address("/tmp/serve.sock") == ("unix",
                                                    "/tmp/serve.sock")
        # A colon inside a path with a non-numeric tail is still a path.
        assert parse_address("/tmp/a:b.sock") == ("unix", "/tmp/a:b.sock")


class TestHandleRequest:
    def test_submit_status_cancel_round_trip(self, tmp_path):
        store = SessionStore(tmp_path / "store")
        response = handle_request(store, {"op": "submit",
                                          "spec": SPEC.to_dict()})
        assert response["ok"]
        sid = response["sid"]
        view = handle_request(store, {"op": "status", "sid": sid})["view"]
        assert view["state"] == "PENDING"
        assert handle_request(store, {"op": "cancel",
                                      "sid": sid})["state"] == "CANCELLED"
        sessions = handle_request(store, {"op": "list"})["sessions"]
        assert [s["sid"] for s in sessions] == [sid]

    def test_state_op_reads_the_lifecycle_state(self, tmp_path):
        store = SessionStore(tmp_path / "store")
        sid = store.submit(SPEC)
        assert handle_request(store, {"op": "state", "sid": sid}) == {
            "ok": True, "state": "PENDING"}
        store.cancel(sid)
        assert handle_request(store, {"op": "state",
                                      "sid": sid})["state"] == "CANCELLED"
        unknown = handle_request(store, {"op": "state",
                                         "sid": "s999999-ffffffff"})
        assert unknown["ok"] is False and "KeyError" in unknown["error"]

    def test_results_before_settle_is_null(self, tmp_path):
        store = SessionStore(tmp_path / "store")
        sid = store.submit(SPEC)
        assert handle_request(store, {"op": "results",
                                      "sid": sid})["result"] is None

    def test_a_sid_names_a_session_directory_only(self, tmp_path):
        store = SessionStore(tmp_path / "store")
        other = SessionStore(tmp_path / "other")
        sid = other.submit(SPEC)
        outside = f"../../other/sessions/{sid}"
        for op in ("state", "status", "results", "cancel"):
            answer = handle_request(store, {"op": op, "sid": outside})
            assert answer["ok"] is False and "KeyError" in answer["error"]
        assert other.state(sid) == "PENDING"
        assert not other.cancel_requested(sid)

    @pytest.mark.parametrize("request_", [
        {"op": "bogus"},
        {"op": "status", "sid": "s999999-ffffffff"},
        {"op": "submit", "spec": {"workload": ""}},
        {"op": "submit", "spec": {"workload": "pagerank", "nope": 1}},
        {},
        [],
        "ping",
        None,
        {"op": "state", "sid": ["s000000"]},
        {"op": "shutdown"},  # no daemon serves a request in this process
    ])
    def test_bad_requests_are_errors_not_exceptions(self, tmp_path,
                                                    request_):
        store = SessionStore(tmp_path / "store")
        response = handle_request(store, request_)
        assert response["ok"] is False
        assert response["error"]


@contextmanager
def serve(store, *, claims=True):
    """Run an in-process daemon with a socket on *store*: yields it once
    it has registered, and stops it after.  Without *claims* it answers
    requests but runs no session, so every state it reports stays put."""
    if not claims:
        store = SessionStore(store.root)
        store.claim = lambda owner="worker": None
    daemon = TuningDaemon(store, workers=1, poll_s=0.02,
                          socket_address="auto", session_traces=False)
    thread = threading.Thread(target=daemon.run, daemon=True)
    thread.start()
    for _ in range(400):
        info = store.daemon_info()
        if info is not None and info.get("address"):
            break
        time.sleep(0.02)
    try:
        yield daemon
    finally:
        daemon.stop()
        thread.join(timeout=30)
        assert not thread.is_alive()


@pytest.fixture()
def store(tmp_path):
    return SessionStore(tmp_path / "store")


@pytest.fixture()
def live_daemon(store):
    """An in-process daemon serving *store* over a socket."""
    with serve(store) as daemon:
        yield daemon


@pytest.fixture()
def held_daemon(store):
    """An in-process daemon that answers requests on *store* and claims
    no session."""
    with serve(store, claims=False) as daemon:
        yield daemon


CHANNELS = {
    "for_store": lambda root: ServiceClient.for_store(root),
    "for_socket": lambda root: ServiceClient.for_socket("auto",
                                                        store_root=root),
}


@pytest.fixture(params=sorted(CHANNELS))
def channel(request):
    """Builds a client of a store, by one channel or the other."""
    return CHANNELS[request.param]


class TestVerbs:
    """Every verb answers alike on both channels: what the store itself
    answers, and the same error for a session that does not exist."""

    def test_every_verb_answers_as_the_store_does(self, store, held_daemon,
                                                  channel):
        client = channel(store.root)
        assert client.ping() is True
        sid = client.submit(SPEC)
        assert sid == "s000000"
        reference = SessionStore(store.root)
        assert client.state(sid) == "PENDING"
        assert client.status(sid) == reference.view(sid)
        assert client.results(sid) is None
        assert client.list_sessions() == reference.list_sessions()
        assert client.cancel(sid) == "CANCELLED"
        assert client.state(sid) == "CANCELLED"
        assert client.status(sid) == reference.view(sid)
        assert client.cancel(sid) == "CANCELLED"  # settled: left alone

    @pytest.mark.parametrize("verb", ["state", "status", "cancel"])
    def test_an_unknown_sid_raises_the_same_error(self, store, held_daemon,
                                                  channel, verb):
        client = channel(store.root)
        with pytest.raises(RuntimeError) as raised:
            getattr(client, verb)(UNKNOWN)
        assert str(raised.value) == (
            f"KeyError: \"no session '{UNKNOWN}' in {store.root}\"")

    def test_wait_on_a_served_session(self, store, live_daemon, channel):
        client = channel(store.root)
        sid = client.submit(SPEC)
        view = client.wait(sid, timeout_s=120)
        assert view["state"] == "DONE"
        assert client.state(sid) == "DONE"
        assert client.results(sid) == view["result"] == store.result(sid)


class TestPing:
    def test_a_live_pid_without_the_lock_is_no_daemon(self, store):
        # A dead daemon's pid may name another live process by now.
        store.write_daemon_info({"pid": os.getppid(), "address": None,
                                 "workers": 1})
        assert ServiceClient.for_store(store.root).ping() is False

    def test_false_on_both_channels_once_the_daemon_stops(self, store):
        with serve(store):
            clients = [channel(store.root) for channel in CHANNELS.values()]
            assert [client.ping() for client in clients] == [True, True]
        assert [client.ping() for client in clients] == [False, False]


class TestRequestLines:
    """A daemon answers a line it cannot serve with an error and goes on
    serving."""

    @pytest.mark.parametrize("request_", [
        [],
        {"op": "ping", "pad": "x" * _MAX_LINE},
    ], ids=["not-an-object", "past-max-line"])
    def test_refused_and_serving_goes_on(self, store, live_daemon,
                                         request_):
        call = socket_requests(store.daemon_info()["address"])
        answer = call(request_)
        assert answer["ok"] is False and answer["error"]
        client = ServiceClient.for_socket("auto", store_root=store.root)
        sid = client.submit(SPEC)
        assert client.status(sid)["sid"] == sid

    def test_a_4_mib_line_gets_the_refusal_not_a_broken_pipe(
            self, store, live_daemon):
        """Past what the socket buffers absorb, a client that sent the
        whole line mostly broke its pipe on the daemon's early close; the
        refusal is given without connecting."""
        call = socket_requests(store.daemon_info()["address"])
        refusal = {"ok": False,
                   "error": f"bad request: longer than {_MAX_LINE} bytes"}
        for _ in range(5):
            assert call({"op": "ping", "pad": "x" * (4 << 20)}) == refusal
        client = ServiceClient.for_socket("auto", store_root=store.root)
        for _ in range(5):
            with pytest.raises(RuntimeError, match="longer than"):
                client.state("s" * (4 << 20))
        assert client.ping()

    def test_a_handler_that_raises_ends_no_serving(self, store, live_daemon,
                                                   monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("injected handler fault")
        call = socket_requests(store.daemon_info()["address"])
        monkeypatch.setattr(transport_module, "handle_request", broken)
        with pytest.raises(ConnectionError, match="mid-request"):
            call({"op": "list"})
        monkeypatch.undo()
        assert call({"op": "list"}) == {"ok": True, "sessions": []}


class TestSocketTransport:
    """``ServiceClient.for_socket`` beyond the verbs: the socket channel
    of :mod:`repro.serve.transport` (``auto`` discovery, ``shutdown``)."""

    def test_shutdown_stops_the_daemon(self, store, live_daemon):
        client = ServiceClient.for_socket("auto", store_root=store.root)
        assert client.shutdown()
        for _ in range(400):
            if live_daemon._stop.is_set():
                break
            time.sleep(0.02)
        assert live_daemon._stop.is_set()

    def test_auto_without_registration_fails_loudly(self, tmp_path):
        with pytest.raises(ConnectionError, match="no daemon"):
            ServiceClient.for_socket("auto", store_root=tmp_path / "empty")

    def test_auto_needs_store_root(self):
        with pytest.raises(ValueError, match="store_root"):
            ServiceClient.for_socket("auto")
