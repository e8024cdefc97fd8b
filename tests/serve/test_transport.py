"""Transport tests: address parsing, request dispatch, both transports."""

from __future__ import annotations

import threading
import time

import pytest

from repro.serve import (FileTransport, ServiceClient, SessionSpec,
                         SessionStore, SocketTransport, TuningDaemon,
                         handle_request, parse_address)

SPEC = SessionSpec(workload="pagerank", budget=6, seed=0, init_samples=4,
                   selection_samples=10, selection_repeats=2)


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

    @pytest.mark.parametrize("request_", [
        {"op": "bogus"},
        {"op": "status", "sid": "s999999-ffffffff"},
        {"op": "submit", "spec": {"workload": ""}},
        {"op": "submit", "spec": {"workload": "pagerank", "nope": 1}},
        {},
    ])
    def test_bad_requests_are_errors_not_exceptions(self, tmp_path,
                                                    request_):
        store = SessionStore(tmp_path / "store")
        response = handle_request(store, request_)
        assert response["ok"] is False
        assert response["error"]


class TestFileTransport:
    def test_full_verb_surface(self, tmp_path):
        transport = FileTransport(tmp_path / "store")
        assert transport.ping() is False  # no daemon registered
        sid = transport.submit(SPEC)
        assert transport.state(sid) == "PENDING"
        assert transport.status(sid)["state"] == "PENDING"
        assert transport.results(sid) is None
        assert transport.cancel(sid) == "CANCELLED"
        assert len(transport.list_sessions()) == 1

    def test_ping_requires_a_live_pid(self, tmp_path):
        transport = FileTransport(tmp_path / "store")
        transport.store.write_daemon_info({"pid": 2 ** 22 + 1})
        assert transport.ping() is False


class TestSocketTransport:
    @pytest.fixture()
    def live_daemon(self, tmp_path):
        """An idle in-process daemon with its RPC server up."""
        store = SessionStore(tmp_path / "store")
        daemon = TuningDaemon(store, workers=1, poll_s=0.02,
                              socket_address="auto", session_traces=False)
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        for _ in range(400):
            info = store.daemon_info()
            if info is not None and info.get("address"):
                break
            time.sleep(0.02)
        yield store, daemon
        daemon.stop()
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_verbs_over_the_wire(self, live_daemon):
        store, daemon = live_daemon
        transport = SocketTransport("auto", store_root=store.root)
        assert transport.ping()
        sid = transport.submit(SPEC)
        view = transport.status(sid)
        assert view["sid"] == sid
        assert [s["sid"] for s in transport.list_sessions()] == [sid]
        # Unknown sid surfaces as a RuntimeError carrying the server error.
        with pytest.raises(RuntimeError, match="KeyError"):
            transport.status("s999999-ffffffff")

    def test_state_over_the_wire_and_wait_on_it(self, live_daemon):
        store, daemon = live_daemon
        transport = SocketTransport("auto", store_root=store.root)
        sid = transport.submit(SPEC)
        assert transport.state(sid) in ("PENDING", "RUNNING", "DONE")
        view = ServiceClient(transport).wait(sid, timeout_s=120)
        assert view["state"] == "DONE"
        assert transport.state(sid) == "DONE"
        with pytest.raises(RuntimeError, match="KeyError"):
            transport.state("s999999-ffffffff")

    def test_shutdown_stops_the_daemon(self, live_daemon):
        store, daemon = live_daemon
        transport = SocketTransport("auto", store_root=store.root)
        assert transport.shutdown()
        for _ in range(400):
            if daemon._stop.is_set():
                break
            time.sleep(0.02)
        assert daemon._stop.is_set()

    def test_auto_without_registration_fails_loudly(self, tmp_path):
        with pytest.raises(ConnectionError, match="no daemon"):
            SocketTransport("auto", store_root=tmp_path / "empty")

    def test_auto_needs_store_root(self):
        with pytest.raises(ValueError, match="store_root"):
            SocketTransport("auto")
