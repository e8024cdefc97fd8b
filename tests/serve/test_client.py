"""ServiceClient.wait: cheap state polls, one status view."""

from __future__ import annotations

import pytest

from repro.serve import ServiceClient, WaitTimeout
from repro.serve import client as client_module
from repro.serve.store import TICK_S, WAIT_SHARE


class CountingRequests:
    """A fake request function whose session walks through *states*,
    one per ``state`` request, and that counts the requests per op."""

    def __init__(self, states):
        self.states = list(states)
        self.calls = {"state": 0, "status": 0}

    def __call__(self, request):
        op = request["op"]
        self.calls[op] += 1
        if op == "state":
            n = min(self.calls["state"], len(self.states))
            return {"ok": True, "state": self.states[n - 1]}
        return {"ok": True,
                "view": {"sid": request["sid"], "state": self.states[-1]}}


class TestWait:
    def test_polls_state_and_fetches_status_once(self):
        requests = CountingRequests(
            ["PENDING", "PENDING", "RUNNING", "RUNNING", "DONE"])
        view = ServiceClient(requests).wait("s1", poll_s=0.001)
        assert view == {"sid": "s1", "state": "DONE"}
        assert requests.calls == {"state": 5, "status": 1}

    @pytest.mark.parametrize("terminal", ["FAILED", "CANCELLED"])
    def test_every_terminal_state_ends_the_wait(self, terminal):
        requests = CountingRequests(["RUNNING", terminal])
        assert ServiceClient(requests).wait(
            "s1", poll_s=0.001)["state"] == terminal
        assert requests.calls == {"state": 2, "status": 1}

    def test_timeout_never_builds_a_status_view(self):
        requests = CountingRequests(["RUNNING"])
        with pytest.raises(WaitTimeout, match="still RUNNING after"):
            ServiceClient(requests).wait("s1", timeout_s=0.01,
                                         poll_s=0.001)
        assert requests.calls["status"] == 0
        assert requests.calls["state"] >= 10


class TestBackoff:
    """The sleeps between ``state`` polls, recorded instead of slept."""

    @pytest.fixture
    def sleeps(self, monkeypatch):
        gaps: list[float] = []
        monkeypatch.setattr(client_module.time, "sleep", gaps.append)
        return gaps

    def test_overshoots_a_settle_by_at_most_a_share_of_the_wait(self,
                                                                sleeps):
        with pytest.raises(WaitTimeout):
            ServiceClient(CountingRequests(["RUNNING"])).wait(
                "s1", timeout_s=60.0)
        assert sleeps[0] == TICK_S
        waited = 0.0
        for gap in sleeps:
            assert gap <= max(TICK_S, WAIT_SHARE * waited) + 1e-12
            waited += gap
        assert waited == pytest.approx(60.0)

    def test_a_long_wait_polls_as_often_as_a_fixed_poll(self, sleeps):
        with pytest.raises(WaitTimeout):
            ServiceClient(CountingRequests(["RUNNING"])).wait(
                "s1", timeout_s=3600.0, poll_s=0.25)
        assert max(sleeps) == 0.25
        fixed = 3600.0 / 0.25
        assert fixed <= len(sleeps) <= 1.05 * fixed
