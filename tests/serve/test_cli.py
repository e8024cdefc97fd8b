"""CLI service verbs: serve/submit/status/results/cancel round trips."""

from __future__ import annotations

import json

from repro.cli import main

FAST = ["--budget", "6", "--init-samples", "4", "--selection-samples", "10",
        "--selection-repeats", "2"]


def _submit(store, *extra):
    return ["submit", "--workload", "pagerank", "--seed", "3",
            "--store", str(store), *FAST, *extra]


class TestServeCli:
    def test_submit_serve_status_results_cancel(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(_submit(store, "--tag", "owner=ci")) == 0
        sid = capsys.readouterr().out.strip()
        assert sid == "s000000"

        # A second, lower-priority session we cancel before serving.
        assert main(_submit(store, "--priority", "-1")) == 0
        sid2 = capsys.readouterr().out.strip()
        assert main(["cancel", sid2, "--store", str(store)]) == 0
        assert capsys.readouterr().out.strip() == "CANCELLED"

        assert main(["serve", "--store", str(store), "--drain",
                     "--poll", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "1 session(s) settled" in out

        assert main(["status", sid, "--store", str(store)]) == 0
        view = json.loads(capsys.readouterr().out)
        assert view["state"] == "DONE"
        assert view["result"]["digest"]

        assert main(["results", sid, "--store", str(store)]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["digest"] == view["result"]["digest"]

        assert main(["status", "--store", str(store)]) == 0
        table = capsys.readouterr().out
        assert sid in table and sid2 in table

    def test_submit_wait_blocks_until_done(self, tmp_path, capsys):
        import threading
        store = tmp_path / "store"
        # Drain daemon in a thread; the CLI submit --wait polls the store.
        daemon = threading.Thread(
            target=main, args=(["serve", "--store", str(store),
                               "--poll", "0.02", "--max-sessions", "1"],),
            daemon=True)
        daemon.start()
        code = main(_submit(store, "--wait", "--timeout", "120"))
        out = capsys.readouterr().out
        daemon.join(timeout=60)
        assert code == 0
        assert "state: DONE" in out
        assert "digest: " in out

    def test_bad_spec_fails_fast(self, tmp_path, capsys):
        assert main(["submit", "--workload", "pagerank", "--budget", "0",
                     "--store", str(tmp_path / "s")]) == 2
        assert "budget" in capsys.readouterr().err

    def test_missing_endpoint_fails_fast(self, capsys):
        assert main(["status"]) == 2
        assert "--store" in capsys.readouterr().err

    def test_unknown_sid_errors(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(_submit(store)) == 0
        capsys.readouterr()
        assert main(["results", "s9-ffff", "--store", str(store)]) == 1
        assert main(["cancel", "s9-ffff", "--store", str(store)]) == 1

    def test_results_before_settle_is_an_error(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(_submit(store)) == 0
        sid = capsys.readouterr().out.strip()
        assert main(["results", sid, "--store", str(store)]) == 1
        assert "no result yet" in capsys.readouterr().err

    def test_bad_daemon_flags_fail_fast(self, tmp_path, capsys):
        assert main(["serve", "--store", str(tmp_path / "s"),
                     "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err
