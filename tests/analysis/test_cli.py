"""CLI behavior: selection, formats, exit codes, and the CI gate.

The last test is the acceptance demonstration for the CI job: a seeded
violation makes ``python -m repro.analysis`` exit non-zero, with the
violation visible in the JSON report the job consumes.
"""

from __future__ import annotations

import json
import textwrap

from repro.analysis.cli import main

_CLEAN = """\
import numpy as np

def sample(n, rng):
    return rng.random(n)
"""

_SEEDED_VIOLATION = """\
import numpy as np

def sample(n):
    np.random.seed(0)
    return np.random.rand(n)
"""


def _write(tmp_path, source, rel="src/repro/core/fixture_mod.py"):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def test_clean_tree_exits_zero(tmp_path, capsys):
    _write(tmp_path, _CLEAN)
    assert main([str(tmp_path / "src")]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out


def test_violation_exits_one(tmp_path, capsys):
    _write(tmp_path, _SEEDED_VIOLATION)
    assert main([str(tmp_path / "src")]) == 1
    out = capsys.readouterr().out
    assert "RPD001" in out


def test_select_restricts_rules(tmp_path):
    _write(tmp_path, _SEEDED_VIOLATION)
    assert main([str(tmp_path / "src"), "--select", "RPF001"]) == 0
    assert main([str(tmp_path / "src"), "--select", "RPD001,RPF001"]) == 1


def test_ignore_drops_rules(tmp_path):
    _write(tmp_path, _SEEDED_VIOLATION)
    assert main([str(tmp_path / "src"), "--ignore", "RPD001"]) == 0


def test_unknown_rule_id_is_usage_error(tmp_path, capsys):
    _write(tmp_path, _CLEAN)
    assert main([str(tmp_path / "src"), "--select", "NOPE1"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_missing_path_is_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "does-not-exist")]) == 2
    assert "error" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RPA000", "RPD001", "RPD002", "RPD003", "RPD004",
                    "RPF001", "RPF002", "RPN001", "RPN002", "RPN003",
                    "RPP003", "RPP004", "RPP005"):
        assert rule_id in out


def test_ci_gate_fails_on_seeded_violation_via_json(tmp_path, capsys):
    """A seeded violation fails the build, and the JSON report names it."""
    _write(tmp_path, _SEEDED_VIOLATION)
    exit_code = main([str(tmp_path / "src"), "--format", "json"])
    assert exit_code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["unsuppressed"] == 2  # seed() and rand()
    rules = {f["rule"] for f in doc["findings"] if not f["suppressed"]}
    assert rules == {"RPD001"}
    # Suppressing with a justification turns the same tree green.
    _write(tmp_path, """\
        import numpy as np

        def sample(n):
            np.random.seed(0)  # repro: noqa RPD001 -- fixture: legacy baseline wants global seeding
            return np.random.default_rng(0).random(n)
    """)
    assert main([str(tmp_path / "src"), "--format", "json"]) == 0
