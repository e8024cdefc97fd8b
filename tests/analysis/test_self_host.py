"""The linter must pass over its own repository (self-hosting gate)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import all_rule_ids, analyze_paths

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_at_least_ten_rules_registered():
    assert len(all_rule_ids()) >= 10


def test_whole_program_rule_family_registered():
    ids = set(all_rule_ids())
    assert {"RPX001", "RPX002", "RPX003", "RPX004"} <= ids
    assert len(ids) >= 19


def test_src_is_clean_in_process():
    report = analyze_paths([REPO_ROOT / "src"])
    assert report.exit_code == 0, [f.location() + " " + f.message
                                   for f in report.unsuppressed]
    assert report.files_scanned > 50


def test_benchmarks_are_clean_in_process():
    report = analyze_paths([REPO_ROOT / "benchmarks"])
    assert report.exit_code == 0, [f.location() + " " + f.message
                                   for f in report.unsuppressed]


def test_every_suppression_carries_a_written_justification():
    report = analyze_paths([REPO_ROOT / "src", REPO_ROOT / "benchmarks"])
    for finding in report.suppressed:
        assert finding.justification, finding.location()
        assert len(finding.justification.split()) >= 3, finding.location()


def test_cached_rerun_matches_uncached_run(tmp_path):
    uncached = analyze_paths([REPO_ROOT / "src"])
    cache = tmp_path / "cache"
    analyze_paths([REPO_ROOT / "src"], cache_dir=cache)
    warm = analyze_paths([REPO_ROOT / "src"], cache_dir=cache)
    assert warm.cache_misses == 0
    key = lambda r: [(f.rule, f.path, f.line, f.suppressed)  # noqa: E731
                     for f in r.findings]
    assert key(warm) == key(uncached)


def test_cli_self_host_src():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src"],
        cwd=REPO_ROOT, env=_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_self_host_src_and_benchmarks():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src", "benchmarks"],
        cwd=REPO_ROOT, env=_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_graph_dump_renders_the_project():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--graph", "src"],
        cwd=REPO_ROOT, env=_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "project graph:" in proc.stdout
    assert "module repro.core.bo" in proc.stdout
    assert "->" in proc.stdout
