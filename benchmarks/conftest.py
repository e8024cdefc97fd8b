"""Shared infrastructure for the benchmark harness.

Scale knobs (environment variables):

=======================  =======  ==============================================
REPRO_BENCH_TRIALS       2        independent sweeps per workload (paper: 5)
REPRO_BENCH_BUDGET       100      evaluations per tuning session (paper: 100)
REPRO_BENCH_FIG2_SAMPLES 120      LHS samples per Figure 2 cell (paper: 200)
REPRO_BENCH_FIG7_SAMPLES 150      ground-truth samples for Figure 7 (paper: 200)
REPRO_BENCH_FULL         unset    set to 1 for the paper-scale run (5 trials,
                                  200-sample figures)
=======================  =======  ==============================================

The 4-tuner comparison study is expensive, so it is built lazily once and
shared by every benchmark that consumes it (Figures 3-6, 8, Table 2); the
first benchmark to request it pays the cost.

Every benchmark writes its rendered table into ``results/<name>.txt`` and
echoes it to the real terminal (bypassing pytest capture) so the report
appears in tee'd logs.  Timing smokes collect entries in a
:class:`BenchRecord` and append them to a ``BENCH_*.json`` file at the
repo root from a last-running ``test_zz*`` flush test.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

import pytest

from repro.bench import ComparisonStudy, StudyResult

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "results"


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")
TRIALS = _env_int("REPRO_BENCH_TRIALS", 5 if FULL else 2)
BUDGET = _env_int("REPRO_BENCH_BUDGET", 100)
FIG2_SAMPLES = _env_int("REPRO_BENCH_FIG2_SAMPLES", 200 if FULL else 120)
FIG7_SAMPLES = _env_int("REPRO_BENCH_FIG7_SAMPLES", 200 if FULL else 150)


class BenchRecord:
    """Timing entries bound for one ``BENCH_*.json`` file at the repo root.

    Each entry is ``{"name", "wall_s", "n", "timestamp"}`` plus any extra
    fields; :meth:`flush` appends them to the file's list (an unreadable
    file starts a new list), so successive runs leave a comparable record.
    """

    def __init__(self, filename: str) -> None:
        self.path = REPO_ROOT / filename
        self.entries: list[dict] = []

    def record(self, name: str, wall_s: float, n: int, **extra) -> float:
        self.entries.append({"name": name, "wall_s": round(wall_s, 6),
                             "n": n, "timestamp": time.time(), **extra})
        return wall_s

    def flush(self, capsys) -> None:
        existing = []
        if self.path.exists():
            try:
                existing = json.loads(self.path.read_text())
            except (ValueError, OSError):
                existing = []
        existing.extend(self.entries)
        self.path.write_text(json.dumps(existing, indent=2) + "\n")
        with capsys.disabled():
            print(f"[{len(self.entries)} timings appended to "
                  f"{self.path.name}]")


@functools.lru_cache(maxsize=1)
def get_study() -> StudyResult:
    """The shared comparison study (built on first use)."""
    return ComparisonStudy(budget=BUDGET, trials=TRIALS,
                           keep_results=True, base_seed=7).run()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def emit(results_dir, capsys):
    """Write a rendered report to results/<name>.txt and the terminal."""

    def _emit(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n")
        with capsys.disabled():
            print(f"\n{text}\n[saved to results/{name}.txt]")

    return _emit
