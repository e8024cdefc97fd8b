"""Linter throughput benchmark: cached re-run vs cold run.

The acceptance bar for the result cache (docs/ANALYSIS.md) is that a
warm re-run over an unchanged tree is at least 3x faster than a cold
run — in practice the warm run skips parsing
and rule execution entirely (per-module entries hit by content hash,
the flow phase hits by tree signature) and the margin is orders of
magnitude.  Numbers append to ``BENCH_lint.json`` at the repo root,
alongside ``BENCH_hotpaths.json``, so successive commits leave a
comparable record.
"""

from __future__ import annotations

import time

from repro.analysis import analyze_paths

from conftest import REPO_ROOT, BenchRecord

LINT_BENCH = BenchRecord("BENCH_lint.json")
_record = LINT_BENCH.record

#: Cached re-runs must beat the cold run by at least this factor.
MIN_SPEEDUP = 3.0


def _time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_cached_rerun_vs_cold_run(tmp_path, capsys):
    paths = [REPO_ROOT / "src"]
    n_files = analyze_paths(paths).files_scanned

    cold = _time(lambda: analyze_paths(paths))

    cache = tmp_path / "lint-cache"
    analyze_paths(paths, cache_dir=cache)            # prime the cache
    warm = _time(lambda: analyze_paths(paths, cache_dir=cache))

    # The warm run must be a full cache hit (per-module + flow phases).
    report = analyze_paths(paths, cache_dir=cache)
    assert report.cache_misses == 0

    speedup = cold / warm
    _record("lint_cold_serial_src", cold, n=n_files)
    _record("lint_warm_cached_src", warm, n=n_files,
            speedup=round(speedup, 2))
    with capsys.disabled():
        print(f"\nlint over src ({n_files} files): cold {cold:.3f}s, "
              f"warm cached {warm * 1e3:.1f}ms "
              f"({speedup:.0f}x)")
    assert speedup >= MIN_SPEEDUP, (
        f"cached re-run only {speedup:.2f}x faster than cold "
        f"(cold {cold:.3f}s, warm {warm:.3f}s); the cache is not earning "
        "its keep")


def test_flow_phase_overhead_is_bounded(capsys):
    """The whole-program phase must not dominate a cold run."""
    paths = [REPO_ROOT / "src"]
    module_only = _time(
        lambda: analyze_paths(paths, ignore=["RPE001", "RPX001", "RPX002",
                                             "RPX003", "RPX004"]))
    full = _time(lambda: analyze_paths(paths))
    overhead = full - module_only
    _record("lint_module_rules_only_src", module_only, n=1)
    _record("lint_all_rules_src", full, n=1)
    with capsys.disabled():
        print(f"flow-phase overhead: {overhead * 1e3:.0f}ms on top of "
              f"{module_only:.3f}s per-module work")
    # Generous bound: graph + summaries + 5 flow rules stay well under
    # the per-module phase's own cost (they reuse its parsed ASTs).
    assert full < module_only * 2.5


def test_zzz_write_lint_bench_file(capsys):
    """Flush collected timings (runs last by name ordering)."""
    LINT_BENCH.flush(capsys)
    assert LINT_BENCH.path.exists()
