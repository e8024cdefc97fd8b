"""Result cache soundness."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis.engine import analyze_paths

_VIOLATION = """\
    import numpy as np


    def sample(n):
        np.random.seed(0)
        return np.random.rand(n)
"""

_CLEAN = """\
    def sample(n, rng):
        return rng.random(n)
"""


def _write(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def _keys(report):
    return [(f.rule, f.path, f.line, f.suppressed) for f in report.findings]


class TestResultCache:
    def test_warm_run_hits_and_matches_cold_run(self, tmp_path):
        _write(tmp_path, "tree/src/repro/core/a.py", _VIOLATION)
        _write(tmp_path, "tree/src/repro/core/b.py", _CLEAN)
        cache = tmp_path / "cache"
        cold = analyze_paths([tmp_path / "tree"], cache_dir=cache)
        assert cold.cache_hits == 0 and cold.cache_misses > 0
        warm = analyze_paths([tmp_path / "tree"], cache_dir=cache)
        assert warm.cache_misses == 0
        # Per-module entries for both files plus the flow entry.
        assert warm.cache_hits == 3
        assert _keys(warm) == _keys(cold)
        assert warm.exit_code == cold.exit_code == 1

    def test_editing_one_file_invalidates_it_and_the_flow_phase(
            self, tmp_path):
        a = _write(tmp_path, "tree/src/repro/core/a.py", _VIOLATION)
        _write(tmp_path, "tree/src/repro/core/b.py", _CLEAN)
        cache = tmp_path / "cache"
        analyze_paths([tmp_path / "tree"], cache_dir=cache)
        a.write_text(textwrap.dedent(_CLEAN), encoding="utf-8")
        after = analyze_paths([tmp_path / "tree"], cache_dir=cache)
        # b.py per-module entry still hits; a.py and the flow entry miss.
        assert after.cache_hits == 1
        assert after.cache_misses == 2
        assert after.exit_code == 0

    def test_rule_selection_changes_the_cache_key(self, tmp_path):
        _write(tmp_path, "tree/src/repro/core/a.py", _VIOLATION)
        cache = tmp_path / "cache"
        analyze_paths([tmp_path / "tree"], cache_dir=cache)
        narrowed = analyze_paths([tmp_path / "tree"], cache_dir=cache,
                                 select=["RPD001"])
        assert narrowed.cache_hits == 0
        assert {f.rule for f in narrowed.findings} == {"RPD001"}

    def test_corrupt_cache_entry_reads_as_miss(self, tmp_path):
        _write(tmp_path, "tree/src/repro/core/a.py", _VIOLATION)
        cache = tmp_path / "cache"
        cold = analyze_paths([tmp_path / "tree"], cache_dir=cache)
        for entry in cache.iterdir():
            entry.write_text("{not json", encoding="utf-8")
        rebuilt = analyze_paths([tmp_path / "tree"], cache_dir=cache)
        assert rebuilt.cache_hits == 0
        assert _keys(rebuilt) == _keys(cold)

    def test_cache_entries_are_valid_json_documents(self, tmp_path):
        _write(tmp_path, "tree/src/repro/core/a.py", _VIOLATION)
        cache = tmp_path / "cache"
        analyze_paths([tmp_path / "tree"], cache_dir=cache)
        names = sorted(p.name for p in cache.iterdir())
        assert any(n.startswith("pm_") for n in names)
        assert any(n.startswith("fl_") for n in names)
        for entry in cache.iterdir():
            doc = json.loads(entry.read_text(encoding="utf-8"))
            assert doc["version"] == 1

    def test_suppressions_survive_the_cache(self, tmp_path):
        _write(tmp_path, "tree/src/repro/core/a.py", """\
            import numpy as np

            np.random.seed(0)  # repro: noqa RPD001 -- fixture: exercising cached suppressions
        """)
        cache = tmp_path / "cache"
        cold = analyze_paths([tmp_path / "tree"], cache_dir=cache)
        warm = analyze_paths([tmp_path / "tree"], cache_dir=cache)
        assert warm.cache_misses == 0
        assert cold.exit_code == warm.exit_code == 0
        assert len(warm.suppressed) == len(cold.suppressed) == 1
        assert warm.suppressed[0].justification == \
            "fixture: exercising cached suppressions"

    def test_parse_error_files_cache_soundly(self, tmp_path):
        _write(tmp_path, "tree/src/repro/core/bad.py", "def broken(:\n")
        cache = tmp_path / "cache"
        cold = analyze_paths([tmp_path / "tree"], cache_dir=cache)
        warm = analyze_paths([tmp_path / "tree"], cache_dir=cache)
        assert _keys(warm) == _keys(cold)
        assert any(f.rule == "RPA000" and "does not parse" in f.message
                   for f in warm.findings)

