"""RPF rule pack: true positives, true negatives, suppressions."""

from __future__ import annotations

import pytest
from lintutils import active, rules_of


class TestBlindExceptionHandler:
    def test_flags_bare_except(self, lint):
        findings = lint("""\
            def f():
                try:
                    return 1
                except:
                    return None
        """)
        hits = rules_of(findings, "RPF001")
        assert len(hits) == 1
        assert "bare" in hits[0].message

    def test_flags_swallowed_exception(self, lint):
        findings = lint("""\
            def f():
                try:
                    return 1
                except Exception:
                    pass
        """)
        assert len(rules_of(findings, "RPF001")) == 1

    def test_flags_swallowed_base_exception_in_tuple(self, lint):
        findings = lint("""\
            def f():
                try:
                    return 1
                except (ValueError, BaseException):
                    ...
        """)
        assert len(rules_of(findings, "RPF001")) == 1

    def test_allows_typed_handler(self, lint):
        findings = lint("""\
            import numpy as np

            def f():
                try:
                    return 1
                except (ValueError, np.linalg.LinAlgError):
                    return None
        """)
        assert rules_of(findings, "RPF001") == []

    def test_allows_broad_handler_that_acts(self, lint):
        findings = lint("""\
            def f(log):
                try:
                    return 1
                except Exception as exc:
                    log.warning("eval failed: %s", exc)
                    raise
        """)
        assert rules_of(findings, "RPF001") == []


class TestRawFileWrite:
    def test_flags_open_for_write_in_repro(self, lint):
        findings = lint("""\
            def dump(path, payload):
                with open(path, "a") as fh:
                    fh.write(payload)
        """)
        hits = rules_of(findings, "RPF002")
        assert len(hits) == 1
        assert "EvaluationJournal" in hits[0].message

    def test_flags_write_text(self, lint):
        findings = lint("""\
            from pathlib import Path

            def dump(path, payload):
                Path(path).write_text(payload)
        """)
        assert len(rules_of(findings, "RPF002")) == 1

    def test_allows_reading(self, lint):
        findings = lint("""\
            def load(path):
                with open(path, encoding="utf-8") as fh:
                    return fh.read()
        """)
        assert rules_of(findings, "RPF002") == []

    @pytest.mark.parametrize("module, flagged", [
        ("obs/durable.py", False),
        ("core/journal.py", True),
        ("obs/sinks.py", True),
        ("serve/store.py", True),
        ("core/memo.py", True),
    ])
    def test_durable_module_owns_io(self, lint, module, flagged):
        findings = lint("""\
            def _append(path, payload):
                fh = open(path, "a", encoding="utf-8")
                fh.write(payload)
        """, rel=f"src/repro/{module}")
        assert len(rules_of(findings, "RPF002")) == int(flagged)

    def test_outside_repro_package_is_exempt(self, lint):
        findings = lint("""\
            from pathlib import Path

            def emit(path, text):
                Path(path).write_text(text)
        """, rel="benchmarks/fixture_mod.py")
        assert rules_of(findings, "RPF002") == []

    def test_suppression(self, lint):
        findings = lint("""\
            from pathlib import Path

            def emit(path, text):
                Path(path).write_text(text)  # repro: noqa RPF002 -- user-requested artifact export, not evaluation state
        """)
        hits = rules_of(findings, "RPF002")
        assert len(hits) == 1 and hits[0].suppressed
        assert active(findings) == []
