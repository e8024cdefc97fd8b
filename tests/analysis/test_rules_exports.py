"""RPE rule pack: dead public exports on repro.core's front door.

RPE001 is a whole-program rule, so every case runs the project engine
(``analyze_paths``, through the ``lint_tree`` fixture), the path
``python -m repro.analysis`` takes.
"""

from __future__ import annotations

from pathlib import Path

from lintutils import active, rules_of

from repro.analysis.engine import analyze_paths

INIT = "src/repro/core/__init__.py"
WIDGET = {"src/repro/core/widget.py": "class Widget:\n    pass\n"}
EXPORT = """\
    from .widget import Widget

    __all__ = ["Widget"]
"""


def rpe001(lint_tree, files: dict[str, str]):
    return rules_of(lint_tree(files, select=["RPE001"]).findings, "RPE001")


class TestDeadCoreExport:
    def test_flags_export_with_no_call_site(self, lint_tree):
        hits = rpe001(lint_tree, {**WIDGET, INIT: EXPORT})
        assert len(hits) == 1
        assert "Widget" in hits[0].message

    def test_defining_module_does_not_count_as_consumer(self, lint_tree):
        # The class is named repeatedly inside its own module; that is
        # not a call site.
        hits = rpe001(lint_tree, {
            "src/repro/core/widget.py":
                "class Widget:\n    pass\n\n\ndef make() -> Widget:\n"
                "    return Widget()\n",
            INIT: EXPORT})
        assert len(hits) == 1

    def test_call_site_in_sibling_module_clears(self, lint_tree):
        assert rpe001(lint_tree, {
            **WIDGET, INIT: EXPORT,
            "src/repro/other/user.py":
                "from ..core.widget import Widget\n\nw = Widget()\n"}) == []

    def test_call_site_in_benchmarks_clears(self, lint_tree):
        assert rpe001(lint_tree, {
            **WIDGET, INIT: EXPORT,
            "benchmarks/test_widget_perf.py":
                "from repro.core import Widget\n"}) == []

    def test_reexporting_init_does_not_count(self, lint_tree):
        hits = rpe001(lint_tree, {
            **WIDGET, INIT: EXPORT,
            "src/repro/__init__.py":
                "from .core import Widget\n\n__all__ = [\"Widget\"]\n"})
        assert len(hits) == 1

    def test_suppression_with_justification(self, lint_tree):
        hits = rpe001(lint_tree, {**WIDGET, INIT: """\
            from .widget import Widget

            __all__ = [
                "Widget",  # repro: noqa RPE001 -- kept for external consumers
            ]
        """})
        assert len(hits) == 1
        assert hits[0].suppressed
        assert active(hits) == []

    def test_only_core_init_is_checked(self, lint_tree):
        assert rpe001(lint_tree, {
            "src/repro/obs/__init__.py":
                '__all__ = ["nothing_uses_me"]\n'}) == []

    def test_real_core_init_is_clean(self):
        root = Path(__file__).resolve().parents[2]
        report = analyze_paths([root / "src", root / "benchmarks"],
                               select=["RPE001"])
        assert active(rules_of(report.findings, "RPE001")) == []
