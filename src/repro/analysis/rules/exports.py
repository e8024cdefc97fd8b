"""RPE rules: public API surface hygiene.

``repro.core.__init__`` is the package's front door; every name in its
``__all__`` is a promise that someone consumes it.  An export nothing in
the package (or the benchmark suite) references is either dead weight or
an API kept alive for external users only — the first should be removed,
the second must say so explicitly with a justified suppression, so the
public surface never grows by accretion.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from ..context import ModuleContext
from ..findings import Finding
from ..registry import FlowRule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..flow import FlowProject

#: Directories (relative to the repo root) whose modules count as call
#: sites.  Tests deliberately do not: a test-only export has no consumer.
_CALLER_DIRS = ("src/repro", "benchmarks")


def _all_entries(tree: ast.Module) -> list[tuple[str, int]]:
    """``(name, line)`` for every string element of a module's ``__all__``."""
    out: list[tuple[str, int]] = []
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not (isinstance(target, ast.Name) and target.id == "__all__"):
            continue
        if isinstance(node.value, (ast.List, ast.Tuple)):
            for elt in node.value.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    out.append((elt.value, elt.lineno))
    return out


def _origin_modules(tree: ast.Module) -> dict[str, str]:
    """Map each imported name to the relative module it comes from."""
    origins: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level >= 1 and node.module:
            for alias in node.names:
                origins[alias.asname or alias.name] = node.module
    return origins


@register
class DeadCoreExport(FlowRule):
    """RPE001: every ``repro.core`` export has a non-test call site.

    A whole-program rule since its verdict depends on *every* scanned
    module, not just ``core/__init__.py`` — which is also why it must
    never enter the per-module result cache.  Caller sources come from
    the already-parsed project; like every flow rule it is inert under
    single-file ``analyze_file``.
    """

    id = "RPE001"
    title = "public export without a call site"
    rationale = (
        "A name exported from repro.core that nothing in src/repro or "
        "benchmarks/ references is untested API surface growing by "
        "accretion: remove it, or suppress with a justification naming "
        "the external consumer it serves.")

    def check_project(self, project: "FlowProject") -> Iterator[Finding]:
        init: ModuleContext | None = None
        callers: list[tuple[str, str]] = []
        bench_scanned = False
        for mod in project.modules.values():
            ctx = mod.ctx
            if ctx.is_module("core/__init__.py"):
                init = ctx
            sub = ctx.repro_subpath
            display = ctx.display.replace("\\", "/")
            if sub is not None:
                if not display.endswith("/__init__.py"):
                    callers.append((sub, ctx.source))
            elif "benchmarks/" in display or display.startswith("benchmarks"):
                bench_scanned = True
                callers.append((display, ctx.source))
        if init is None:
            return
        if not bench_scanned:
            # Benchmarks outside the scan still count as consumers, so a
            # src-only run reports the same surface as a full run.
            callers.extend(self._bench_sources(init.path))
        yield from self._check_init(init, callers)

    def _check_init(self, ctx: ModuleContext,
                    callers: list[tuple[str, str]]) -> Iterator[Finding]:
        entries = _all_entries(ctx.tree)
        if not entries:
            return
        origins = _origin_modules(ctx.tree)
        for name, line in entries:
            origin = origins.get(name)
            # The defining module and re-exporting __init__ files do not
            # count as consumers — only genuine call sites do.
            skip = {f"core/{origin.lstrip('.')}.py"} if origin else set()
            pattern = re.compile(rf"\b{re.escape(name)}\b")
            if not any(pattern.search(text)
                       for sub, text in callers if sub not in skip):
                yield self.finding(
                    ctx, line,
                    f"export {name!r} has no call site in "
                    f"{' or '.join(_CALLER_DIRS)}; remove it or suppress "
                    "with the external consumer it serves")

    @staticmethod
    def _bench_sources(init_path: Path) -> list[tuple[str, str]]:
        repo_root = init_path.resolve().parent.parent.parent.parent
        bench = repo_root / "benchmarks"
        out: list[tuple[str, str]] = []
        if bench.is_dir():
            for py in sorted(bench.rglob("*.py")):
                try:
                    out.append((f"benchmarks/{py.relative_to(bench).as_posix()}",
                                py.read_text(encoding="utf-8")))
                except (OSError, UnicodeDecodeError):
                    continue
        return out
