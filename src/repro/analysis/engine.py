"""File discovery, rule execution, caching, and suppression matching.

The engine runs in two phases:

1. **per-module** — every rule with ``requires_flow = False`` checks one
   :class:`~repro.analysis.context.ModuleContext` at a time, cached per
   file by content hash (:mod:`repro.analysis.cache`).  The phase runs
   serially: its AST walks are pure Python and hold the interpreter
   lock, so a thread pool would only add overhead.
2. **flow** — rules with ``requires_flow = True`` run once over the
   whole-program :class:`~repro.analysis.flow.FlowProject`.  Their
   result is a function of every scanned file, so it is cached by the
   *tree signature* and recomputed whenever any file changes.

Suppression matching runs after both phases, per file, over the merged
raw findings — so one ``# repro: noqa`` grammar covers per-module and
whole-program rules alike, and stale-suppression detection (RPA000)
sees the complete picture.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .cache import ModuleResult, ResultCache, tree_signature
from .context import ModuleContext
from .findings import Finding
from .registry import Rule, all_rule_ids, build_rules
from .suppressions import Suppression

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .flow import FlowProject

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis",
                        ".pytest_cache", ".mypy_cache", ".ruff_cache"})

#: Id under which engine-level problems (syntax errors, unused
#: suppressions) are reported; mirrors rules/meta.py.
META_RULE_ID = "RPA000"


@dataclass(frozen=True)
class AnalysisReport:
    """Outcome of one linter run over a set of paths."""

    findings: tuple[Finding, ...]
    files_scanned: int
    rule_ids: tuple[str, ...]
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def unsuppressed(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if not f.suppressed)

    @property
    def suppressed(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.suppressed)

    @property
    def baselined(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.baselined)

    @property
    def active(self) -> tuple[Finding, ...]:
        """Findings that fail the run: neither suppressed nor baselined."""
        return tuple(f for f in self.findings if f.active)

    @property
    def exit_code(self) -> int:
        return 1 if self.active else 0


def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated ``.py`` list."""
    seen: set[Path] = set()
    out: list[Path] = []
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            candidates = [root] if root.suffix == ".py" else []
        elif root.is_dir():
            candidates = sorted(
                p for p in root.rglob("*.py")
                if not (_SKIP_DIRS & set(p.parts))
                and not any(part.endswith(".egg-info") for part in p.parts))
        else:
            raise FileNotFoundError(f"no such file or directory: {root}")
        for path in candidates:
            if path not in seen:
                seen.add(path)
                out.append(path)
    return out


def _resolve_suppressions(display: str,
                          suppressions: dict[int, Suppression],
                          raw: list[Finding],
                          meta_active: bool) -> list[Finding]:
    """Mark suppressed findings and report stale suppressions."""
    out: list[Finding] = []
    used: set[tuple[int, str]] = set()
    for finding in raw:
        sup = suppressions.get(finding.line)
        if sup is not None and finding.rule in sup.rules:
            used.add((finding.line, finding.rule))
            out.append(finding.suppress(sup.justification))
        else:
            out.append(finding)
    if meta_active:
        known = set(all_rule_ids())
        for sup in suppressions.values():
            for rule_id in sup.rules:
                if rule_id in known and (sup.line, rule_id) not in used:
                    out.append(Finding(
                        rule=META_RULE_ID, path=display, line=sup.line,
                        col=1,
                        message=(f"unused suppression: {rule_id} reports no "
                                 "finding on this line")))
    return out


def _parse_error_finding(display: str, exc: Exception) -> Finding:
    line = getattr(exc, "lineno", 1) or 1
    return Finding(rule=META_RULE_ID, path=display, line=line, col=1,
                   message=("file does not parse: "
                            f"{exc.__class__.__name__}: {exc}"))


def analyze_file(path: Path, rules: Sequence[Rule],
                 display: str | None = None) -> list[Finding]:
    """Run *rules* over one file, returning suppression-resolved findings.

    Single-file analysis: whole-program (``requires_flow``) rules are
    inert here (their per-module ``check`` is a no-op) — use
    :func:`analyze_paths` for the full rule set.
    """
    shown = display if display is not None else str(path)
    try:
        ctx = ModuleContext.parse(path, display=shown)
    except (SyntaxError, UnicodeDecodeError) as exc:
        return [_parse_error_finding(shown, exc)]
    raw: list[Finding] = []
    for rule in rules:
        raw.extend(rule.check(ctx))
    meta_active = any(rule.id == META_RULE_ID for rule in rules)
    resolved = _resolve_suppressions(ctx.display, ctx.suppressions, raw,
                                     meta_active)
    resolved.sort(key=Finding.sort_key)
    return resolved


def _check_module(ctx: ModuleContext,
                  module_rules: Sequence[Rule]) -> ModuleResult:
    raw: list[Finding] = []
    for rule in module_rules:
        raw.extend(rule.check(ctx))
    return ModuleResult(display=ctx.display, raw=raw,
                        suppressions=dict(ctx.suppressions), parse_ok=True)


def build_project_for(paths: Sequence[str | Path]) -> "FlowProject":
    """Parse every file under *paths* into a :class:`FlowProject`.

    Powers the CLI's ``--graph`` debug dump; unparsable files are
    skipped (the lint run is where they get reported).
    """
    from .flow import build_flow_project
    ctxs: list[ModuleContext] = []
    for path in iter_python_files(paths):
        try:
            ctxs.append(ModuleContext.parse(path, display=str(path)))
        except (SyntaxError, UnicodeDecodeError):
            continue
    return build_flow_project(ctxs)


def analyze_paths(paths: Sequence[str | Path], *,
                  select: Iterable[str] | None = None,
                  ignore: Iterable[str] | None = None,
                  cache_dir: str | Path | None = None,
                  baseline: str | Path | None = None) -> AnalysisReport:
    """Lint every Python file under *paths* with the selected rules.

    ``cache_dir`` enables the content-hash result cache; ``baseline``
    marks findings present in a prior snapshot as grandfathered (see
    :mod:`repro.analysis.baseline`).
    """
    rules = build_rules(select=select, ignore=ignore)
    module_rules = [r for r in rules if not r.requires_flow]
    flow_rules = [r for r in rules if r.requires_flow]
    meta_active = any(rule.id == META_RULE_ID for rule in rules)
    files = iter_python_files(paths)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    module_sig = "|".join(r.id for r in module_rules)
    flow_sig = "|".join(r.id for r in flow_rules)

    # Read + hash every file exactly once.
    entries: list[tuple[Path, str, str, bytes]] = []
    for path in files:
        display = str(path)
        data = path.read_bytes()
        entries.append((path, display,
                        hashlib.sha256(data).hexdigest(), data))

    # -- phase 1: per-module rules (cached per content hash) ------------------
    results: dict[str, ModuleResult] = {}
    ctxs: dict[str, ModuleContext] = {}
    for path, display, sha, data in entries:
        key = cache.module_key(display, sha, module_sig) if cache else ""
        cached = cache.load_module(key) if cache else None
        if cached is not None:
            results[display] = cached
            continue
        try:
            ctx = ModuleContext.from_source(
                path, data.decode("utf-8"), display=display)
        except (SyntaxError, UnicodeDecodeError) as exc:
            result = ModuleResult(display=display,
                                  raw=[_parse_error_finding(display, exc)],
                                  parse_ok=False)
        else:
            result = _check_module(ctx, module_rules)
            ctxs[display] = ctx
        results[display] = result
        if cache is not None:
            cache.store_module(key, result)

    # -- phase 2: whole-program rules (cached by tree signature) --------------
    flow_raw: list[Finding] = []
    if flow_rules and entries:
        tree_sig = tree_signature([(d, s) for _, d, s, _ in entries])
        flow_cache_key = cache.flow_key(tree_sig, flow_sig) if cache else ""
        cached_flow = cache.load_flow(flow_cache_key) if cache else None
        if cached_flow is not None:
            flow_raw = cached_flow
        else:
            ordered: list[ModuleContext] = []
            for path, display, _, data in entries:
                if not results[display].parse_ok:
                    continue
                ctx = ctxs.get(display)
                if ctx is None:
                    try:
                        ctx = ModuleContext.from_source(
                            path, data.decode("utf-8"), display=display)
                    except (SyntaxError, UnicodeDecodeError):
                        continue
                ordered.append(ctx)
            from .flow import build_flow_project
            project = build_flow_project(ordered)
            for rule in flow_rules:
                flow_raw.extend(rule.check_project(project))
            if cache is not None:
                cache.store_flow(flow_cache_key, flow_raw)

    # -- merge + suppression resolution ---------------------------------------
    by_display: dict[str, list[Finding]] = {d: list(r.raw)
                                            for d, r in results.items()}
    for finding in flow_raw:
        by_display.setdefault(finding.path, []).append(finding)
    findings: list[Finding] = []
    for display in by_display:
        result = results.get(display)
        suppressions = result.suppressions if result is not None else {}
        findings.extend(_resolve_suppressions(
            display, suppressions, by_display[display], meta_active))
    findings.sort(key=Finding.sort_key)

    # -- baseline comparison ---------------------------------------------------
    if baseline is not None:
        from .baseline import apply_baseline, load_baseline
        findings = apply_baseline(findings, load_baseline(baseline))

    return AnalysisReport(findings=tuple(findings),
                          files_scanned=len(files),
                          rule_ids=tuple(rule.id for rule in rules),
                          cache_hits=cache.hits if cache else 0,
                          cache_misses=cache.misses if cache else 0)
