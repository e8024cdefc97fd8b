"""RPX rules: whole-program invariants over the flow layer.

The per-module families catch violations visible in one file; these four
run on the :class:`repro.analysis.flow.FlowProject` (symbol table + call
graph + per-function summaries + taint pass) and protect the invariants
that span modules:

* **RPX001** — a fresh RNG must not cross into a worker callable; only
  per-task spawned children may (the exact bug class the golden parity
  digests detect only after the fact).
* **RPX002** — engine-owner state (``BOEngine``,
  ``EvaluationSupervisor``, ``PoisonQuarantine``) must not be mutated by
  anything *reachable* from a worker-submitted callable; all folding
  happens on the collecting side (generalizes RPP004 from syntactic
  self-mutation to real cross-function reachability).
* **RPX003** — every tracer event/counter/timer/span name must resolve
  statically to the typed catalogs in ``obs/events.py``, and spans and
  timers must be entered via ``with`` so nesting is balanced on every
  path.
* **RPX004** — journal/trace file handles opened outside ``with`` must
  be provably closed *and* fsynced by their owning scope (extends
  RPF002's ownership discipline beyond module boundaries).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from ..findings import Finding
from ..registry import FlowRule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..flow import FlowProject
    from ..flow.summaries import FunctionSummary

#: Classes whose mutable state is owned by a single driving thread.
OWNER_CLASSES = frozenset({"BOEngine", "EvaluationSupervisor",
                           "PoisonQuarantine"})

#: Catalog variables read from ``obs/events.py`` by RPX003.
_CATALOG_VARS = {"emit": "EVENT_TYPES", "count": "COUNTERS",
                 "timer": "TIMERS", "span": "SPANS"}


@register
class SeedProvenance(FlowRule):
    """RPX001: fresh RNGs must not cross into worker callables."""

    id = "RPX001"
    title = "fresh RNG crosses into a worker"
    rationale = (
        "A Generator born from default_rng/as_generator is one stream; "
        "capturing it in a callable submitted to an executor "
        "makes draws depend on completion order, which silently changes "
        "the fixed-seed decision sequence.  Spawn a child per task "
        "(repro.utils.rng.spawn / Generator.spawn) and pass children "
        "through the work items instead.")

    def check_project(self, project: "FlowProject") -> Iterator[Finding]:
        from ..flow.dataflow import tainted_args_at_call_sites
        for qname in sorted(project.summaries):
            summary = project.summaries[qname]
            display = summary.fn.display
            # Local half: a fresh RNG captured directly at a submit site.
            fresh = set(summary.fresh_rngs)
            for site in summary.submit_sites:
                for name in site.captured:
                    if name in fresh:
                        yield Finding(
                            rule=self.id, path=display, line=site.lineno,
                            col=site.col,
                            message=(f"worker {site.worker_label} submitted "
                                     "to a pool captures RNG "
                                     f"{name!r} born at line "
                                     f"{summary.fresh_rngs[name]}; spawn a "
                                     "per-task child instead"))
            # Cross-module half: a fresh RNG forwarded to a callee whose
            # parameter (transitively) escapes into a worker.
            for lineno, rng, callee, param in tainted_args_at_call_sites(
                    summary, project.summaries):
                yield Finding(
                    rule=self.id, path=display, line=lineno, col=1,
                    message=(f"RNG {rng!r} born at line "
                             f"{summary.fresh_rngs[rng]} flows into "
                             f"{callee}() whose parameter {param!r} is "
                             "captured by a worker callable; spawn "
                             "per-task children at the dispatch site"))


@register
class ThreadOwnership(FlowRule):
    """RPX002: worker-reachable code must not mutate engine-owner state."""

    id = "RPX002"
    title = "worker-reachable mutation of engine-owner state"
    rationale = (
        "BOEngine/EvaluationSupervisor/PoisonQuarantine attributes are "
        "folded by exactly one thread (the _fold_in-style collecting "
        "side of next_outcome()); a method that mutates them and is "
        "reachable from a submitted callable runs on a worker thread and "
        "races the owner, making results depend on completion order. "
        "Workers return results; the engine folds them.")

    def check_project(self, project: "FlowProject") -> Iterator[Finding]:
        from ..flow.dataflow import reachable_from
        for qname in sorted(project.summaries):
            summary = project.summaries[qname]
            for site in summary.submit_sites:
                roots = tuple(site.worker_calls)
                if site.worker_qname is not None:
                    roots = roots + (site.worker_qname,)
                if not roots:
                    continue
                paths = reachable_from(roots, project.summaries,
                                       project.graph)
                for reached in sorted(paths):
                    target = project.summaries.get(reached)
                    if target is None or not target.self_mutations:
                        continue
                    cls = target.fn.cls
                    if cls not in OWNER_CLASSES:
                        continue
                    attr, _line = target.self_mutations[0]
                    chain = " -> ".join(paths[reached])
                    yield Finding(
                        rule=self.id, path=summary.fn.display,
                        line=site.lineno, col=site.col,
                        message=(f"worker {site.worker_label} submitted "
                                 "to a pool reaches "
                                 f"{reached}() which mutates "
                                 f"{cls}.{attr} (path: {chain}); route the "
                                 "mutation through the engine's single-"
                                 "owner fold-in on the collecting side"))


@register
class EventContract(FlowRule):
    """RPX003: tracer names must resolve to the typed catalogs."""

    id = "RPX003"
    title = "tracer call off the typed catalog"
    rationale = (
        "obs/events.py is the single source of truth for event, counter, "
        "timer and span names: reporting, validation and the docs all key "
        "off it.  A name emitted anywhere else that the catalog does not "
        "carry is invisible to validate_trace and the summary fold-ups; "
        "a span/timer built but not entered via 'with' records nothing "
        "and silently unbalances nesting.")

    def _catalogs(self, project: "FlowProject") -> dict[str, set[str]] | None:
        events = project.modules.get("repro.obs.events")
        if events is None:
            return None
        found: dict[str, set[str]] = {}
        for node in events.ctx.tree.body:
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
            if not (isinstance(target, ast.Name) and isinstance(value, ast.Dict)):
                continue
            if target.id in _CATALOG_VARS.values():
                found[target.id] = {
                    k.value for k in value.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)}
        if "EVENT_TYPES" not in found:
            return None
        return found

    def check_project(self, project: "FlowProject") -> Iterator[Finding]:
        catalogs = self._catalogs(project)
        if catalogs is None:
            return
        for qname in sorted(project.summaries):
            summary = project.summaries[qname]
            display = summary.fn.display
            sub = _module_subpath(display)
            if sub is None or sub.startswith("obs/"):
                continue
            for call in summary.tracer_calls:
                catalog_name = _CATALOG_VARS[call.method]
                catalog = catalogs.get(catalog_name)
                if call.method in ("timer", "span") and not call.with_item:
                    yield Finding(
                        rule=self.id, path=display, line=call.lineno,
                        col=call.col,
                        message=(f"tracer.{call.method}(...) not entered "
                                 "via 'with': the context manager records "
                                 "nothing unless entered, and span nesting "
                                 "must balance on every path"))
                if not call.literal:
                    yield Finding(
                        rule=self.id, path=display, line=call.lineno,
                        col=call.col,
                        message=(f"tracer.{call.method}() name is not a "
                                 "string literal, so it cannot be checked "
                                 f"against obs.events.{catalog_name}; use "
                                 "a literal from the catalog"))
                elif catalog is not None and call.name not in catalog:
                    yield Finding(
                        rule=self.id, path=display, line=call.lineno,
                        col=call.col,
                        message=(f"tracer.{call.method}({call.name!r}) "
                                 "names no entry in obs.events."
                                 f"{catalog_name}; add it to the catalog "
                                 "with a one-line description"))


@register
class ResourceLifecycle(FlowRule):
    """RPX004: non-``with`` write handles must be closed and fsynced."""

    id = "RPX004"
    title = "write handle without a proven close+fsync path"
    rationale = (
        "The crash-safety story (docs/ROBUSTNESS.md) rests on every "
        "durable writer flushing and fsyncing before a crash can tear "
        "state: a write-mode handle opened outside 'with' whose owning "
        "scope shows no .close() call and no os.fsync(fh.fileno()) is a "
        "torn-state hole that no single-module rule can see when the "
        "open and the close live in different methods.")

    def check_project(self, project: "FlowProject") -> Iterator[Finding]:
        for qname in sorted(project.summaries):
            summary = project.summaries[qname]
            display = summary.fn.display
            if _module_subpath(display) is None:
                continue          # only src/repro owns durable state
            for site in summary.opens:
                if site.target is None:
                    yield Finding(
                        rule=self.id, path=display, line=site.lineno,
                        col=site.col,
                        message=("write-mode open() outside 'with' whose "
                                 "handle escapes unnamed; use a with-block "
                                 "or store it where close+fsync is "
                                 "provable"))
                    continue
                scope = self._owning_nodes(site.target, summary, project)
                closed = any(_calls_method_on(node, site.target, "close")
                             for node in scope)
                fsynced = any(_fsyncs(node, site.target) for node in scope)
                if closed and fsynced:
                    continue
                missing = [w for w, ok in (("close", closed),
                                           ("fsync", fsynced)) if not ok]
                where = "class" if site.target.startswith("self.") \
                    else "function"
                yield Finding(
                    rule=self.id, path=display, line=site.lineno,
                    col=site.col,
                    message=(f"write handle {site.target} has no "
                             f"{' or '.join(missing)} call in its owning "
                             f"{where}; durable writers must close and "
                             "fsync on every path (or use 'with')"))

    @staticmethod
    def _owning_nodes(target: str, summary: "FunctionSummary",
                      project: "FlowProject") -> list[ast.AST]:
        """The AST nodes to search for close/fsync evidence."""
        fn = summary.fn
        if not target.startswith("self."):
            return [fn.node]
        cls = project.graph.class_of(fn)
        if cls is None:
            return [fn.node]
        nodes: list[ast.AST] = []
        for method_qname in cls.methods.values():
            info = project.graph.functions.get(method_qname)
            if info is not None:
                nodes.append(info.node)
        return nodes


def _module_subpath(display: str) -> str | None:
    from ..context import repro_subpath
    return repro_subpath(display)


def _matches_target(expr: ast.expr, target: str) -> bool:
    """Whether *expr* is the stored handle (``name`` or ``self.attr``)."""
    from ..flow.graph import attr_chain
    chain = attr_chain(expr)
    if target.startswith("self."):
        return chain == ["self", target[5:]]
    return chain == [target]


def _calls_method_on(node: ast.AST, target: str, method: str) -> bool:
    for child in ast.walk(node):
        if (isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == method
                and _matches_target(child.func.value, target)):
            return True
    return False


def _fsyncs(node: ast.AST, target: str) -> bool:
    """``os.fsync(<target>.fileno())`` appears somewhere under *node*."""
    from ..flow.graph import attr_chain
    for child in ast.walk(node):
        if not isinstance(child, ast.Call):
            continue
        chain = attr_chain(child.func)
        if chain[-1:] != ["fsync"] or not child.args:
            continue
        arg = child.args[0]
        if (isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Attribute)
                and arg.func.attr == "fileno"
                and _matches_target(arg.func.value, target)):
            return True
    return False
