"""RPP rules: work handed to a worker pool must be safe.

A pool's workers share the interpreter with the engine that submits to
them, so results are deterministic only if workers are self-contained:
they never mutate the engine's ``self`` state, shared RNGs or module
globals, and nobody waits on them without a bound.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import ModuleContext
from ..findings import Finding
from ..registry import Rule, register


def _nested_function_defs(tree: ast.Module) -> dict[str, ast.AST]:
    """Functions defined inside another function, by name."""
    nested: dict[str, ast.AST] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for child in ast.walk(node):
            if child is node:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested[child.name] = child
    return nested


def _submit_calls(tree: ast.Module) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "submit"):
            yield node


def _self_attribute(expr: ast.AST) -> str | None:
    """The attribute name when *expr* is rooted at ``self.<attr>...``."""
    while isinstance(expr, (ast.Subscript, ast.Attribute)):
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"):
            return expr.attr
        expr = expr.value
    return None


@register
class WorkerMutatesEngineState(Rule):
    """RPP004: submitted workers must not mutate shared engine state."""

    id = "RPP004"
    title = "worker callable mutates self"
    rationale = (
        "A callable handed to a pool's submit() runs on a worker thread; "
        "writing self.<attr> from it races the engine loop and makes "
        "results depend on completion order, breaking the async engine's "
        "determinism contract. Workers return results; all shared-state "
        "mutation belongs in the engine's fold-in method, on the "
        "collecting side of next_outcome().")

    #: Methods that mutate their receiver in place.
    _MUTATORS = ("append", "extend", "add", "update", "pop", "remove",
                 "insert", "clear", "setdefault")

    def _mutations(self, body: ast.AST) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(body):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    attr = _self_attribute(target)
                    if attr is not None:
                        yield node, f"assigns self.{attr}"
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._MUTATORS):
                attr = _self_attribute(node.func.value)
                if attr is not None:
                    yield node, f"calls self.{attr}.{node.func.attr}()"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        nested = _nested_function_defs(ctx.tree)
        for call in _submit_calls(ctx.tree):
            if not call.args:
                continue
            worker = call.args[0]
            if isinstance(worker, ast.Lambda):
                body: ast.AST | None = worker.body
                label = "lambda"
            elif isinstance(worker, ast.Name) and worker.id in nested:
                body = nested[worker.id]
                label = repr(worker.id)
            else:
                body = None
            if body is None:
                continue
            for node, what in self._mutations(body):
                yield self.finding(
                    ctx, node,
                    f"worker {label} submitted to a pool {what}; workers "
                    "must return results and leave shared-state mutation "
                    "to the engine's fold-in method")


@register
class SharedStateMutation(Rule):
    """RPP003: no ``global`` mutation and no shared-RNG default args."""

    id = "RPP003"
    title = "shared mutable state"
    rationale = (
        "`global` rebinding from inside a function and RNGs created in a "
        "default argument are process-wide state: workers and repeated "
        "calls share one stream, so results depend on call ordering. "
        "Thread RNGs explicitly (repro.utils.rng.spawn).")

    _RNG_FACTORIES = ("default_rng", "as_generator", "RandomState")

    def _is_rng_factory(self, expr: ast.expr) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        func = expr.func
        if isinstance(func, ast.Name):
            return func.id in self._RNG_FACTORIES
        if isinstance(func, ast.Attribute):
            return func.attr in self._RNG_FACTORIES
        return False

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Global):
                yield self.finding(
                    ctx, node,
                    f"'global {', '.join(node.names)}' rebinds shared "
                    "module state from a function; pass state explicitly")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                defaults = list(node.args.defaults)
                defaults.extend(d for d in node.args.kw_defaults
                                if d is not None)
                for default in defaults:
                    if self._is_rng_factory(default):
                        yield self.finding(
                            ctx, default,
                            "RNG constructed in a default argument is "
                            "shared across every call; default to None and "
                            "coerce via repro.utils.rng.as_generator")


#: Attribute calls that block forever when called with no arguments.
#: Requiring *zero positional args* keeps the usual false positives out:
#: ``d.get(key)``, ``",".join(parts)`` and ``os.path.join(a, b)`` all
#: take positionals, while ``queue.get()``, ``future.result()`` and
#: ``thread.join()`` without a ``timeout=`` are unbounded waits.
_BLOCKING_ATTRS = ("get", "result", "join")


@register
class UnboundedBlockingCall(Rule):
    """RPP005: no unbounded blocking waits outside ``supervise/``."""

    id = "RPP005"
    title = "unbounded blocking call"
    rationale = (
        "queue.get(), Future.result() and Thread.join() with no timeout "
        "wait forever: one hung worker then wedges the whole engine, which "
        "is exactly the failure mode the supervision layer exists to "
        "prevent (docs/ROBUSTNESS.md).  All blocking waits belong in "
        "supervise/, the executor that owns the deadline machinery and "
        "bounds or abandons its waits; everywhere else, pass a timeout "
        "and handle the expiry.")

    def _exempt(self, ctx: ModuleContext) -> bool:
        sub = ctx.repro_subpath
        if sub is None:      # tests, benchmarks, tools — out of scope
            return True
        return sub.startswith("supervise/")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if self._exempt(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _BLOCKING_ATTRS):
                continue
            if node.args:
                continue  # positional args rule out the blocking overloads
            if any(kw.arg == "timeout" for kw in node.keywords):
                continue
            yield self.finding(
                ctx, node,
                f".{node.func.attr}() call with no timeout blocks "
                "unboundedly on a hung task; pass timeout= (and handle "
                "the expiry) or route the wait through repro.supervise")
