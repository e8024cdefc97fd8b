"""RPF rules: fault handling and journal discipline.

The resilience layer (docs/ROBUSTNESS.md) distinguishes transient faults
from config-caused failures and guarantees crash-safe resume.  Both
guarantees die quietly if exceptions are swallowed blind or evaluation
state is written to disk without the fsync'd journal protocol.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import ModuleContext
from ..findings import Finding
from ..registry import Rule, register

#: Modules that own durable file output: only the durable-write module
#: opens files for writing.  The journal, the trace sink, the session
#: store and the memo stores write through its fsync'd appender and
#: atomic replace; everything else must either go through them or carry
#: an explicit justification.
_OWNED_IO_MODULES = ("obs/durable.py",)


def _is_swallow_body(body: list[ast.stmt]) -> bool:
    """Handler body that discards the exception without acting on it."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis):
            continue
        return False
    return True


@register
class BlindExceptionHandler(Rule):
    """RPF001: no bare ``except:`` and no ``except Exception: pass``."""

    id = "RPF001"
    title = "blind exception handler"
    rationale = (
        "The fault injector tags failures as transient vs config-caused; "
        "a bare except (or a swallowed Exception) erases that signal, "
        "hides real bugs, and can eat KeyboardInterrupt/SystemExit. "
        "Catch the specific types the code can actually handle.")

    _BROAD = ("Exception", "BaseException")

    def _broad_names(self, type_expr: ast.expr | None) -> list[str]:
        if type_expr is None:
            return []
        exprs = type_expr.elts if isinstance(type_expr, ast.Tuple) \
            else [type_expr]
        return [e.id for e in exprs
                if isinstance(e, ast.Name) and e.id in self._BROAD]

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx, node,
                    "bare 'except:'; name the exception types this code "
                    "can actually recover from")
                continue
            broad = self._broad_names(node.type)
            if broad and _is_swallow_body(node.body):
                yield self.finding(
                    ctx, node,
                    f"'except {broad[0]}' swallows the error without "
                    "handling it; catch specific types or act on the "
                    "failure")


@register
class RawFileWrite(Rule):
    """RPF002: durable writes in ``src/repro`` must be owned."""

    id = "RPF002"
    title = "raw file write outside owned-I/O modules"
    rationale = (
        "Durable state goes through repro.obs.durable (the fsync'd JSONL "
        "appender behind EvaluationJournal and the trace writer, the "
        "atomic replace) so a crash loses at most "
        "the record in flight and never leaves a torn file; ad-hoc "
        "open(...).write/Path.write_text sites are where torn, "
        "un-fsync'd state sneaks in.  Other artifact writers must say "
        "what they write and why it is crash-tolerant.")

    _WRITE_MODES = frozenset("wax+")

    def _open_write_mode(self, call: ast.Call) -> bool:
        func = call.func
        if not (isinstance(func, ast.Name) and func.id == "open"):
            return False
        mode: ast.expr | None = None
        if len(call.args) >= 2:
            mode = call.args[1]
        for kw in call.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if mode is None:
            return False  # default mode "r"
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return any(ch in self._WRITE_MODES for ch in mode.value)
        return True  # dynamic mode: assume the worst

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_repro_package or ctx.is_module(*_OWNED_IO_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if self._open_write_mode(node):
                yield self.finding(
                    ctx, node,
                    "open(..., 'w'/'a') outside the owned-I/O modules; "
                    "evaluation state goes through EvaluationJournal, "
                    "other artifacts need a justified suppression")
            elif (isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("write_text", "write_bytes")):
                yield self.finding(
                    ctx, node,
                    f".{node.func.attr}() outside the owned-I/O modules; "
                    "evaluation state goes through EvaluationJournal, "
                    "other artifacts need a justified suppression")
