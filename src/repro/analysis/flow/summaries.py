"""Per-function summaries: what each callable does to tracked entities.

A summary is the unit the dataflow pass composes: for every project
function it records, from one AST walk,

* **calls** — every call expression with its best-effort resolution to a
  project symbol (the call-graph edges);
* **RNG births** — local names bound from ``np.random.default_rng`` /
  ``as_generator`` (*fresh* streams) versus ``spawn``/``.spawn`` (*per-
  task children*, the sanctioned way to hand randomness to workers);
* **submit sites** — callables handed to a ``submit`` call (the BO
  loop's ``EvaluationSupervisor.submit``), with the free names each worker
  captures (closure loads plus lambda/def default values);
* **self mutations** — assignments, augmented assignments and in-place
  mutator calls on ``self.<attr>`` (the thread-ownership facts);
* **tracer calls** — ``.emit``/``.count``/``.timer``/``.span`` on a
  tracer-shaped receiver, with the literal name when there is one and
  whether the span/timer was entered via ``with`` (the event-contract
  facts);
* **opens** — write-mode ``open()`` calls outside ``with`` items and how
  their handles are stored (the resource-lifecycle facts).

Summaries never hold live AST references beyond the owning function's
nodes, and computing them is linear in the project size.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .graph import FunctionInfo, ProjectGraph, attr_chain

__all__ = ["CallSite", "SubmitSite", "TracerCall", "OpenSite",
           "FunctionSummary", "summarize", "worker_free_names"]

#: Call names that mint a *fresh* RNG stream.
FRESH_RNG_CALLS = frozenset({"default_rng", "as_generator", "RandomState"})

#: Call names that derive per-task child streams (sanctioned for workers).
SPAWN_RNG_CALLS = frozenset({"spawn", "spawn_view"})

#: Attribute names that submit a callable to a worker pool.
SUBMIT_ATTRS = frozenset({"submit"})

#: In-place mutator methods (mirrors RPP004's list).
MUTATORS = frozenset({"append", "extend", "add", "update", "pop", "remove",
                      "insert", "clear", "setdefault"})

#: Tracer method names the event-contract rule cares about.
TRACER_METHODS = frozenset({"emit", "count", "timer", "span"})

_WRITE_MODES = frozenset("wax+")


@dataclass(frozen=True)
class CallSite:
    """One call expression and its resolution (``None`` = external)."""

    lineno: int
    callee: str | None
    attr: str | None            # trailing attribute name, resolved or not
    arg_names: tuple[str | None, ...]        # positional args that are Names
    kwarg_names: tuple[tuple[str, str], ...]  # (kw name, Name arg) pairs


@dataclass(frozen=True)
class SubmitSite:
    """A callable crossing into a worker pool."""

    lineno: int
    col: int
    worker_label: str
    captured: tuple[str, ...]    # free names the worker closes over
    worker_qname: str | None     # resolved project function, if a bare name
    worker_calls: tuple[str, ...]  # resolved calls made inside the worker body


@dataclass(frozen=True)
class TracerCall:
    """One ``tracer.<method>(...)`` site."""

    lineno: int
    col: int
    method: str                  # emit | count | timer | span
    name: str | None             # literal first argument, if any
    literal: bool
    with_item: bool              # span/timer entered via a with statement


@dataclass(frozen=True)
class OpenSite:
    """A write-mode ``open()`` outside a ``with`` item."""

    lineno: int
    col: int
    target: str | None           # "self.<attr>" / local name / None (escapes)


@dataclass
class FunctionSummary:
    """Everything the dataflow pass needs to know about one function."""

    fn: FunctionInfo
    calls: list[CallSite] = field(default_factory=list)
    fresh_rngs: dict[str, int] = field(default_factory=dict)   # name -> line
    spawned_rngs: set[str] = field(default_factory=set)
    submit_sites: list[SubmitSite] = field(default_factory=list)
    self_mutations: list[tuple[str, int]] = field(default_factory=list)
    tracer_calls: list[TracerCall] = field(default_factory=list)
    opens: list[OpenSite] = field(default_factory=list)
    # Filled by the dataflow fixed point: parameters whose value reaches a
    # worker capture in this function or any project callee.
    escaping_params: set[str] = field(default_factory=set)

    @property
    def resolved_callees(self) -> set[str]:
        out = {c.callee for c in self.calls if c.callee is not None}
        for site in self.submit_sites:
            out.update(site.worker_calls)
        return out


def _is_rng_factory(call: ast.Call) -> tuple[bool, bool]:
    """(is fresh birth, is per-task spawn) for a call expression."""
    chain = attr_chain(call.func)
    if not chain:
        return False, False
    tail = chain[-1]
    if tail in SPAWN_RNG_CALLS:
        return False, True
    if tail in FRESH_RNG_CALLS:
        # np.random.default_rng / default_rng / rng_mod.as_generator.
        return True, False
    return False, False


def _local_defs(node: ast.AST) -> dict[str, ast.AST]:
    """Nested function definitions by name (one level is enough)."""
    out: dict[str, ast.AST] = {}
    for child in ast.walk(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and child is not node:
            out[child.name] = child
    return out


def _bound_names(node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
                 ) -> set[str]:
    args = node.args
    bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    if not isinstance(node, ast.Lambda):
        for child in ast.walk(node):
            if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = child.targets if isinstance(child, ast.Assign) \
                    else [child.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            bound.add(name.id)
            elif isinstance(child, (ast.For, ast.comprehension)):
                target = child.target
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        bound.add(name.id)
    return bound


def worker_free_names(worker: ast.AST) -> tuple[str, ...]:
    """Free names a worker callable captures from its defining scope.

    Covers closure loads (names read but never bound inside the worker)
    and default-argument values (``lambda r=runner: ...`` captures
    ``runner`` at creation time), which is how this repo's dispatch
    sites actually pass state in.
    """
    if not isinstance(worker, (ast.Lambda, ast.FunctionDef,
                               ast.AsyncFunctionDef)):
        return ()
    bound = _bound_names(worker)
    free: list[str] = []
    # ast.walk(worker) covers the body AND the default-value expressions
    # (defaults evaluate in the defining scope, so their names are
    # captures even though the parameters they initialise are bound).
    for node in ast.walk(worker):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and node.id not in bound and node.id not in free:
            free.append(node.id)
    return tuple(free)


def _calls_in(body: ast.AST, fn: FunctionInfo,
              project: ProjectGraph) -> tuple[str, ...]:
    """Resolved project calls made anywhere inside *body*."""
    out: list[str] = []
    for node in ast.walk(body):
        if isinstance(node, ast.Call):
            qname = project.resolve_call(node.func, fn)
            if qname is not None and qname not in out:
                out.append(qname)
    return tuple(out)


def _self_attr(expr: ast.AST) -> str | None:
    """Attribute name for expressions rooted at ``self.<attr>``."""
    node = expr
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return node.attr
        node = node.value
    return None


def _tracer_receiver(chain: list[str]) -> bool:
    """Whether an attribute chain reads like a tracer method call."""
    if len(chain) < 2:
        return False
    receiver = chain[-2]
    return receiver in ("tracer", "_tracer") or receiver.endswith("tracer")


def _open_write_mode(call: ast.Call) -> bool:
    func = call.func
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    mode: ast.expr | None = call.args[1] if len(call.args) >= 2 else None
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(ch in _WRITE_MODES for ch in mode.value)
    return True


def _with_item_calls(fn_node: ast.AST) -> set[int]:
    """ids of call nodes that appear as ``with`` context expressions."""
    out: set[int] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    out.add(id(expr))
    return out


def _summarize_submit(call: ast.Call, fn: FunctionInfo,
                      project: ProjectGraph,
                      local_defs: dict[str, ast.AST]) -> SubmitSite:
    worker = call.args[0]
    captured: tuple[str, ...] = ()
    worker_qname: str | None = None
    worker_calls: tuple[str, ...] = ()
    if isinstance(worker, ast.Lambda):
        label = "lambda"
        captured = worker_free_names(worker)
        worker_calls = _calls_in(worker, fn, project)
    elif isinstance(worker, ast.Name):
        label = repr(worker.id)
        nested = local_defs.get(worker.id)
        if nested is not None:
            captured = worker_free_names(nested)
            worker_calls = _calls_in(nested, fn, project)
        else:
            worker_qname = project.resolve_call(worker, fn)
            captured = (worker.id,)
    else:
        label = ast.unparse(worker) if hasattr(ast, "unparse") else "<expr>"
        chain = attr_chain(worker)
        if chain and chain[0] in ("self", "cls"):
            worker_qname = project.resolve_call(worker, fn)
    return SubmitSite(lineno=call.lineno, col=call.col_offset + 1,
                      worker_label=label, captured=captured,
                      worker_qname=worker_qname, worker_calls=worker_calls)


def summarize(fn: FunctionInfo,
              project: ProjectGraph) -> FunctionSummary:
    """Compute the summary of one project function."""
    summary = FunctionSummary(fn=fn)
    node = fn.node
    local_defs = _local_defs(node)
    with_calls = _with_item_calls(node)
    for child in ast.walk(node):
        if isinstance(child, (ast.Assign, ast.AugAssign)):
            targets = child.targets if isinstance(child, ast.Assign) \
                else [child.target]
            value = child.value
            if isinstance(value, ast.Call):
                fresh, spawned = _is_rng_factory(value)
                for target in targets:
                    if isinstance(target, ast.Name):
                        if fresh:
                            summary.fresh_rngs[target.id] = child.lineno
                            summary.spawned_rngs.discard(target.id)
                        elif spawned:
                            summary.spawned_rngs.add(target.id)
                            summary.fresh_rngs.pop(target.id, None)
            # spawn(...)[i] / spawn(...) unpacking marks every target clean.
            if isinstance(value, ast.Subscript) \
                    and isinstance(value.value, ast.Call):
                _, spawned = _is_rng_factory(value.value)
                if spawned:
                    for target in targets:
                        if isinstance(target, ast.Name):
                            summary.spawned_rngs.add(target.id)
                            summary.fresh_rngs.pop(target.id, None)
            for target in targets:
                attr = _self_attr(target)
                if attr is not None:
                    summary.self_mutations.append((attr, child.lineno))
        if not isinstance(child, ast.Call):
            continue
        call = child
        chain = attr_chain(call.func)
        # -- submit sites -----------------------------------------------------
        if chain and chain[-1] in SUBMIT_ATTRS and len(chain) >= 2 \
                and call.args:
            summary.submit_sites.append(
                _summarize_submit(call, fn, project, local_defs))
        # -- tracer calls -----------------------------------------------------
        if chain and chain[-1] in TRACER_METHODS and _tracer_receiver(chain):
            first = call.args[0] if call.args else None
            literal = isinstance(first, ast.Constant) \
                and isinstance(first.value, str)
            summary.tracer_calls.append(TracerCall(
                lineno=call.lineno, col=call.col_offset + 1,
                method=chain[-1],
                name=first.value if literal else None,  # type: ignore[union-attr]
                literal=literal, with_item=id(call) in with_calls))
        # -- mutator calls on self.<attr> -------------------------------------
        if (isinstance(call.func, ast.Attribute)
                and call.func.attr in MUTATORS):
            attr = _self_attr(call.func.value)
            if attr is not None:
                summary.self_mutations.append((attr, call.lineno))
        # -- write-mode opens outside with ------------------------------------
        if _open_write_mode(call) and id(call) not in with_calls:
            summary.opens.append(OpenSite(
                lineno=call.lineno, col=call.col_offset + 1,
                target=_open_target(call, node)))
        # -- the call graph edge ----------------------------------------------
        callee = project.resolve_call(call.func, fn)
        arg_names = tuple(a.id if isinstance(a, ast.Name) else None
                          for a in call.args)
        kwarg_names = tuple((kw.arg, kw.value.id) for kw in call.keywords
                            if kw.arg is not None
                            and isinstance(kw.value, ast.Name))
        summary.calls.append(CallSite(
            lineno=call.lineno, callee=callee,
            attr=chain[-1] if chain else None,
            arg_names=arg_names, kwarg_names=kwarg_names))
    return summary


def _open_target(call: ast.Call, fn_node: ast.AST) -> str | None:
    """How an open() result is stored: self attr, local name, or escape."""
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Assign) and node.value is call:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    return target.id
                attr = _self_attr(target)
                if attr is not None:
                    return f"self.{attr}"
    return None


def summarize_project(project: ProjectGraph) -> dict[str, FunctionSummary]:
    """Summaries for every project function, keyed by qname."""
    return {fn.qname: summarize(fn, project)
            for fn in project.iter_functions()}
