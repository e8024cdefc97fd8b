"""Forward dataflow over function summaries.

Two interprocedural facts are computed here, both as small fixed points
over the call graph:

* **escaping parameters** — a parameter *escapes* when its value is
  captured by a worker callable submitted inside the function, or when
  it is passed (positionally or by keyword) to a project callee whose
  corresponding parameter escapes.  This is the relation that lets
  RPX001 trace a freshly-minted RNG through any number of plain calls
  into an ``EvaluationSupervisor.submit`` in another module.
* **worker reachability** — the set of project functions reachable from
  a worker callable's body through resolved call edges.  RPX002 uses it
  to find engine-state mutations that run on worker threads even though
  no single module shows both the submit and the mutation.

Both passes are conservative in the safe direction: unresolved calls
grow no edges, so the analysis under-approximates reachability and
never invents a path that cannot exist in the project source.
"""

from __future__ import annotations

from .graph import ProjectGraph
from .summaries import FunctionSummary

__all__ = ["propagate_escapes", "reachable_from",
           "tainted_args_at_call_sites"]

#: Fixed-point iteration cap (the lattice is tiny; this never binds in
#: practice, it just bounds pathological fixture graphs).
_MAX_ROUNDS = 16

#: BFS depth cap for worker reachability.
_MAX_DEPTH = 12


def propagate_escapes(summaries: dict[str, FunctionSummary]) -> None:
    """Fill every summary's ``escaping_params`` to a fixed point.

    Base case: a parameter captured by a worker at one of the function's
    own submit sites.  Inductive case: a parameter forwarded to a
    project callee at a position/keyword whose parameter escapes.
    """
    # Base case.
    for summary in summaries.values():
        params = set(summary.fn.param_names)
        for site in summary.submit_sites:
            for name in site.captured:
                if name in params:
                    summary.escaping_params.add(name)
    # Fixed point over forwarded arguments.
    for _ in range(_MAX_ROUNDS):
        changed = False
        for summary in summaries.values():
            params = set(summary.fn.param_names)
            for call in summary.calls:
                if call.callee is None:
                    continue
                callee = summaries.get(call.callee)
                if callee is None:
                    continue
                callee_params = callee.fn.param_names
                offset = 1 if callee.fn.cls is not None else 0
                for pos, arg in enumerate(call.arg_names):
                    if arg is None or arg not in params:
                        continue
                    idx = pos + offset
                    if idx < len(callee_params) \
                            and callee_params[idx] in callee.escaping_params \
                            and arg not in summary.escaping_params:
                        summary.escaping_params.add(arg)
                        changed = True
                for kw, arg in call.kwarg_names:
                    if arg in params and kw in callee.escaping_params \
                            and arg not in summary.escaping_params:
                        summary.escaping_params.add(arg)
                        changed = True
        if not changed:
            break


def reachable_from(roots: tuple[str, ...],
                   summaries: dict[str, FunctionSummary],
                   project: ProjectGraph
                   ) -> dict[str, tuple[str, ...]]:
    """Project functions reachable from *roots*, with one witness path.

    Returns ``{qname: (root, ..., qname)}`` — the first discovered call
    chain, used to render an explainable finding message.
    """
    paths: dict[str, tuple[str, ...]] = {}
    frontier: list[tuple[str, tuple[str, ...]]] = [
        (root, (root,)) for root in roots if root in summaries]
    depth = 0
    while frontier and depth < _MAX_DEPTH:
        next_frontier: list[tuple[str, tuple[str, ...]]] = []
        for qname, path in frontier:
            if qname in paths:
                continue
            paths[qname] = path
            summary = summaries.get(qname)
            if summary is None:
                continue
            for callee in sorted(summary.resolved_callees):
                if callee not in paths:
                    next_frontier.append((callee, path + (callee,)))
        frontier = next_frontier
        depth += 1
    return paths


def tainted_args_at_call_sites(summary: FunctionSummary,
                               summaries: dict[str, FunctionSummary]
                               ) -> list[tuple[int, str, str, str]]:
    """Fresh-RNG locals handed to callees whose parameter escapes.

    Returns ``(lineno, rng name, callee qname, callee param)`` tuples —
    the cross-module half of RPX001 (the local half is a fresh RNG
    captured directly at a submit site).
    """
    out: list[tuple[int, str, str, str]] = []
    fresh = set(summary.fresh_rngs)
    if not fresh:
        return out
    for call in summary.calls:
        if call.callee is None:
            continue
        callee = summaries.get(call.callee)
        if callee is None or not callee.escaping_params:
            continue
        callee_params = callee.fn.param_names
        offset = 1 if callee.fn.cls is not None else 0
        for pos, arg in enumerate(call.arg_names):
            if arg is None or arg not in fresh:
                continue
            idx = pos + offset
            if idx < len(callee_params) \
                    and callee_params[idx] in callee.escaping_params:
                out.append((call.lineno, arg, call.callee,
                            callee_params[idx]))
        for kw, arg in call.kwarg_names:
            if arg in fresh and kw in callee.escaping_params:
                out.append((call.lineno, arg, call.callee, kw))
    return out
