"""RPD rules: fixed-seed decision sequences must be reproducible.

Tuner decisions are a deterministic function of the seed and the
evaluation outcomes (docs/ROBUSTNESS.md); anything that injects ambient
state — the process-global RNG, the wall clock, hash-order iteration —
silently breaks resume parity and cross-run comparisons.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import ModuleContext
from ..findings import Finding
from ..registry import Rule, register

#: Legacy ``numpy.random`` module-level API (shared global state).  The
#: explicit-Generator API (``default_rng``, ``Generator``,
#: ``SeedSequence``, bit generators) is the sanctioned replacement and is
#: not listed here.
LEGACY_NUMPY_RANDOM = frozenset({
    "seed", "get_state", "set_state", "RandomState",
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "random_integers", "choice", "shuffle", "permutation",
    "bytes", "uniform", "normal", "standard_normal", "lognormal",
    "beta", "binomial", "exponential", "gamma", "poisson", "dirichlet",
    "multivariate_normal", "triangular", "weibull", "laplace",
})

#: Wall-clock reads that leak real time into decision paths.
_WALL_CLOCK_ATTRS = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns",
             "perf_counter", "perf_counter_ns", "process_time",
             "process_time_ns"},
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
}


def _attr_chain(node: ast.expr) -> list[str]:
    """``a.b.c`` -> ``["a", "b", "c"]`` (empty if not a pure name chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


@register
class GlobalNumpyRNG(Rule):
    """RPD001: no legacy ``np.random.<fn>`` global-RNG usage."""

    id = "RPD001"
    title = "legacy numpy global RNG"
    rationale = (
        "Decisions must flow from a seeded np.random.Generator threaded "
        "through call sites (repro.utils.rng); the module-level "
        "np.random API draws from shared process state, so results "
        "depend on import order and on unrelated components.")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if (len(chain) == 3 and chain[0] in ("np", "numpy")
                        and chain[1] == "random"
                        and chain[2] in LEGACY_NUMPY_RANDOM):
                    yield self.finding(
                        ctx, node,
                        f"call to global-RNG np.random.{chain[2]}(); thread "
                        "a seeded np.random.Generator instead "
                        "(repro.utils.rng.as_generator)")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name in LEGACY_NUMPY_RANDOM:
                            yield self.finding(
                                ctx, node,
                                f"import of global-RNG numpy.random."
                                f"{alias.name}; use the Generator API")


@register
class StdlibRandom(Rule):
    """RPD002: no stdlib ``random`` module."""

    id = "RPD002"
    title = "stdlib random module"
    rationale = (
        "random.* draws from a hidden module-global Mersenne Twister that "
        "cannot be threaded, snapshotted into the journal, or spawned for "
        "workers; all randomness goes through numpy Generators.")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            ctx, node,
                            "import of stdlib 'random'; use a seeded "
                            "np.random.Generator instead")
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                yield self.finding(
                    ctx, node,
                    "import from stdlib 'random'; use a seeded "
                    "np.random.Generator instead")


@register
class WallClockInDecisionPath(Rule):
    """RPD003: no wall-clock reads in decision-path modules."""

    id = "RPD003"
    title = "wall clock in decision path"
    rationale = (
        "core/, gp/, ml/ and tuners/ compute decisions that must replay "
        "bit-identically from the journal; reading the wall clock there "
        "makes decisions a function of machine speed.  Wall-clock "
        "accounting belongs to the guard/harness layers, which measure "
        "but never decide.")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_decision_path or ctx.is_module("core/guard.py"):
            # MedianGuard owns the repo's execution-time accounting.
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if len(chain) < 2:
                continue
            base, attr = chain[-2], chain[-1]
            if attr in _WALL_CLOCK_ATTRS.get(base, ()):
                yield self.finding(
                    ctx, node,
                    f"wall-clock read {'.'.join(chain)}() in a decision-path "
                    "module; decisions must depend only on seed and "
                    "journaled outcomes")


#: The monotonic-clock family: legitimate only inside the observability
#: layer (``obs/``) and the guard's execution-time accounting.
_MONOTONIC_FNS = frozenset({
    "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns",
    "process_time", "process_time_ns",
})


@register
class ClockOutsideObservability(Rule):
    """RPD005: monotonic-clock reads outside obs/ and core/guard.py."""

    id = "RPD005"
    title = "monotonic clock outside the observability layer"
    rationale = (
        "All timing flows through the tracer (repro.obs), which takes an "
        "injected clock: spans and tracer.timer() blocks are the sanctioned "
        "way to measure a component, and they keep timing out of decision "
        "paths and out of determinism tests.  A direct time.monotonic()/"
        "perf_counter() call anywhere else creates a second, untraceable "
        "timing source.  core/guard.py (the execution-time accountant) and "
        "supervise/ (deadlines are facts about real elapsed time; its "
        "clock is injected and it is documented as "
        "non-bit-reproducible) are the only exemptions.")

    _ALLOWED_MODULES = ("core/guard.py",)

    def _exempt(self, ctx: ModuleContext) -> bool:
        sub = ctx.repro_subpath
        if sub is None:      # tests, benchmarks, tools — out of scope
            return True
        return (sub.startswith(("obs/", "supervise/"))
                or ctx.is_module(*self._ALLOWED_MODULES))

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if self._exempt(ctx):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if (len(chain) >= 2 and chain[-2] == "time"
                        and chain[-1] in _MONOTONIC_FNS):
                    yield self.finding(
                        ctx, node,
                        f"direct {'.'.join(chain)}() call outside repro.obs; "
                        "time the block with tracer.timer()/tracer.span() "
                        "so the read stays inside the observability layer")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _MONOTONIC_FNS:
                        yield self.finding(
                            ctx, node,
                            f"import of time.{alias.name} outside repro.obs; "
                            "use tracer.timer()/tracer.span() instead")


def _is_unordered(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
            and expr.func.id in ("set", "frozenset")):
        return True
    return False


@register
class UnorderedIteration(Rule):
    """RPD004: no iteration over unordered set expressions."""

    id = "RPD004"
    title = "iteration over unordered set"
    rationale = (
        "Set iteration order depends on hash salting and insertion "
        "history, so feeding it into sampling or tie-breaking changes "
        "decisions between runs; wrap in sorted(...) to fix an order. "
        "(dict/dict.keys() iteration is insertion-ordered and allowed.)")

    _MATERIALIZERS = ("list", "tuple", "enumerate", "iter")

    def _offending_iters(self, node: ast.AST) -> Iterator[ast.expr]:
        if isinstance(node, ast.For) and _is_unordered(node.iter):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                if _is_unordered(gen.iter):
                    yield gen.iter
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in self._MATERIALIZERS
                and node.args and _is_unordered(node.args[0])):
            yield node.args[0]

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            for iter_expr in self._offending_iters(node):
                yield self.finding(
                    ctx, iter_expr,
                    "iterating an unordered set expression; wrap it in "
                    "sorted(...) so downstream tie-breaking/sampling is "
                    "order-stable")
