"""The layers the traced run times, and how their spans become metrics.

:func:`install` wraps each layer's public entry points at class or
module level with a :class:`~spans.SpanRecorder`, from the benchmark's
own files; :meth:`Patches.restore` puts the originals back.  Wrappers
only observe: they pass arguments and results through untouched, which
the digest comparison between traced and untraced runs checks.

:data:`LAYERS` records, per layer, the per-layer metrics it produces,
the entry points behind them and the end-to-end metrics a change there
should move (and on which workload), so later changes can cite both by
name.  Per-layer times and counts are means per session.
"""

from __future__ import annotations

import functools
from importlib import import_module
from typing import Any, Callable

from spans import Span, SpanRecorder, self_times, unattributed

__all__ = ["LAYERS", "PER_LAYER_METRICS", "Patches", "install",
           "layer_metrics"]

#: layer -> (per-layer metrics, entry points timed, what should move).
LAYERS: dict[str, tuple[tuple[str, ...], str, str]] = {
    "repro.core.selection": (
        ("selection.collect_s", "selection.select_s"),
        "ParameterSelector.collect, .select",
        "session_s, session_cpu_s on cold, less on serve"),
    "repro.ml": (
        ("forest.fit_s", "forest.oob_s", "importance_s", "tree.predict_s",
         "tree.predict_calls", "tree.predict_rows"),
        "RandomForestRegressor.fit, .oob_score, "
        "grouped_permutation_importance as bound in repro.core.selection, "
        "DecisionTreeRegressor.predict (count, rows and summed time only)",
        "same as repro.core.selection"),
    "repro.core.bo": (
        ("bo.minimize_s", "bo.self_s", "bo.iterations", "bo.fallbacks",
         "bo.refine_s", "bo.refine_calls", "bo.refine_fevals"),
        "BOEngine.minimize (reading .fallbacks and .records afterwards); "
        "the scipy minimize bound in repro.core.bo (the refine)",
        "decide_ms_p50 on cold and serve; session_s on both"),
    "repro.gp": (
        ("gp.hyperopt_s", "gp.hyperopts", "gp.refit_s", "gp.refits",
         "gp.sweep_s", "gp.sweep_points", "gp.point_predicts"),
        ".fit/.update of GaussianProcessRegressor and "
        "LowRankGaussianProcessRegressor split by their optimize flag; "
        ".predict(return_std=True); .fast_predict and "
        ".predict_with_gradient (count only)",
        "hyperopt -> decide_ms_p95; sweep and point predicts -> "
        "decide_ms_p50; both on cold and serve"),
    "repro.core.hedge": (
        ("hedge_s",),
        "GPHedge.choose, .update",
        "decide_ms_p50 (small)"),
    "repro.sparksim": (
        ("sim.run_s", "sim.runs", "sim.nonok_runs"),
        "SparkSimulator.run, .run_batch",
        "session_s everywhere at about 3%; a change here should stay "
        "inside the bounds on both workloads"),
    "repro.core.journal": (
        ("journal.append_s", "journal.records"),
        "EvaluationJournal.append_dispatch, .append (both fsync)",
        "session_s, session_cpu_s, sessions_per_hour on serve only"),
    "repro.obs": (
        ("trace.write_s", "trace.records"),
        "JsonlTraceWriter.write",
        "serve only"),
    "repro.serve": (
        ("store.submit_s", "store.claim_s", "store.claim_hit_ratio",
         "store.settle_s", "store.view_s", "serve.claim_wait_s",
         "serve.run_s", "serve.settle_wait_s", "serve.polls_per_session"),
        "SessionStore.submit, .claim, .complete, .view; run_session as "
        "bound in repro.serve.daemon; ServiceClient.status",
        "serve only"),
    "session": (
        ("unattributed_s", "trace_overhead"),
        "none: session wall time minus its top-level layer spans, and "
        "traced over untraced session_s",
        "none"),
}

PER_LAYER_METRICS: tuple[str, ...] = tuple(
    name for metrics, _, _ in LAYERS.values() for name in metrics)

_GP_FITS = ("gp.hyperopt", "gp.refit")


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any, bool]] = []

    def replace(self, owner: Any, attr: str,
                make: Callable[[Callable], Callable]) -> None:
        own = attr in vars(owner)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _timed(rec: SpanRecorder, name: str | Callable[..., str], *,
           after: Callable[..., None] | None = None,
           tag: Callable[..., str | None] | None = None):
    """Wrapper factory: one span per call, named by *name* (or by
    ``name(*args, **kwargs)``), then ``after(result, *args, **kwargs)``
    for counters and ``tag(result, *args, **kwargs)`` for the session
    id when the call itself names it."""

    def make(fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with rec.span(label) as span:
                result = fn(*args, **kwargs)
            if tag is not None:
                span.session = tag(result, *args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper
    return make


def install(rec: SpanRecorder) -> Patches:
    """Wrap every entry point of :data:`LAYERS` that this process can
    reach; returns the patches so the caller can restore them."""
    p = Patches()
    selection = import_module("repro.core.selection")
    p.replace(selection.ParameterSelector, "collect",
              _timed(rec, "selection.collect"))
    p.replace(selection.ParameterSelector, "select",
              _timed(rec, "selection.select"))

    forest = import_module("repro.ml.forest")
    tree = import_module("repro.ml.tree")
    p.replace(forest.RandomForestRegressor, "fit", _timed(rec, "forest.fit"))
    p.replace(forest.RandomForestRegressor, "oob_score",
              _timed(rec, "forest.oob"))
    p.replace(selection, "grouped_permutation_importance",
              _timed(rec, "importance"))

    def tree_predict(fn):
        def wrapper(self, X):
            t0 = rec.clock()
            out = fn(self, X)
            rec.count("tree.predict_s", rec.clock() - t0)
            rec.count("tree.predict_calls")
            rec.count("tree.predict_rows", len(X))
            return out
        return wrapper
    p.replace(tree.DecisionTreeRegressor, "predict", tree_predict)

    bo = import_module("repro.core.bo")

    def minimize_span(fn):
        timed = _timed(rec, "bo.minimize")(fn)

        def wrapper(self, *args, **kwargs):
            iterations, fallbacks = len(self.records), self.fallbacks
            try:
                return timed(self, *args, **kwargs)
            finally:
                rec.count("bo.iterations", len(self.records) - iterations)
                rec.count("bo.fallbacks", self.fallbacks - fallbacks)
        return wrapper
    p.replace(bo.BOEngine, "minimize", minimize_span)

    def refine_done(res, *args, **kwargs):
        rec.count("bo.refine_calls")
        rec.count("bo.refine_fevals", int(res.nfev))
    p.replace(bo, "minimize", _timed(rec, "bo.refine", after=refine_done))

    for cls in (import_module("repro.gp.gpr").GaussianProcessRegressor,
                import_module("repro.gp.lowrank")
                .LowRankGaussianProcessRegressor):
        for method in ("fit", "update"):
            p.replace(cls, method, _gp_fit(rec))
        p.replace(cls, "predict", _gp_predict(rec))
        for method in ("fast_predict", "predict_with_gradient"):
            p.replace(cls, method, _counted(rec, "gp.point_predicts"))

    hedge = import_module("repro.core.hedge")
    p.replace(hedge.GPHedge, "choose", _timed(rec, "hedge"))
    p.replace(hedge.GPHedge, "update", _timed(rec, "hedge"))

    def sim_done(result, *args, **kwargs):
        results = result if isinstance(result, list) else [result]
        rec.count("sim.runs", len(results))
        rec.count("sim.nonok_runs", sum(not r.ok for r in results))
    sim = import_module("repro.sparksim.simulator").SparkSimulator
    p.replace(sim, "run", _timed(rec, "sim.run", after=sim_done))
    p.replace(sim, "run_batch", _timed(rec, "sim.run", after=sim_done))

    journal = import_module("repro.core.journal").EvaluationJournal
    p.replace(journal, "append_dispatch", _timed(rec, "journal.append"))
    p.replace(journal, "append", _timed(rec, "journal.append"))
    p.replace(import_module("repro.obs.sinks").JsonlTraceWriter, "write",
              _timed(rec, "trace.write"))

    # The benchmark's own speed kernel, so that it is not unattributed.
    p.replace(import_module("clock"), "reference_s", _timed(rec, "reference"))

    _install_serve(rec, p)
    return p


def _gp_fit(rec: SpanRecorder):
    """fit/update span named by the optimize flag; a fit that update
    falls back to stays inside the outer span."""

    def make(fn):
        timed = _timed(rec, lambda self, *a, **k: "gp.hyperopt"
                       if self.optimize else "gp.refit")(fn)

        def wrapper(self, *args, **kwargs):
            inner = rec.innermost()
            if inner is not None and inner.name in _GP_FITS:
                return fn(self, *args, **kwargs)
            return timed(self, *args, **kwargs)
        return wrapper
    return make


def _gp_predict(rec: SpanRecorder):
    def make(fn):
        timed = _timed(rec, "gp.sweep")(fn)

        def wrapper(self, X, *args, **kwargs):
            if not kwargs.get("return_std", args[0] if args else False):
                return fn(self, X, *args, **kwargs)
            rec.count("gp.sweep_points", len(X))
            return timed(self, X, *args, **kwargs)
        return wrapper
    return make


def _counted(rec: SpanRecorder, counter: str):
    def make(fn):
        def wrapper(*args, **kwargs):
            rec.count(counter)
            return fn(*args, **kwargs)
        return wrapper
    return make


def _install_serve(rec: SpanRecorder, p: Patches) -> None:
    store = import_module("repro.serve.store").SessionStore

    def claimed(claim, *args, **kwargs):
        rec.count("store.claims")
        rec.count("store.claim_hits", claim is not None)
        # Later spans on this worker thread belong to the claimed session.
        rec.current_session = claim.sid if claim is not None else None

    p.replace(store, "submit",
              _timed(rec, "store.submit", tag=lambda sid, *a, **k: sid))
    p.replace(store, "claim",
              _timed(rec, "store.claim", after=claimed,
                     tag=lambda c, *a, **k: c.sid if c is not None else None))
    p.replace(store, "complete",
              _timed(rec, "store.settle",
                     tag=lambda r, self, claim, *a, **k: claim.sid))
    p.replace(store, "view",
              _timed(rec, "store.view", tag=lambda r, self, sid: sid))
    p.replace(import_module("repro.serve.daemon"), "run_session",
              _timed(rec, "serve.run"))
    p.replace(import_module("repro.serve.client").ServiceClient, "status",
              _timed(rec, "client.status", tag=lambda r, self, sid: sid))


# -- metrics -----------------------------------------------------------------------
_SPAN_TOTALS = {
    "selection.collect_s": "selection.collect",
    "selection.select_s": "selection.select",
    "forest.fit_s": "forest.fit",
    "forest.oob_s": "forest.oob",
    "importance_s": "importance",
    "bo.minimize_s": "bo.minimize",
    "bo.refine_s": "bo.refine",
    "gp.hyperopt_s": "gp.hyperopt",
    "gp.refit_s": "gp.refit",
    "gp.sweep_s": "gp.sweep",
    "hedge_s": "hedge",
    "sim.run_s": "sim.run",
    "journal.append_s": "journal.append",
    "trace.write_s": "trace.write",
    "store.submit_s": "store.submit",
    "store.claim_s": "store.claim",
    "store.settle_s": "store.settle",
    "store.view_s": "store.view",
    "serve.run_s": "serve.run",
}

_SPAN_COUNTS = {
    "gp.hyperopts": "gp.hyperopt",
    "gp.refits": "gp.refit",
    "journal.records": "journal.append",
    "trace.records": "trace.write",
    "serve.polls_per_session": "client.status",
}

_COUNTERS = ("tree.predict_s", "tree.predict_calls", "tree.predict_rows",
             "bo.iterations", "bo.fallbacks", "bo.refine_calls",
             "bo.refine_fevals", "gp.sweep_points", "gp.point_predicts",
             "sim.runs", "sim.nonok_runs")


def layer_metrics(spans: list[Span], counters: dict[str, float],
                  sessions: list[Span],
                  waits: dict[str, float] | None = None) -> dict[str, float]:
    """Per-session means of every per-layer metric but ``trace_overhead``.

    *sessions* holds one span per session covering its wall time (the
    ``tune`` call, or submit to DONE as the client saw it); *waits*
    carries the serve poll waits, which no single span measures.
    """
    n = len(sessions)
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    for s in spans:
        totals[s.name] = totals.get(s.name, 0.0) + s.duration
        counts[s.name] = counts.get(s.name, 0) + 1
    out = {metric: totals.get(name, 0.0) / n
           for metric, name in _SPAN_TOTALS.items()}
    out.update({metric: counts.get(name, 0) / n
                for metric, name in _SPAN_COUNTS.items()})
    out.update({name: counters.get(name, 0.0) / n for name in _COUNTERS})
    own = self_times(spans)
    out["bo.self_s"] = sum(own[s.id] for s in spans
                           if s.name == "bo.minimize") / n
    claims = counters.get("store.claims", 0.0)
    out["store.claim_hit_ratio"] = (counters.get("store.claim_hits", 0.0)
                                    / claims if claims else 0.0)
    out["serve.claim_wait_s"] = (waits or {}).get("claim_wait_s", 0.0)
    out["serve.settle_wait_s"] = (waits or {}).get("settle_wait_s", 0.0)
    out["unattributed_s"] = sum(
        unattributed(sess, _top_level(spans, sess)) for sess in sessions) / n
    return out


def _top_level(spans: list[Span], session: Span) -> list[Span]:
    """Layer spans directly under *session*: its children in-process, or
    spans tagged with its id that opened no deeper than their thread's
    top (another process's share of a served session)."""
    return [s for s in spans if s.id != session.id and s.name != "session"
            and (s.parent == session.id
                 or (s.parent is None and s.session == session.session))]
