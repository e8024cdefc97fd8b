"""The refine and the likelihood fit are visible in the trace.

A serial BO iteration that does not fall back to LHS polishes one sweep
winner per acquisition (PI, EI, LCB), all three in one lockstep run, so
the ``bo.refine`` timer counts one run per such iteration and the
``bo.refine.evals`` counter counts the points those runs evaluated: the
rows of their batched ``predict_with_gradient`` calls.  Each polished
proposal also emits one ``acq.nominees`` event, and its candidate
sweep's posterior adds one entry to the ``gp.sweep`` timer.
Hyperparameter fits add to the ``gp.hyperopt`` timer and their
likelihood evaluations to the ``gp.hyperopt.evals`` counter.
"""

import numpy as np

from repro.core import bo
from repro.core.selection import ParameterSelector
from repro.core.tuner import ROBOTune
from repro.gp import GaussianProcessRegressor, LowRankGaussianProcessRegressor
from repro.obs import InMemorySink, Tracer
from repro.tuners.synthetic import SyntheticObjective, synthetic_space


def traced_session(monkeypatch):
    calls = {"inside": 0, "evals": 0, "thetas": 0, "fits": 0}
    refine = bo.BOEngine._refine

    def counted_refine(self, *args, **kwargs):
        calls["inside"] += 1
        try:
            return refine(self, *args, **kwargs)
        finally:
            calls["inside"] -= 1
    monkeypatch.setattr(bo.BOEngine, "_refine", counted_refine)
    for cls in (GaussianProcessRegressor, LowRankGaussianProcessRegressor):
        original = cls.predict_with_gradient

        def counted(self, x, _original=original):
            if calls["inside"]:
                calls["evals"] += len(np.atleast_2d(x))
            return _original(self, x)
        monkeypatch.setattr(cls, "predict_with_gradient", counted)
    nll = GaussianProcessRegressor._nll_and_grad
    optimize = GaussianProcessRegressor._optimize_theta

    def counted_nll(self, theta):
        calls["thetas"] += len(np.atleast_2d(theta))
        return nll(self, theta)

    def counted_optimize(self):
        calls["fits"] += 1
        return optimize(self)
    monkeypatch.setattr(GaussianProcessRegressor, "_nll_and_grad",
                        counted_nll)
    monkeypatch.setattr(GaussianProcessRegressor, "_optimize_theta",
                        counted_optimize)

    tuner = ROBOTune(selector=ParameterSelector(n_samples=12, n_trees=25,
                                                n_repeats=3, rng=7),
                     init_samples=4, rng=0)
    objective = SyntheticObjective(synthetic_space(6), n_effective=2,
                                   name="refine", rng=1)
    sink = InMemorySink()
    tracer = Tracer(sink)
    tuner.tune(objective, 8, rng=0, tracer=tracer)
    tracer.close()
    return sink.records, calls


def test_refine_timer_and_evals_counter(monkeypatch):
    records, calls = traced_session(monkeypatch)
    iterations = [r["data"] for r in records
                  if r["kind"] == "event" and r["type"] == "bo.iteration"]
    polished = sum(not it["fallback"] for it in iterations)
    assert polished >= 2
    metrics = records[-1]
    assert metrics["kind"] == "metrics"
    assert metrics["timers"]["bo.refine"]["count"] == polished
    assert metrics["counters"]["bo.refine.evals"] == calls["evals"] > 0


def test_nominees_event_per_polished_proposal(monkeypatch):
    records, _ = traced_session(monkeypatch)
    iterations = [r["data"] for r in records
                  if r["kind"] == "event" and r["type"] == "bo.iteration"]
    events = [r["data"]["nominees"] for r in records
              if r["kind"] == "event" and r["type"] == "acq.nominees"]
    assert len(events) == sum(not it["fallback"] for it in iterations)
    for nominees in events:
        assert [n["acq"] for n in nominees] == ["PI", "EI", "LCB"]
        for n in nominees:
            assert len(n["point"]) > 0
            assert all(0.0 <= v <= 1.0 for v in n["point"])
            assert n["replaced"] == (n["polished_util"] > n["sweep_util"])


def test_hyperopt_timer_and_evals_counter(monkeypatch):
    records, calls = traced_session(monkeypatch)
    metrics = records[-1]
    assert metrics["timers"]["gp.hyperopt"]["count"] == calls["fits"] > 0
    assert metrics["counters"]["gp.hyperopt.evals"] == calls["thetas"] > 0


def test_sweep_timer_one_entry_per_proposal(monkeypatch):
    records, _ = traced_session(monkeypatch)
    iterations = [r["data"] for r in records
                  if r["kind"] == "event" and r["type"] == "bo.iteration"]
    proposals = sum(not it["fallback"] for it in iterations)
    timers = records[-1]["timers"]
    assert timers["gp.sweep"]["count"] == proposals >= 2
    assert timers["gp.sweep"]["total_s"] > 0.0
