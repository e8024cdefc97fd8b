"""The refine is visible in the trace: ``bo.refine`` timer and
``bo.refine.evals`` counter.

A serial BO iteration that does not fall back to LHS polishes one sweep
winner per acquisition (PI, EI, LCB), so the timer counts three runs per
such iteration, and the counter counts each run's function evaluations,
one ``predict_with_gradient`` call apiece.
"""

from repro.core import bo
from repro.core.selection import ParameterSelector
from repro.core.tuner import ROBOTune
from repro.gp import GaussianProcessRegressor, LowRankGaussianProcessRegressor
from repro.obs import InMemorySink, Tracer
from repro.tuners.synthetic import SyntheticObjective, synthetic_space


def test_refine_timer_and_evals_counter(monkeypatch):
    calls = {"inside": 0, "evals": 0}
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
                calls["evals"] += 1
            return _original(self, x)
        monkeypatch.setattr(cls, "predict_with_gradient", counted)

    tuner = ROBOTune(selector=ParameterSelector(n_samples=12, n_trees=25,
                                                n_repeats=3, rng=7),
                     init_samples=4, rng=0)
    objective = SyntheticObjective(synthetic_space(6), n_effective=2,
                                   name="refine", rng=1)
    sink = InMemorySink()
    tracer = Tracer(sink)
    tuner.tune(objective, 8, rng=0, tracer=tracer)
    tracer.close()

    iterations = [r["data"] for r in sink.records
                  if r["kind"] == "event" and r["type"] == "bo.iteration"]
    polished = sum(not it["fallback"] for it in iterations)
    assert polished >= 2
    metrics = sink.records[-1]
    assert metrics["kind"] == "metrics"
    assert metrics["timers"]["bo.refine"]["count"] == 3 * polished
    assert metrics["counters"]["bo.refine.evals"] == calls["evals"] > 0
