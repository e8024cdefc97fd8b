"""Tests for the asynchronous BO engine (``async_workers=k``).

The contract under test (docs/PERFORMANCE.md):

* ``async_workers`` 0 and 1 are the serial loop — never more than one
  point in flight, objective called on the serial pool backend — and
  must reproduce the serial engine's decision digests bit-for-bit.
* ``k > 1`` keeps up to k evaluations in flight, folds completions
  immediately, and penalizes busy points out of the acquisition; results
  then depend on completion order, so only structural invariants hold.
* Objectives without class-level ``spawn_view()`` degrade to one worker
  with an audible warning and a ``batch.serial_fallback`` event/counter
  (they used to serialize silently).
"""

import hashlib
import warnings

import numpy as np
import pytest

from repro.core import BOEngine, MedianGuard
from repro.obs import InMemorySink, Tracer
from repro.sampling import latin_hypercube
from repro.tuners import SyntheticObjective, synthetic_space


def make_problem(dim=6, seed=0, noise=0.01):
    space = synthetic_space(dim)
    objective = SyntheticObjective(space, n_effective=min(3, dim),
                                   noise=noise, rng=seed)
    U = latin_hypercube(8, dim, rng=seed + 100)
    initial = [objective(u) for u in U]
    return space, objective, initial


def eval_sequence(evals):
    """Bit-exact fingerprint of a decision sequence."""
    return [(e.vector.tobytes(), float(e.objective)) for e in evals]


#: Decision-sequence digests of the serial engine (``async_workers=0``)
#: recorded before serial became the one loop at one worker.  Both 0 and
#: 1 must keep reproducing them; never re-pin without a decision change
#: that is meant to happen.  "plain" was re-pinned on purpose when the
#: analytic-gradient refine and rank-k refits became the only path;
#: "guard" and "early_stop" run with refine=False and held.
SERIAL_GOLDEN = {
    "plain": "2ea621a7f7bbb337",
    "guard": "d45922d98a52a621",
    "early_stop": "0569457802450fce",
}


def digest(evals, names=()):
    """sha256 over (vector bytes, objective bytes[, acquisition names])."""
    h = hashlib.sha256()
    for e in evals:
        h.update(np.ascontiguousarray(
            np.asarray(e.vector, dtype=float)).tobytes())
        h.update(np.float64(e.objective).tobytes())
    for name in names:
        h.update(name.encode())
    return h.hexdigest()[:16]


class TestSingleWorkerParity:
    def test_k1_matches_serial_engine_bitwise(self):
        for async_workers in (0, 1):
            space, objective, initial = make_problem(seed=1)
            engine = BOEngine(rng=0, n_candidates=64,
                              async_workers=async_workers)
            evals = engine.minimize(objective, space, initial, budget=14)
            names = [r.chosen_acquisition for r in engine.records]
            assert digest(evals, names) == SERIAL_GOLDEN["plain"]

    def test_k1_parity_with_guard(self):
        for async_workers in (0, 1):
            space, objective, initial = make_problem(seed=2)
            engine = BOEngine(rng=3, n_candidates=64, refine=False,
                              async_workers=async_workers)
            guard = MedianGuard()
            evals = engine.minimize(objective, space, initial, budget=10,
                                    guard=guard)
            assert digest(evals) == SERIAL_GOLDEN["guard"]

    def test_k1_parity_with_early_stop(self):
        for async_workers in (0, 1):
            space, objective, initial = make_problem(seed=4)
            engine = BOEngine(rng=5, n_candidates=64, refine=False,
                              early_stop_patience=3,
                              async_workers=async_workers)
            evals = engine.minimize(objective, space, initial, budget=40)
            assert digest(evals) == SERIAL_GOLDEN["early_stop"]
            assert len(evals) < 40  # the patience actually fired


class TestMultiWorker:
    def test_respects_budget_and_records(self):
        space, objective, initial = make_problem(seed=6)
        guard = MedianGuard(3.0, static_limit_s=480.0)
        engine = BOEngine(rng=7, n_candidates=64, refine=False,
                          async_workers=3)
        gains = engine.hedge.gains.copy()
        evals = engine.minimize(objective, space, initial, budget=11,
                                guard=guard)
        assert len(evals) == 11
        assert len(engine.records) == 11
        assert objective.n_evaluations == len(initial) + 11
        assert [r.iteration for r in engine.records] == list(range(11))
        for rec, ev in zip(engine.records, evals):
            assert rec.objective == ev.objective
        # Every fold charges the guard (successes shape the median) and
        # the Hedge gains.
        assert len(guard._times) == sum(e.ok for e in initial + evals)
        assert not np.array_equal(engine.hedge.gains, gains)

    def test_improves_over_initial_design(self):
        space, objective, initial = make_problem(seed=8)
        engine = BOEngine(rng=9, n_candidates=128, async_workers=2)
        evals = engine.minimize(objective, space, initial, budget=25)
        assert min(e.objective for e in evals) < \
            min(e.objective for e in initial)

    def test_emits_dispatch_and_fold_events(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        space, objective, initial = make_problem(seed=10)
        engine = BOEngine(rng=11, n_candidates=64, refine=False,
                          async_workers=3, tracer=tracer)
        engine.minimize(objective, space, initial, budget=9)
        dispatches = [e for e in sink.events()
                      if e["type"] == "async.dispatch"]
        folds = [e for e in sink.events() if e["type"] == "async.fold"]
        assert len(dispatches) == 9
        assert len(folds) == 9
        # In-flight depth is bounded by k and reaches it at least once.
        depths = [e["data"]["in_flight"] for e in dispatches]
        assert max(depths) <= 3
        assert max(depths) > 1
        counters = tracer.counters
        assert counters["evals"] == 9
        assert counters["async.idle_worker_slots"] >= 1
        tracer.close()

    def test_early_stop_drains_in_flight(self):
        """Stopping issues no new work but still folds what's in flight."""
        space, objective, initial = make_problem(seed=12)
        engine = BOEngine(rng=13, n_candidates=64, refine=False,
                          early_stop_patience=2, async_workers=4)
        evals = engine.minimize(objective, space, initial, budget=60)
        assert 0 < len(evals) < 60
        assert len(engine.records) == len(evals)

    def test_zero_budget(self):
        space, objective, initial = make_problem(seed=14)
        engine = BOEngine(rng=15, async_workers=2)
        assert engine.minimize(objective, space, initial, budget=0) == []

    def test_requires_priors(self):
        space, objective, _ = make_problem(seed=16)
        engine = BOEngine(rng=17, async_workers=2)
        with pytest.raises(ValueError):
            engine.minimize(objective, space, [], budget=3)


class TestValidation:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="async_workers"):
            BOEngine(async_workers=-1)



class _PlainWrapper:
    """A wrapper objective that (deliberately) hides spawn_view.

    Stands in for journal/fault-injector wrappers: forwarding the inner
    objective's view would skip the wrapper's per-evaluation bookkeeping,
    so the engine must degrade to serial — audibly.
    """

    def __init__(self, inner):
        self._inner = inner
        self.calls = 0

    def __call__(self, u, threshold=None):
        self.calls += 1
        return self._inner(u, threshold)


class TestSerialFallback:
    def test_async_wrapper_objective_warns_and_counts(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        space, objective, initial = make_problem(seed=18)
        wrapped = _PlainWrapper(objective)
        engine = BOEngine(rng=19, n_candidates=64, refine=False,
                          async_workers=3, tracer=tracer)
        with pytest.warns(RuntimeWarning,
                          match="_PlainWrapper has no class-level "
                                "spawn_view"):
            evals = engine.minimize(wrapped, space, initial, budget=6)
        assert len(evals) == 6
        assert wrapped.calls == 6  # every evaluation went through the wrapper
        assert tracer.counters["batch.serial_fallback"] == 1
        events = [e for e in sink.events()
                  if e["type"] == "batch.serial_fallback"]
        assert len(events) == 1
        assert events[0]["data"]["objective"] == "_PlainWrapper"
        assert events[0]["data"]["points"] == 3
        tracer.close()

    def test_async_fallback_matches_k1_decisions(self):
        """Degrading k>1 to one worker lands on the k=1 sequence."""
        space, objective, initial = make_problem(seed=20)
        wrapped = _PlainWrapper(objective)
        engine = BOEngine(rng=21, n_candidates=64, refine=False,
                          async_workers=4)
        with pytest.warns(RuntimeWarning):
            got = engine.minimize(wrapped, space, initial, budget=8)

        space2, objective2, initial2 = make_problem(seed=20)
        ref_engine = BOEngine(rng=21, n_candidates=64, refine=False,
                              async_workers=1)
        want = ref_engine.minimize(objective2, space2, initial2, budget=8)
        assert eval_sequence(got) == eval_sequence(want)

    def test_warns_once_per_engine(self):
        space, objective, initial = make_problem(seed=24)
        wrapped = _PlainWrapper(objective)
        engine = BOEngine(rng=25, n_candidates=64, refine=False,
                          async_workers=2)
        with pytest.warns(RuntimeWarning):
            engine.minimize(wrapped, space, initial, budget=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine.minimize(wrapped, space, initial, budget=4)

    def test_spawn_view_objective_does_not_warn(self):
        space, objective, initial = make_problem(seed=26)
        engine = BOEngine(rng=27, n_candidates=64, refine=False,
                          async_workers=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evals = engine.minimize(objective, space, initial, budget=6)
        assert len(evals) == 6
