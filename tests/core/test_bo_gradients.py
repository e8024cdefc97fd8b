"""Gradient-powered BO: jac-driven refinement, the refine acceptance
rule, the post-evaluation refit cache and its timing."""

import numpy as np

from repro.core import BOEngine
from repro.core.bo import _safe_std
from repro.gp.gpr import GaussianProcessRegressor
from repro.obs import InMemorySink, Tracer
from repro.sampling import latin_hypercube
from repro.tuners import SyntheticObjective, synthetic_space


def make_problem(dim=4, seed=0, noise=0.01):
    space = synthetic_space(dim)
    objective = SyntheticObjective(space, n_effective=min(3, dim),
                                   noise=noise, rng=seed)
    U = latin_hypercube(8, dim, rng=seed)
    initial = [objective(u) for u in U]
    return space, objective, initial


class TestGradientMode:
    def test_improves_over_initial_design(self):
        space, objective, initial = make_problem(seed=1)
        engine = BOEngine(rng=2, n_candidates=128)
        evals = engine.minimize(objective, space, initial, budget=25)
        assert min(e.objective for e in evals) \
            < min(e.objective for e in initial)

    def test_approaches_known_optimum(self):
        space, objective, initial = make_problem(seed=3)
        engine = BOEngine(rng=4, n_candidates=256)
        evals = engine.minimize(objective, space, initial, budget=40)
        assert min(e.objective for e in evals) < 15.0

    def test_combines_with_async_workers(self):
        space, objective, initial = make_problem(seed=7)
        engine = BOEngine(rng=8, n_candidates=64, async_workers=4)
        evals = engine.minimize(objective, space, initial, budget=12)
        assert len(evals) == 12


def fitted_engine_gp(seed=0):
    """A fitted GP plus the standardization constants _refine expects."""
    rng = np.random.default_rng(seed)
    X = rng.random((20, 3))
    y = 10.0 + 100.0 * np.sum((X - 0.3) ** 2, axis=1)
    gp = GaussianProcessRegressor(rng=seed).fit(X, y)
    mean, std = float(y.mean()), _safe_std(y)
    f_best = (float(y.min()) - mean) / std
    return gp, y, mean, std, f_best


class TestRefineAcceptance:
    def _util(self, acq, gp, mean, std, f_best, u):
        m, s = gp.predict(u[None], return_std=True)
        return float(acq(np.array([(m[0] - mean) / std]),
                         np.array([s[0] / std]), f_best)[0])

    def test_never_regresses_sweep_winner(self):
        # L-BFGS-B can report success at a point worse than its start;
        # the acceptance rule must discard such regressions.
        engine = BOEngine(rng=0, n_candidates=64)
        gp, y, mean, std, f_best = fitted_engine_gp(seed=0)
        rng = np.random.default_rng(1)
        for acq in engine.hedge.functions:
            for _ in range(10):
                start = rng.random(3)
                start_util = self._util(acq, gp, mean, std, f_best, start)
                out = engine._refine([acq], gp, start[None],
                                     np.array([start_util]), f_best, mean,
                                     std)[0][0]
                out_util = self._util(acq, gp, mean, std, f_best, out)
                assert out_util >= start_util - 1e-12

    def test_gradient_refine_never_regresses_best_start(self):
        # The polish starts from the best of several sweep points and is
        # kept only when it beats that point's utility.
        engine = BOEngine(rng=0, n_candidates=64)
        gp, y, mean, std, f_best = fitted_engine_gp(seed=2)
        rng = np.random.default_rng(3)
        for acq in engine.hedge.functions:
            starts = rng.random((4, 3))
            utils = np.array([self._util(acq, gp, mean, std, f_best, s)
                              for s in starts])
            best = int(np.argmax(utils))
            out = engine._refine([acq], gp, starts[best][None],
                                 utils[best:best + 1], f_best, mean, std)[0][0]
            out_util = self._util(acq, gp, mean, std, f_best, out)
            assert out_util >= utils.max() - 1e-12


class TestRefitCache:
    def test_top_of_iteration_refit_reused(self, monkeypatch):
        # The cheap refit after an evaluation fits the exact data the next
        # iteration's surrogate needs; the engine must not refit it.
        calls = {"fit": 0, "update": 0}
        real_fit = GaussianProcessRegressor.fit
        real_update = GaussianProcessRegressor.update

        def counting_fit(self, X, y):
            calls["fit"] += 1
            return real_fit(self, X, y)

        def counting_update(self, X, y):
            calls["update"] += 1
            return real_update(self, X, y)

        monkeypatch.setattr(GaussianProcessRegressor, "fit", counting_fit)
        monkeypatch.setattr(GaussianProcessRegressor, "update",
                            counting_update)
        space, objective, initial = make_problem(seed=9)
        budget = 8
        engine = BOEngine(rng=10, n_candidates=64, hyperopt_every=5)
        engine.minimize(objective, space, initial, budget=budget)
        # Without the cache every iteration fits twice (nominate + gain
        # update).  With it, off-schedule iterations reuse the previous
        # cheap refit (a rank-k update), leaving one refit per iteration
        # plus the scheduled full fits (2 here: iterations 0 and 5).
        assert calls == {"fit": 2, "update": budget}

    def test_cache_never_reused_after_hyperopt(self):
        # A scheduled full fit re-optimizes theta, so the cached factor
        # from the previous cheap refit must not short-circuit it.
        space, objective, initial = make_problem(seed=11)
        engine = BOEngine(rng=12, n_candidates=64, hyperopt_every=2)
        engine.minimize(objective, space, initial, budget=6)
        assert engine._theta is not None  # full fits happened on schedule

    def test_every_refit_is_timed(self):
        # Off-schedule refits are rank-k updates; each one, like each
        # full fit, emits a gp.fit event and accumulates in its timer.
        sink = InMemorySink()
        tracer = Tracer([sink])
        space, objective, initial = make_problem(seed=13)
        engine = BOEngine(rng=14, n_candidates=64, hyperopt_every=5,
                          tracer=tracer)
        engine.minimize(objective, space, initial, budget=8)
        tracer.close()
        fits = [r for r in sink.records if r.get("type") == "gp.fit"]
        assert sum(r["data"]["incremental"] for r in fits) == 8
        assert tracer.timers["gp.fit"]["count"] == len(fits) == 10
