"""Tests for the full ROBOTune orchestrator."""

import numpy as np
import pytest

from repro.core import (ConfigMemoizationBuffer, ParameterSelectionCache,
                        ParameterSelector, ROBOTune)
from repro.tuners import SyntheticObjective, synthetic_space


def make_tuner(cache=None, memo=None, seed=0, **kw):
    defaults = dict(
        selector=ParameterSelector(n_samples=40, n_trees=40, n_repeats=3,
                                   rng=seed),
        selection_cache=cache, memo_buffer=memo, rng=seed,
        engine_kwargs={"n_candidates": 64, "refine": False},
    )
    defaults.update(kw)
    return ROBOTune(**defaults)


def make_objective(seed=0, dim=10, name="synth", dataset="D1"):
    return SyntheticObjective(synthetic_space(dim), n_effective=3, rng=seed,
                              name=name, dataset=dataset)


class TestColdSession:
    def test_full_pipeline(self):
        tuner = make_tuner(seed=1)
        result = tuner.tune(make_objective(seed=2), budget=40, rng=3)
        assert result.tuner == "ROBOTune"
        assert result.n_evaluations == 40
        assert not result.selection_cache_hit
        assert result.selection is not None
        assert result.selection_cost_s > 0
        assert result.selected_parameters
        assert result.reduced_space is not None
        assert result.reduced_space.dim <= 10
        assert result.best_time_s < 100.0

    def test_selection_cost_excluded_from_search_cost(self):
        tuner = make_tuner(seed=4)
        result = tuner.tune(make_objective(seed=5), budget=30, rng=6)
        eval_cost = sum(e.cost_s for e in result.evaluations)
        assert result.search_cost_s == pytest.approx(eval_cost)

    def test_initial_design_size(self):
        tuner = make_tuner(seed=7, init_samples=12)
        result = tuner.tune(make_objective(seed=8), budget=30, rng=9)
        assert len(result.bo_records) == 30 - 12

    def test_budget_smaller_than_init(self):
        tuner = make_tuner(seed=10)
        result = tuner.tune(make_objective(seed=11), budget=5, rng=12)
        assert result.n_evaluations == 5
        assert result.bo_records == []

    def test_beats_pure_initial_design(self):
        tuner = make_tuner(seed=13)
        result = tuner.tune(make_objective(seed=14), budget=50, rng=15)
        init_best = min(e.objective for e in result.evaluations[:20])
        assert result.best_time_s <= init_best


class TestMemoizedSession:
    def test_cache_hit_skips_selection(self):
        cache, memo = ParameterSelectionCache(), ConfigMemoizationBuffer()
        tuner = make_tuner(cache, memo, seed=16)
        obj = make_objective(seed=17)
        first = tuner.tune(obj, budget=30, rng=18)
        before = obj.n_evaluations
        second = tuner.tune(make_objective(seed=19), budget=30, rng=20)
        assert not first.selection_cache_hit
        assert second.selection_cache_hit
        assert second.selection_cost_s == 0.0
        assert second.selected_parameters == first.selected_parameters

    def test_memoized_configs_seed_initial_design(self):
        cache, memo = ParameterSelectionCache(), ConfigMemoizationBuffer()
        tuner = make_tuner(cache, memo, seed=21)
        first = tuner.tune(make_objective(seed=22), budget=30, rng=23)
        stored = memo.best("synth", 10)
        assert len(stored) == 4
        assert stored[0].objective == pytest.approx(first.best_time_s)
        # Warm session on a "new dataset" pulls them into the design.
        second = tuner.tune(make_objective(seed=24, dataset="D2"),
                            budget=30, rng=25)
        assert second.memoized_used == 4
        # The first few evaluations re-run memoized configs: near-optimal.
        early = min(e.objective for e in second.evaluations[:4])
        assert early <= first.best_time_s * 1.5

    def test_anonymous_objective_skips_caches(self):
        cache, memo = ParameterSelectionCache(), ConfigMemoizationBuffer()
        tuner = make_tuner(cache, memo, seed=26)
        obj = SyntheticObjective(synthetic_space(10), n_effective=3, rng=27)
        result = tuner.tune(obj, budget=25, rng=28)
        assert not result.selection_cache_hit
        assert len(cache) == 0
        assert len(memo) == 0

    def test_zero_memo_configs_disables_reuse(self):
        tuner = make_tuner(seed=24, memo_configs=0)
        result = tuner.tune(make_objective(seed=25), budget=25, rng=26)
        assert result.memoized_used == 0


class TestValidation:
    def test_bad_budget(self):
        with pytest.raises(ValueError):
            make_tuner().tune(make_objective(), budget=0)

    def test_bad_init_samples(self):
        with pytest.raises(ValueError):
            ROBOTune(init_samples=1)

    def test_bad_memo_configs(self):
        with pytest.raises(ValueError):
            ROBOTune(init_samples=10, memo_configs=11)

    def test_objective_must_support_with_space(self):
        inner = SyntheticObjective(synthetic_space(4), n_effective=2, rng=0)

        class Bare:
            """Evaluable, but cannot be re-bound to a reduced space."""

            space = inner.space
            time_limit_s = inner.time_limit_s

            def __call__(self, u, t=None):
                return inner(u, t)

        tuner = make_tuner(seed=0, selector=ParameterSelector(
            n_samples=12, n_trees=10, n_repeats=2, rng=0))
        with pytest.raises(TypeError):
            tuner.tune(Bare(), budget=15, rng=1)


class TestSupervision:
    def test_supervise_requires_async_workers(self):
        from repro.supervise import SupervisePolicy
        with pytest.raises(ValueError, match="async_workers"):
            make_tuner(supervise=SupervisePolicy())

    def test_supervised_session_completes(self):
        from repro.supervise import SupervisePolicy
        tuner = make_tuner(seed=21, async_workers=2, init_samples=6,
                           supervise=SupervisePolicy(eval_timeout_s=30.0))
        result = tuner.tune(make_objective(seed=22), budget=14, rng=23)
        assert result.n_evaluations == 14
        assert result.quarantined_configs == []

    def test_quarantined_configs_reported_and_blocked(self):
        from repro.faults import HangInjector, HangPlan
        from repro.supervise import SupervisePolicy
        memo = ConfigMemoizationBuffer()
        full_dim = 10
        state = {"seen": 0, "target": None}

        def poison(u):
            # Poison the first *BO-phase* proposal: selection runs in the
            # full space, the 6 initial-design points come first in the
            # reduced one, and everything after that is a BO proposal.
            if len(u) == full_dim:
                return False
            state["seen"] += 1
            if state["seen"] <= 6:
                return False
            if state["target"] is None:
                state["target"] = np.asarray(u, dtype=float).copy()
            return bool(np.array_equal(u, state["target"]))

        objective = HangInjector(make_objective(seed=24, dim=full_dim),
                                 HangPlan(0.0), poison=poison,
                                 poison_kind="worker_death")
        tuner = make_tuner(memo=memo, seed=25, init_samples=6,
                           async_workers=1,
                           supervise=SupervisePolicy(eval_timeout_s=30.0,
                                                     quarantine_after=1))
        result = tuner.tune(objective, budget=12, rng=26)
        assert result.n_evaluations == 12
        assert len(result.quarantined_configs) == 1
        # The poison config must never warm-start a future session.
        key = objective.workload.key
        assert memo.is_blocked(key, result.quarantined_configs[0])
        memo.add(key, result.quarantined_configs[0], 1.0)  # refused
        assert all(m.config != result.quarantined_configs[0]
                   for m in memo.best(key, 100))


class TestAsyncWorkers:
    def test_async_forwarded_to_engine(self):
        tuner = make_tuner(seed=20, async_workers=3)
        result = tuner.tune(make_objective(seed=21), budget=25, rng=22)
        assert len(result.evaluations) == 25

    def test_async_single_worker_matches_sync(self):
        a = make_tuner(seed=23).tune(make_objective(seed=24), budget=25,
                                     rng=25)
        b = make_tuner(seed=23, async_workers=1).tune(
            make_objective(seed=24), budget=25, rng=25)
        assert [e.objective for e in a.evaluations] == \
            [e.objective for e in b.evaluations]

    def test_negative_async_workers_rejected(self):
        with pytest.raises(ValueError):
            ROBOTune(async_workers=-1)


class TestWarmStartSession:
    def test_constructor_fails_fast_on_bad_directory(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            make_tuner(seed=30, warm_start=str(tmp_path / "nope"))
        with pytest.raises(ValueError, match="no.*journal"):
            make_tuner(seed=30, warm_start=str(tmp_path))

    def test_prior_journal_folds_into_surrogate(self, tmp_path):
        prior = tmp_path / "prior"
        prior.mkdir()
        cold = make_tuner(seed=31)
        cold.checkpoint(make_objective(seed=32), budget=30,
                        journal=prior / "s0.jsonl", rng=33)
        warm = make_tuner(seed=31, warm_start=str(prior))
        result = warm.tune(make_objective(seed=32), budget=30, rng=34)
        assert result.warm_start_n > 0
        assert len(result.warm_start_sources) == 1
        assert result.n_evaluations == 30      # priors consume no budget

    def test_cold_by_default(self):
        result = make_tuner(seed=35).tune(make_objective(seed=36),
                                          budget=25, rng=37)
        assert result.warm_start_n == 0
        assert result.warm_start_sources == ()


class TestMappedSession:
    def _mapper(self, dim=10):
        from repro.core import WorkloadMapper
        from repro.tuners import synthetic_space
        return WorkloadMapper(synthetic_space(dim), n_probes=6,
                              threshold=0.8)

    def test_match_skips_selection_and_charges_probe_cost(self):
        mapper = self._mapper()
        cache, memo = ParameterSelectionCache(), ConfigMemoizationBuffer()
        first = make_tuner(cache, memo, seed=40, mapper=mapper)
        res_a = first.tune(make_objective(seed=41, name="alpha"),
                           budget=25, rng=42)
        assert res_a.mapped_from is None
        assert res_a.mapping_cost_s > 0        # probed, found nothing

        second = make_tuner(cache, memo, seed=43, mapper=mapper)
        # Same bowl, different name: the probe signature rank-matches.
        res_b = second.tune(make_objective(seed=41, name="beta"),
                            budget=25, rng=44)
        assert res_b.mapped_from == "alpha"
        assert res_b.selection is None          # selection run skipped
        assert res_b.selected_parameters == res_a.selected_parameters
        assert res_b.mapping_cost_s > 0
        eval_cost = sum(e.cost_s for e in res_b.evaluations)
        assert res_b.search_cost_s == pytest.approx(
            eval_cost + res_b.mapping_cost_s)

    def test_cache_hit_skips_probing(self):
        mapper = self._mapper()
        cache, memo = ParameterSelectionCache(), ConfigMemoizationBuffer()
        tuner = make_tuner(cache, memo, seed=45, mapper=mapper)
        obj = make_objective(seed=46, name="gamma")
        tuner.tune(obj, budget=25, rng=47)
        again = make_tuner(cache, memo, seed=48, mapper=mapper)
        res = again.tune(obj, budget=25, rng=49)
        assert res.selection_cache_hit
        assert res.mapping_cost_s == 0.0        # no probe on a cache hit
