"""Tests for the comparison-study harness (at miniature scale)."""

import hashlib

import numpy as np
import pytest

from repro.bench import ComparisonStudy, StudyResult

#: sha256 (16 hex) of the serial ROBOTune study curve in
#: ``test_async_single_worker_matches_sync``.
SERIAL_CURVE_GOLDEN = "00edc7dcdd15ac2f"


@pytest.fixture(scope="module")
def mini_study():
    """A 2-tuner, 1-workload, 2-dataset, 1-trial study (fast)."""
    study = ComparisonStudy(budget=12, trials=1, workloads=["terasort"],
                            datasets=["D1", "D2"],
                            tuners=["RandomSearch", "BestConfig"],
                            base_seed=3).run()
    return study


class TestStudyExecution:
    def test_grid_complete(self, mini_study):
        assert len(mini_study.records) == 2 * 2  # tuners x datasets

    def test_record_fields(self, mini_study):
        rec = mini_study.records[0]
        assert rec.curve.shape == (12,)
        assert rec.exec_times.shape == (12,)
        assert rec.cores_mem.shape == (12, 2)
        assert len(rec.statuses) == 12
        assert rec.best_time_s > 0
        assert rec.search_cost_s >= rec.best_time_s

    def test_filter_and_means(self, mini_study):
        rs = mini_study.filter(tuner="RandomSearch")
        assert len(rs) == 2
        assert mini_study.mean_best_time("RandomSearch", "terasort",
                                         "D1") > 0
        with pytest.raises(KeyError):
            mini_study.mean_best_time("RandomSearch", "terasort", "D9")

    def test_reproducible_given_base_seed(self):
        kw = dict(budget=8, trials=1, workloads=["terasort"],
                  datasets=["D1"], tuners=["RandomSearch"], base_seed=11)
        a = ComparisonStudy(**kw).run()
        b = ComparisonStudy(**kw).run()
        assert a.records[0].best_time_s == b.records[0].best_time_s

    def test_unknown_tuner_rejected(self):
        with pytest.raises(ValueError):
            ComparisonStudy(tuners=["MagicTuner"])

    def test_progress_callback_invoked(self):
        seen = []
        ComparisonStudy(budget=5, trials=1, workloads=["terasort"],
                        datasets=["D1"], tuners=["RandomSearch"],
                        base_seed=0).run(progress=seen.append)
        assert len(seen) == 1
        assert "RandomSearch" in seen[0]


class TestROBOTuneSessions:
    def test_warm_datasets_hit_selection_cache(self):
        study = ComparisonStudy(
            budget=25, trials=1, workloads=["terasort"],
            datasets=["D1", "D2"], tuners=["ROBOTune"], base_seed=5,
        ).run()
        d1 = study.filter(dataset="D1")[0]
        d2 = study.filter(dataset="D2")[0]
        assert not d1.cache_hit
        assert d2.cache_hit
        assert d1.selection_cost_s > 0
        assert d2.selection_cost_s == 0.0


class TestWorkloadMapping:
    def test_mapping_charges_probes_and_leaves_baselines_alone(self):
        kw = dict(workloads=["terasort", "kmeans"], datasets=["D1"],
                  trials=1, budget=8, keep_results=True)
        mapped = ComparisonStudy(**kw, map_workloads=True).run()
        plain = ComparisonStudy(**kw).run()
        robotune = mapped.filter(tuner="ROBOTune")
        assert len(robotune) == 2
        for rec in robotune:
            assert rec.result.mapping_cost_s > 0
        for tuner in ("BestConfig", "Gunther", "RandomSearch"):
            for workload in ("terasort", "kmeans"):
                [a] = mapped.filter(tuner=tuner, workload=workload)
                [b] = plain.filter(tuner=tuner, workload=workload)
                np.testing.assert_array_equal(a.curve, b.curve)
                assert a.statuses == b.statuses
                assert a.search_cost_s == b.search_cost_s


class TestAsyncWorkers:
    def test_async_study_runs(self):
        study = ComparisonStudy(
            budget=20, trials=1, workloads=["terasort"], datasets=["D1"],
            tuners=["ROBOTune"], base_seed=7, async_workers=2,
        ).run()
        assert len(study.records) == 1
        assert study.records[0].curve.shape == (20,)

    def test_async_single_worker_matches_sync(self):
        # Digest of the serial study's best-so-far curve, recorded before
        # serial became the one loop at one worker: both must keep it.
        kw = dict(budget=20, trials=1, workloads=["terasort"],
                  datasets=["D1"], tuners=["ROBOTune"], base_seed=9)
        for async_workers in (0, 1):
            curve = ComparisonStudy(**kw, async_workers=async_workers) \
                .run().records[0].curve
            digest = hashlib.sha256(np.ascontiguousarray(
                curve, dtype=float).tobytes()).hexdigest()[:16]
            assert digest == SERIAL_CURVE_GOLDEN

    def test_negative_async_workers_rejected(self):
        with pytest.raises(ValueError):
            ComparisonStudy(async_workers=-1)


class TestSupervision:
    def test_supervise_requires_async_workers(self):
        from repro.supervise import SupervisePolicy
        with pytest.raises(ValueError, match="async_workers"):
            ComparisonStudy(supervise=SupervisePolicy())

    def test_supervised_study_runs(self):
        from repro.supervise import SupervisePolicy
        study = ComparisonStudy(
            budget=16, trials=1, workloads=["terasort"], datasets=["D1"],
            tuners=["ROBOTune"], base_seed=11, async_workers=2,
            supervise=SupervisePolicy(eval_timeout_s=30.0),
        ).run()
        assert len(study.records) == 1
        assert study.records[0].curve.shape == (16,)
