"""Tests for experiment renderers on synthetic study data."""

import zlib

import numpy as np
import pytest

from repro.bench import (ComparisonStudy, StudyResult, iterations_to_within,
                         render_fig3, render_fig4, render_fig5, render_fig6,
                         render_fig7, render_fig8, render_table1,
                         render_table2)
from repro.bench.figures import RecallPoint
from repro.bench.harness import SessionRecord


def fake_record(tuner, workload="pagerank", dataset="D1", trial=0,
                best=30.0, cost=3000.0, n=10, seed=0):
    rng = np.random.default_rng(seed)
    times = rng.uniform(best, best * 4, n)
    curve = np.minimum.accumulate(rng.uniform(best, best * 3, n))
    curve[-1] = best
    return SessionRecord(
        tuner=tuner, workload=workload, dataset=dataset, trial=trial,
        best_time_s=best, search_cost_s=cost, selection_cost_s=0.0,
        cache_hit=False, curve=curve, exec_times=times,
        cores_mem=np.column_stack([rng.integers(1, 33, n),
                                   rng.integers(1024, 184320, n)]),
        statuses=("success",) * n)


@pytest.fixture()
def fake_study():
    study = StudyResult()
    for tuner, best, cost in (("ROBOTune", 25.0, 2000.0),
                              ("BestConfig", 30.0, 3300.0),
                              ("Gunther", 31.0, 3100.0),
                              ("RandomSearch", 30.0, 3200.0)):
        for ds in ("D1", "D3"):
            seed = zlib.crc32(f"{tuner}|{ds}".encode()) % 100
            study.records.append(fake_record(tuner, dataset=ds, best=best,
                                             cost=cost, seed=seed))
    return study


class TestRenderers:
    def test_table1_lists_all_workloads(self):
        out = render_table1()
        for ab in ("PR", "KM", "CC", "LR", "TS"):
            assert ab in out

    def test_fig3_scales_to_random_search(self, fake_study):
        out = render_fig3(fake_study)
        assert "ROBOTune" in out
        # ROBOTune's ratio 25/30 should appear.
        assert "0.83" in out
        assert "geo-mean" in out

    def test_fig4_cost_ratios(self, fake_study):
        out = render_fig4(fake_study)
        assert "0.62" in out  # 2000/3200

    def test_fig5_medians(self, fake_study):
        out = render_fig5(fake_study, workloads=["pagerank"])
        assert "median/ROBOTune" in out

    def test_fig6_iteration_table(self, fake_study):
        out = render_fig6(fake_study, checkpoints=(1, 5, 10))
        assert "PR-D1" in out and "PR-D3" in out

    def test_table2_counts(self, fake_study):
        out = render_table2(fake_study)
        assert "Within 1%" in out
        assert "pagerank" in out

    def test_fig8_concentration(self, fake_study):
        out = render_fig8(fake_study, dataset="D3")
        assert "densest-cell share" in out

    def test_fig7_recall_table(self):
        pts = {"pagerank": [RecallPoint("pagerank", 150, 1.0, ("a",)),
                            RecallPoint("pagerank", 100, 1.0, ("a",)),
                            RecallPoint("pagerank", 50, 0.5, ("b",))]}
        out = render_fig7(pts)
        assert "150" in out and "average" in out
        assert "0.50" in out


class TestIterationsToWithin:
    def test_basic(self):
        curve = np.array([100.0, 50.0, 22.0, 20.0])
        assert iterations_to_within(curve, 0.0) == 4
        assert iterations_to_within(curve, 0.10) == 3
        assert iterations_to_within(curve, 10.0) == 1

    def test_all_inf_returns_none(self):
        assert iterations_to_within(np.array([np.inf, np.inf]), 0.05) is None
