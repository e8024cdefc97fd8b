"""Tests for journal-backed warm starts and the large-n surrogate paths."""

import numpy as np
import pytest

from repro.core import BOEngine, ConfigMemoizationBuffer, WarmStartData
from repro.core.bo import _ContextGP
from repro.core.journal import EvaluationJournal
from repro.core.warmstart import journal_paths, load_warm_start, scan_journals
from repro.gp import GaussianProcessRegressor, LowRankGaussianProcessRegressor
from repro.obs import InMemorySink, Tracer
from repro.sampling import latin_hypercube
from repro.space.spark_params import spark_space
from repro.sparksim import RunStatus
from repro.tuners import SyntheticObjective, synthetic_space
from repro.tuners.base import Evaluation
from repro.workloads.registry import get_workload


def write_journal(path, workload_key, configs, objectives, faults=None):
    journal = EvaluationJournal(path, fsync=False)
    journal.write_meta({"tuner": "ROBOTune", "workload": workload_key,
                        "budget": len(configs)})
    faults = faults or [None] * len(configs)
    for conf, obj, fault in zip(configs, objectives, faults):
        journal.append(Evaluation(
            vector=np.zeros(1), config=conf, objective=obj, cost_s=obj,
            status=RunStatus.SUCCESS, fault=fault))
    journal.close()
    return path


@pytest.fixture()
def space():
    return spark_space()


class TestJournalPaths:
    def test_missing_directory_fails_fast(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            journal_paths(tmp_path / "nope")

    def test_empty_directory_fails_fast(self, tmp_path):
        with pytest.raises(ValueError, match="no.*journal files"):
            journal_paths(tmp_path)

    def test_finds_journals(self, tmp_path):
        write_journal(tmp_path / "a.jsonl", "pagerank/D1",
                      [{"spark.executor.cores": 4}], [10.0])
        assert len(journal_paths(tmp_path)) == 1

    def test_scan_skips_unparsable_files(self, tmp_path):
        write_journal(tmp_path / "a.jsonl", "pagerank/D1",
                      [{"spark.executor.cores": 4}], [10.0])
        (tmp_path / "b.jsonl").write_text("not json\n")
        assert len(scan_journals(tmp_path)) >= 1


class TestLoadWarmStart:
    def test_matches_workload_across_datasets(self, tmp_path, space):
        write_journal(tmp_path / "d1.jsonl", "pagerank/D1",
                      [{"spark.executor.cores": c} for c in (2, 4, 6)],
                      [10.0, 12.0, 14.0])
        write_journal(tmp_path / "d2.jsonl", "pagerank/D2",
                      [{"spark.executor.cores": c} for c in (8, 10)],
                      [20.0, 22.0])
        write_journal(tmp_path / "other.jsonl", "kmeans/D1",
                      [{"spark.executor.cores": 12}], [30.0])
        wl = get_workload("pagerank", "D1")
        data = load_warm_start(tmp_path, wl, space)
        assert data is not None
        assert data.n == 5                     # kmeans journal skipped
        assert len(data.sources) == 2
        assert data.X.shape == (5, space.dim)
        assert np.all((0 < data.sizes) & (data.sizes <= 1.0))
        assert 0 < data.current_size <= 1.0

    def test_datasize_feature_orders_with_scale(self, tmp_path, space):
        write_journal(tmp_path / "d1.jsonl", "pagerank/D1",
                      [{"spark.executor.cores": 2}], [10.0])
        write_journal(tmp_path / "d3.jsonl", "pagerank/D3",
                      [{"spark.executor.cores": 4}], [30.0])
        wl = get_workload("pagerank", "D1")
        data = load_warm_start(tmp_path, wl, space)
        by_y = dict(zip(data.y, data.sizes))
        assert by_y[10.0] < by_y[30.0]         # D1 is smaller than D3
        assert by_y[30.0] == pytest.approx(1.0)  # D3 is the largest scale

    def test_accept_workloads_admits_mapped_names(self, tmp_path, space):
        write_journal(tmp_path / "other.jsonl", "kmeans/D1",
                      [{"spark.executor.cores": 12}], [30.0])
        wl = get_workload("pagerank", "D1")
        assert load_warm_start(tmp_path, wl, space) is None
        data = load_warm_start(tmp_path, wl, space,
                               accept_workloads=["kmeans"])
        assert data is not None and data.n == 1

    def test_duplicate_configs_deduped(self, tmp_path, space):
        conf = {"spark.executor.cores": 4}
        write_journal(tmp_path / "d1.jsonl", "pagerank/D1",
                      [conf, conf, conf], [10.0, 10.5, 11.0])
        wl = get_workload("pagerank", "D1")
        data = load_warm_start(tmp_path, wl, space)
        assert data.n == 1

    def test_memoized_configs_dropped(self, tmp_path, space):
        memo = ConfigMemoizationBuffer()
        kept = {"spark.executor.cores": 2}
        remembered = {"spark.executor.cores": 8}
        memo.add("pagerank", remembered, 5.0, dataset="D1")
        write_journal(tmp_path / "d1.jsonl", "pagerank/D1",
                      [kept, remembered], [10.0, 5.0])
        wl = get_workload("pagerank", "D1")
        data = load_warm_start(tmp_path, wl, space, memo=memo)
        assert data.n == 1

    def test_crash_recovery_records_skipped(self, tmp_path, space):
        write_journal(tmp_path / "d1.jsonl", "pagerank/D1",
                      [{"spark.executor.cores": 2},
                       {"spark.executor.cores": 4}],
                      [10.0, 12.0], faults=[None, "crash_recovery"])
        wl = get_workload("pagerank", "D1")
        data = load_warm_start(tmp_path, wl, space)
        assert data.n == 1

    def test_max_points_thins_deterministically(self, tmp_path, space):
        confs = [{"spark.executor.cores": 2, "spark.task.cpus": 1,
                  "spark.executor.memory": 2 + i % 14} for i in range(40)]
        write_journal(tmp_path / "d1.jsonl", "pagerank/D1", confs,
                      [float(i) for i in range(40)])
        wl = get_workload("pagerank", "D1")
        a = load_warm_start(tmp_path, wl, space, max_points=7)
        b = load_warm_start(tmp_path, wl, space, max_points=7)
        assert a.n <= 7
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_emits_load_event(self, tmp_path, space):
        write_journal(tmp_path / "d1.jsonl", "pagerank/D1",
                      [{"spark.executor.cores": 2}], [10.0])
        sink = InMemorySink()
        tracer = Tracer([sink])
        wl = get_workload("pagerank", "D1")
        load_warm_start(tmp_path, wl, space, tracer=tracer)
        tracer.close()
        events = [r for r in sink.records if r.get("type") == "warmstart.load"]
        assert len(events) == 1
        assert events[0]["data"]["n"] == 1


class TestWarmStartData:
    def test_validates_shapes(self):
        with pytest.raises(ValueError):
            WarmStartData(X=np.zeros(3), y=np.zeros(3), sizes=np.ones(3),
                          current_size=1.0)
        with pytest.raises(ValueError):
            WarmStartData(X=np.zeros((3, 2)), y=np.zeros(2),
                          sizes=np.ones(3), current_size=1.0)
        with pytest.raises(ValueError):
            WarmStartData(X=np.zeros((3, 2)), y=np.zeros(3),
                          sizes=np.ones(3), current_size=0.0)


class TestContextGP:
    def test_strips_context_dimension(self):
        rng = np.random.default_rng(0)
        Xw = rng.random((6, 3))
        Xc = rng.random((10, 3))
        size = 0.75
        joint = np.vstack([np.hstack([Xw, np.full((6, 1), 0.4)]),
                           np.hstack([Xc, np.full((10, 1), size)])])
        y = rng.random(16)
        inner = GaussianProcessRegressor(optimize=False).fit(joint, y)
        view = _ContextGP(inner, n_warm=6, size=size)
        np.testing.assert_array_equal(view.X_train_, Xc)
        np.testing.assert_array_equal(view.y_train_, y[6:])
        Q = rng.random((5, 3))
        mu, sd = view.predict(Q, return_std=True)
        Qa = np.hstack([Q, np.full((5, 1), size)])
        mu_i, sd_i = inner.predict(Qa, return_std=True)
        np.testing.assert_array_equal(mu, mu_i)
        np.testing.assert_array_equal(sd, sd_i)

    def test_gradient_drops_context_coordinate(self):
        rng = np.random.default_rng(1)
        joint = rng.random((12, 4))
        y = rng.random(12)
        inner = GaussianProcessRegressor(optimize=False).fit(joint, y)
        view = _ContextGP(inner, n_warm=0, size=0.5)
        mu, sd, dmu, dsd = view.predict_with_gradient(np.full(3, 0.5))
        assert dmu.shape == (3,)
        assert dsd.shape == (3,)


def make_problem(dim=4, seed=0):
    space = synthetic_space(dim)
    objective = SyntheticObjective(space, n_effective=3, noise=0.01, rng=seed)
    U = latin_hypercube(8, dim, rng=seed)
    initial = [objective(u) for u in U]
    return space, objective, initial


class TestEngineWarmStart:
    def _warm(self, dim, n=10, seed=5):
        rng = np.random.default_rng(seed)
        return WarmStartData(X=rng.random((n, dim)), y=rng.random(n) * 50,
                             sizes=np.full(n, 0.5), current_size=1.0)

    def test_surrogate_trains_on_joint_rows(self):
        space, objective, initial = make_problem(seed=1)
        ws = self._warm(space.dim, n=10)
        engine = BOEngine(rng=2, n_candidates=64, refine=False,
                          warm_start=ws)
        evals = engine.minimize(objective, space, initial, budget=3)
        assert len(evals) == 3                 # warm rows consume no budget
        # Inner GP sees warm + live rows, each with the context column.
        assert engine.last_gp.X_train_.shape == \
            (10 + len(initial) + 3, space.dim + 1)

    def test_decisions_identical_without_warm_start(self):
        space, objective, initial = make_problem(seed=3)
        base = BOEngine(rng=4, n_candidates=64, refine=False)
        evals_a = base.minimize(objective, space, initial, budget=5)
        space2, objective2, initial2 = make_problem(seed=3)
        again = BOEngine(rng=4, n_candidates=64, refine=False)
        evals_b = again.minimize(objective2, space2, initial2, budget=5)
        for a, b in zip(evals_a, evals_b):
            np.testing.assert_array_equal(a.vector, b.vector)
        assert again.last_gp.X_train_.shape[1] == space.dim

    def test_rejects_non_warmstartdata(self):
        with pytest.raises(TypeError):
            BOEngine(warm_start={"X": np.zeros((2, 2))})


class TestGPModeSwitch:
    def test_exact_below_threshold_lowrank_above(self):
        sink = InMemorySink()
        tracer = Tracer([sink])
        engine = BOEngine(rng=0, gp_max_exact=5, gp_inducing=4,
                          tracer=tracer)
        assert isinstance(engine._select_gp(3), GaussianProcessRegressor)
        assert isinstance(engine._select_gp(10),
                          LowRankGaussianProcessRegressor)
        assert tracer.counters.get("gp.mode.switch", 0) == 1
        tracer.close()
        modes = [r["data"]["mode"] for r in sink.records
                 if r.get("type") == "gp.mode"]
        assert modes == ["exact", "lowrank"]

    def test_lowrank_kicks_in_during_minimize(self):
        space, objective, initial = make_problem(seed=7)
        engine = BOEngine(rng=8, n_candidates=32, refine=False,
                          gp_max_exact=len(initial) + 2, gp_inducing=8,
                          hyperopt_every=1000)
        engine.minimize(objective, space, initial, budget=6)
        assert isinstance(engine.last_gp, LowRankGaussianProcessRegressor)

    def test_validation(self):
        with pytest.raises(ValueError):
            BOEngine(gp_max_exact=1)
        with pytest.raises(ValueError):
            BOEngine(gp_inducing=0)
