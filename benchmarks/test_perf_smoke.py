"""Hot-path perf-regression smoke benchmark.

Times the optimized compute kernels (lockstep forest training,
path-restricted permutation importance, incremental GP updates, one
acquisition-refine evaluation, one BO iteration, a small end-to-end
tune) and appends the wall-clock numbers to ``BENCH_hotpaths.json`` at
the repo root, so successive commits leave a comparable record.  Where a
reference implementation is kept (the one-tree-at-a-time depth-first
grower in ``tests/ml/tree_reference.py``, the per-repeat OOB importance
loop in ``tests/ml/importance_reference.py``, the from-scratch GP refit,
the refine evaluation on ``scipy.stats``, the per-class kernel Jacobians
and ``cho_solve`` in ``tests/core/acquisition_reference.py`` and
``tests/gp/kernel_reference.py``), both sides are timed and the speedup
is printed.

The BO-engine benchmarks (async evaluation vs the serial loop) write
their numbers to a separate ``BENCH_bo_engine.json`` so the engine-level
record is easy to diff on its own; the low-rank vs exact GP timings go
to ``BENCH_hotpaths.json`` with the other kernels.

This is a smoke benchmark: it asserts only that the optimized paths are
not slower than their in-tree reference implementations (with generous
slack for machine noise), never absolute times.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from repro.core import BOEngine
from repro.core.acquisition import (ExpectedImprovement, LowerConfidenceBound,
                                    ProbabilityOfImprovement)
from repro.core.tuner import ROBOTune
from repro.gp import GaussianProcessRegressor, Matern52
from repro.ml import RandomForestRegressor, grouped_permutation_importance
from repro.sampling import latin_hypercube
from repro.space.spark_params import spark_space
from repro.tuners import SyntheticObjective, synthetic_space
from repro.tuners.objective import WorkloadObjective
from repro.workloads.registry import get_workload

from conftest import BenchRecord

BENCH = BenchRecord("BENCH_hotpaths.json")
BO_BENCH = BenchRecord("BENCH_bo_engine.json")
_record = BENCH.record
_record_bo = BO_BENCH.record


def _time(fn, repeats: int = 3) -> float:
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_forest_fit_wall_time(capsys):
    rng = np.random.default_rng(0)
    X = rng.random((300, 12))
    y = 4 * X[:, 0] + np.sin(6 * X[:, 1]) + rng.normal(0, 0.05, 300)
    wall = _time(lambda: RandomForestRegressor(60, rng=1).fit(X, y))
    _record("forest_fit_60x300x12", wall, n=300)
    with capsys.disabled():
        print(f"\nforest fit (60 trees, 300x12): {wall:.3f}s")
    assert wall > 0


def test_forest_fit_lockstep_vs_reference(capsys):
    from tests.ml.tree_reference import reference_forest
    # Parameter selection fits 150 trees on LHS runs of 44 parameters,
    # half of them candidates per split: 100 runs in a cold session, 30
    # in a served smoke session.
    rng = np.random.default_rng(7)
    for n in (100, 30):
        X = rng.random((n, 44))
        y = np.log(50 + 200 * X[:, 0] ** 2 + 80 * X[:, 3] * X[:, 7]
                   + rng.gamma(2.0, 5.0, n))
        lockstep = _time(lambda: RandomForestRegressor(
            150, max_features=0.5, rng=1).fit(X, y), repeats=3)
        reference = _time(lambda: reference_forest(
            X, y, 150, rng=1, max_features=0.5), repeats=1)
        _record(f"forest_fit_lockstep_150x{n}x44", lockstep, n=n)
        _record(f"forest_fit_reference_150x{n}x44", reference, n=n)
        with capsys.disabled():
            print(f"forest fit (150 trees, {n}x44): lockstep "
                  f"{lockstep:.3f}s vs reference {reference:.3f}s "
                  f"({reference / lockstep:.1f}x)")
        assert lockstep <= reference * 1.5


def test_grouped_importance_batched_vs_loop(capsys):
    from tests.ml.importance_reference import permuted_oob_scores_loop
    rng = np.random.default_rng(1)
    X = rng.random((250, 10))
    y = 5 * X[:, 0] + 2 * X[:, 1] * X[:, 2] + rng.normal(0, 0.05, 250)
    forest = RandomForestRegressor(60, rng=2).fit(X, y)
    # Ten single-column groups, ten permutations each, on both sides.
    groups = {f"x{j}": [j] for j in range(10)}
    perm_rng = np.random.default_rng(3)
    perms = [np.stack([perm_rng.permutation(250) for _ in range(10)])
             for _ in range(10)]
    batched = _time(lambda: grouped_permutation_importance(
        forest, groups, n_repeats=10, rng=3))
    loop = _time(lambda: [permuted_oob_scores_loop(forest, (j,), p)
                          for j, p in enumerate(perms)], repeats=1)
    _record("grouped_importance_batched", batched, n=250)
    _record("grouped_importance_loop", loop, n=250)
    with capsys.disabled():
        print(f"grouped importance: batched {batched:.3f}s vs "
              f"loop {loop:.3f}s ({loop / batched:.1f}x)")
    assert batched <= loop * 1.5  # generous slack for timer noise


def test_gp_update_vs_refit(capsys):
    rng = np.random.default_rng(2)
    n = 120
    X = rng.random((n, 5))
    y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2

    def incremental():
        gp = GaussianProcessRegressor(kernel=Matern52(), alpha=1e-8,
                                      optimize=False).fit(X[:20], y[:20])
        for m in range(21, n + 1):
            gp.update(X[:m], y[:m])

    def refit():
        gp = GaussianProcessRegressor(kernel=Matern52(), alpha=1e-8,
                                      optimize=False).fit(X[:20], y[:20])
        for m in range(21, n + 1):
            gp.fit(X[:m], y[:m])

    inc = _time(incremental, repeats=2)
    full = _time(refit, repeats=2)
    _record("gp_incremental_growth_20_to_120", inc, n=n)
    _record("gp_full_refit_growth_20_to_120", full, n=n)
    with capsys.disabled():
        print(f"GP growth to n={n}: incremental {inc:.3f}s vs "
              f"refit {full:.3f}s ({full / inc:.1f}x)")
    assert inc <= full * 1.5


def test_refine_eval_lean_vs_reference(capsys):
    from tests.core import acquisition_reference as acq_ref
    from tests.gp import kernel_reference
    # Cold-session shape: an exact GP on ~90 observations of 6 selected
    # parameters; one L-BFGS-B evaluation is the posterior with its input
    # gradient, then one acquisition's value and gradient.
    rng = np.random.default_rng(8)
    X = rng.random((90, 6))
    y = np.log(50 + 200 * X[:, 0] ** 2 + 80 * X[:, 3] * X[:, 4]
               + rng.gamma(2.0, 5.0, 90))
    gp = GaussianProcessRegressor(rng=8, n_restarts=1).fit(X, y)
    mean, std = float(y.mean()), float(y.std())
    f_best = (float(y.min()) - mean) / std
    points = rng.random((50, 6))
    acqs = (ProbabilityOfImprovement(), ExpectedImprovement(),
            LowerConfidenceBound())

    def lean():
        for acq, u in itertools.product(acqs, points):
            mu, sigma, dmu, dsigma = gp.predict_with_gradient(u)
            acq.value_and_gradient((mu - mean) / std, sigma / std, dmu / std,
                                   dsigma / std, f_best)

    def reference():
        for acq, u in itertools.product(acqs, points):
            mu, sigma, dmu, dsigma = kernel_reference.predict_with_gradient(
                gp, u)
            acq_ref.utility(acq, np.array([(mu - mean) / std]),
                            np.array([sigma / std]), f_best)
            acq_ref.gradient(acq, (mu - mean) / std, sigma / std,
                             dmu / std, dsigma / std, f_best)

    calls = len(points) * len(acqs)
    lean_s = _time(lean, repeats=5) / calls
    reference_s = _time(reference, repeats=5) / calls
    _record("refine_eval_lean_n90_d6", lean_s, n=90)
    _record("refine_eval_reference_n90_d6", reference_s, n=90)
    with capsys.disabled():
        print(f"refine evaluation (n=90, d=6): lean {lean_s * 1e6:.0f}us vs "
              f"reference {reference_s * 1e6:.0f}us "
              f"({reference_s / lean_s:.1f}x)")
    assert lean_s <= reference_s * 1.5


def test_bo_iteration_wall_time(capsys):
    space = synthetic_space(4)
    objective = SyntheticObjective(space, n_effective=3, noise=0.01, rng=4)
    initial = [objective(u) for u in latin_hypercube(20, 4, rng=4)]

    def one_round():
        engine = BOEngine(rng=5, n_candidates=256)
        engine.minimize(objective, space, initial, budget=3)

    wall = _time(one_round, repeats=2) / 3.0
    _record("bo_iteration_n20_d4", wall, n=20)
    with capsys.disabled():
        print(f"BO iteration (n=20, d=4): {wall:.3f}s")
    assert wall > 0


def test_end_to_end_tune_wall_time(capsys):
    space = spark_space()

    def tune():
        objective = WorkloadObjective(get_workload("kmeans", "D1"), space,
                                      rng=6)
        ROBOTune(rng=6).tune(objective, 40, rng=6)

    wall = _time(tune, repeats=1)
    _record("robotune_e2e_kmeans_d1_b40", wall, n=40)
    with capsys.disabled():
        print(f"end-to-end tune (kmeans/D1, budget 40): {wall:.3f}s")
    assert wall > 0


class _SleepyObjective(SyntheticObjective):
    """Synthetic objective with a fixed per-evaluation latency, standing
    in for a cluster run; ``spawn_view`` is inherited, so concurrent
    workers may overlap the sleeps."""

    sleep_s = 0.2

    def __call__(self, u, time_limit_s=None):
        time.sleep(self.sleep_s)
        return super().__call__(u, time_limit_s)


def test_async_bo_vs_serial_fixed_latency(capsys):
    """Async k=4 vs the serial loop on a fixed-latency objective.

    Uniform latencies are the case lockstep rounds were once kept for;
    the one loop must still overlap the waiting there at >= 2x serial.
    """
    budget = 12

    def run(async_workers):
        space = synthetic_space(4)
        objective = _SleepyObjective(space, n_effective=3, noise=0.01,
                                     rng=22)
        initial = [objective(u) for u in latin_hypercube(8, 4, rng=22)]
        engine = BOEngine(rng=23, n_candidates=64, refine=False,
                          async_workers=async_workers)
        t0 = time.perf_counter()
        evals = engine.minimize(objective, space, initial, budget=budget)
        assert len(evals) == budget
        return time.perf_counter() - t0

    serial = run(0)
    k4 = run(4)
    _record_bo("bo_serial_b12_sleep200ms", serial, n=budget)
    _record_bo("bo_async_k4_b12_sleep200ms", k4, n=budget,
               speedup=round(serial / k4, 3))
    with capsys.disabled():
        print(f"BO (budget {budget}, 200ms/eval): serial {serial:.3f}s "
              f"vs async k=4 {k4:.3f}s ({serial / k4:.1f}x)")
    assert k4 <= serial / 2.0  # the throughput gate


class _DispersedSleepObjective(SyntheticObjective):
    """Latency-dispersed stand-in for cluster runs: each configuration
    sleeps a different amount (0.1–0.3 s derived from the vector), so
    asynchronous completion order genuinely interleaves instead of
    degenerating into lockstep rounds."""

    def __call__(self, u, time_limit_s=None):
        time.sleep(0.1 + 0.2 * float(np.asarray(u).mean()))
        return super().__call__(u, time_limit_s)


def test_async_bo_throughput_scaling(capsys):
    """Async engine throughput at k = 1, 2, 4, 8 workers.

    The perf gate: k=4 must complete the same budget at >= 2x the serial
    engine's throughput (evaluations are latency-bound, so folding
    completions without a round barrier overlaps the waiting).  k=1 is
    recorded as the parity-mode overhead measurement, k=8 as the
    saturation point (budget 12 leaves little depth beyond 4 workers).
    """
    budget = 12

    def run(async_workers):
        space = synthetic_space(4)
        objective = _DispersedSleepObjective(space, n_effective=3,
                                             noise=0.01, rng=24)
        initial = [objective(u) for u in latin_hypercube(8, 4, rng=24)]
        engine = BOEngine(rng=25, n_candidates=64, refine=False,
                          async_workers=async_workers)
        t0 = time.perf_counter()
        evals = engine.minimize(objective, space, initial, budget=budget)
        assert len(evals) == budget
        return time.perf_counter() - t0

    serial = run(0)
    _record_bo("bo_async_serial_b12_dispersed", serial, n=budget)
    with capsys.disabled():
        print(f"\nasync BO scaling (budget {budget}, 100-300ms/eval): "
              f"serial {serial:.3f}s", end="")
        walls = {}
        for k in (1, 2, 4, 8):
            walls[k] = run(k)
            _record_bo(f"bo_async_k{k}_b12_dispersed", walls[k], n=budget,
                       speedup=round(serial / walls[k], 3))
            print(f", k={k} {walls[k]:.3f}s ({serial / walls[k]:.1f}x)",
                  end="")
        print()
    assert walls[1] <= serial * 1.5   # parity mode: no pool, no overhead
    assert walls[4] <= serial / 2.0   # the throughput gate (measured ~3x)


def test_gp_lowrank_scaling_vs_exact(capsys):
    """Exact vs low-rank (Nyström/SoR) GP across training-set sizes.

    The exact GP's O(n^3) fit and O(n^2) predict dominate large-n
    sessions (warm starts routinely fold hundreds of prior rows into the
    surrogate); the low-rank path caps the cost at O(n·m^2) / O(m^2).
    Gate: at n=1000 and n=2000 the median exact/low-rank ratio of the
    fit+predict cycle, over interleaved repeats, must be >= 5x, while
    the low-rank posterior mean stays within a relative-RMSE tolerance
    of the exact one.  Interleaving exposes both sides to the same
    machine drift, and the median drops the odd slow run that made a
    single pair read anywhere from 1.9x to 7.6x.  On a 2-vCPU VM the
    n=1000 median still reads 3.1–6.4x (rel RMSE 0.10): there the ratio
    itself sits at the gate (ROADMAP item 5).
    """
    from repro.gp import LowRankGaussianProcessRegressor

    rng = np.random.default_rng(30)
    dim = 8
    n_max = 2000
    repeats = 7
    X_all = rng.random((n_max, dim))
    y_all = (np.sin(3 * X_all[:, 0]) + X_all[:, 1] ** 2
             + 0.3 * X_all[:, 2] * X_all[:, 3]
             + 0.05 * rng.standard_normal(n_max))
    Q = rng.random((256, dim))

    ratios: dict[int, float] = {}
    rel_rmse: dict[int, float] = {}
    with capsys.disabled():
        print()
        for n in (100, 300, 1000, 2000):
            X, y = X_all[:n], y_all[:n]

            def exact_cycle():
                gp = GaussianProcessRegressor(
                    kernel=Matern52(), optimize=False).fit(X, y)
                return gp.predict(Q)

            def lowrank_cycle():
                gp = LowRankGaussianProcessRegressor(
                    kernel=Matern52(), n_inducing=96,
                    optimize=False).fit(X, y)
                return gp.predict(Q)

            ex, lo = [], []
            for _ in range(repeats):
                ex.append(_time(exact_cycle, repeats=1))
                lo.append(_time(lowrank_cycle, repeats=1))
            ratios[n] = float(np.median(np.divide(ex, lo)))
            mu_e, mu_l = exact_cycle(), lowrank_cycle()
            spread = float(np.ptp(mu_e)) or 1.0
            rel_rmse[n] = float(np.sqrt(np.mean((mu_l - mu_e) ** 2))
                                / spread)
            _record(f"gp_exact_fit_predict_n{n}", float(np.median(ex)), n=n)
            _record(f"gp_lowrank_m96_fit_predict_n{n}", float(np.median(lo)),
                    n=n)
            print(f"GP fit+predict n={n}: exact {np.median(ex):.3f}s vs "
                  f"low-rank(m=96) {np.median(lo):.3f}s (median of "
                  f"{repeats} paired ratios {ratios[n]:.1f}x, "
                  f"range {min(np.divide(ex, lo)):.1f}-"
                  f"{max(np.divide(ex, lo)):.1f}x, "
                  f"rel RMSE {rel_rmse[n]:.3f})")

    assert ratios[1000] >= 5.0        # the scale-up gate
    assert rel_rmse[1000] <= 0.15     # posterior stays faithful
    assert ratios[2000] >= 5.0        # the gap must widen, never close


def test_zzy_write_bo_engine_file(capsys):
    BO_BENCH.flush(capsys)
    assert BO_BENCH.path.exists()


def test_zzz_write_bench_file(capsys):
    """Runs last (alphabetical within file ordering is execution order)."""
    BENCH.flush(capsys)
    assert BENCH.path.exists()
