"""Worker-count invariance of the comparison-study harness: its sweeps
run in worker processes at ``n_jobs > 1``."""

import numpy as np

from repro.bench import ComparisonStudy


def small_study(**kw):
    return ComparisonStudy(budget=10, trials=2, workloads=["kmeans"],
                           datasets=["D1", "D2"],
                           tuners=["RandomSearch", "Gunther"], **kw)


def test_parallel_sweeps_match_serial():
    serial = small_study().run()
    par = small_study(n_jobs=2).run()
    assert len(serial.records) == len(par.records)
    for a, b in zip(serial.records, par.records):
        assert (a.tuner, a.workload, a.dataset, a.trial) \
            == (b.tuner, b.workload, b.dataset, b.trial)
        assert a.best_time_s == b.best_time_s
        assert a.search_cost_s == b.search_cost_s
        np.testing.assert_array_equal(a.curve, b.curve)
        assert a.statuses == b.statuses


def test_progress_callback_sees_every_session():
    lines = []
    small_study(n_jobs=2).run(lines.append)
    assert len(lines) == 2 * 1 * 2 * 2  # trials * workloads * tuners * datasets
