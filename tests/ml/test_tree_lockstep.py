"""Bitwise parity of the lockstep grower with the depth-first reference.

:func:`repro.ml.tree.grow_trees` grows many trees at once and batches
their split searches; ``tree_reference`` grows one tree and one node at a
time.  Every fitted tree must match its reference on all five node-table
arrays and on its MDI importances, whatever shape the data has and
whatever trees it is grown beside.
"""

import sys
import threading

import numpy as np
import pytest

from test_tree_vectorized import random_dataset
from tree_reference import ReferenceTree, reference_forest

from repro.ml import (DecisionTreeRegressor, ExtraTreesRegressor,
                      RandomForestRegressor)
from repro.ml import tree as tree_module
from repro.ml.tree import grow_trees
from repro.obs import InMemorySink, Tracer
from repro.utils.rng import spawn

FIELDS = ("feature", "threshold", "left", "right", "value")


def assert_same_tree(got, ref):
    for name in FIELDS:
        assert np.array_equal(getattr(got.nodes_, name),
                              getattr(ref.nodes_, name)), name
    assert np.array_equal(got.feature_importances_, ref.feature_importances_)


def selection_data(n, d=44, seed=0):
    """Selection-shaped inputs: a Latin hypercube over *d* parameters,
    some on a coarse grid, and a log-runtime target driven by a few."""
    rng = np.random.default_rng(seed)
    strata = np.argsort(rng.random((d, n)), axis=1).T
    X = (strata + rng.random((n, d))) / n
    X[:, 5:15] = np.floor(X[:, 5:15] * 4) / 4
    y = np.log(50 + 200 * X[:, 0] ** 2 + 80 * X[:, 3] * X[:, 7]
               + 30 * np.sin(6 * X[:, 11]) + rng.gamma(2.0, 5.0, n))
    return X, y


FOREST_CASES = {
    "rf-cold": (RandomForestRegressor, "best", 100, 150),
    "et-cold": (ExtraTreesRegressor, "random", 100, 150),
    "rf-serve": (RandomForestRegressor, "best", 30, 150),
    "et-serve": (ExtraTreesRegressor, "random", 30, 150),
    # 300 distinct values a column: the search's rank keys take two bytes.
    "rf-two-byte-keys": (RandomForestRegressor, "best", 300, 20),
}


@pytest.mark.parametrize("case", sorted(FOREST_CASES))
def test_forest_matches_reference(case):
    cls, splitter, n, trees = FOREST_CASES[case]
    X, y = selection_data(n, seed=n)
    if n > 255:
        assert tree_module._rank_keys(X).dtype == np.uint16
    forest = cls(trees, max_features=0.5, rng=5).fit(X, y)
    ref, oob = reference_forest(X, y, trees, splitter=splitter, rng=5,
                                max_features=0.5)
    assert np.array_equal(forest.oob_mask_, oob)
    for got, want in zip(forest.trees_, ref):
        assert_same_tree(got, want)
    mdi = np.mean([t.feature_importances_ for t in ref], axis=0)
    assert np.array_equal(forest.feature_importances_, mdi / mdi.sum())


@pytest.mark.parametrize("cls,splitter", [(RandomForestRegressor, "best"),
                                          (ExtraTreesRegressor, "random")])
def test_forest_without_bootstrap_matches_reference(cls, splitter):
    X, y = selection_data(60, d=12, seed=2)
    forest = cls(20, max_features=0.5, bootstrap=False, rng=8).fit(X, y)
    ref, _ = reference_forest(X, y, 20, splitter=splitter, bootstrap=False,
                              rng=8, max_features=0.5)
    for got, want in zip(forest.trees_, ref):
        assert_same_tree(got, want)


@pytest.mark.parametrize("splitter", ["best", "random"])
@pytest.mark.parametrize("min_samples_leaf", [1, 2, 5])
@pytest.mark.parametrize("max_features", [None, 1, 0.5, "sqrt"])
def test_single_tree_matches_reference(max_features, min_samples_leaf,
                                       splitter):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        X, y = random_dataset(rng, int(rng.integers(20, 90)), 7)
        params = dict(max_features=max_features,
                      min_samples_leaf=min_samples_leaf, splitter=splitter)
        assert_same_tree(DecisionTreeRegressor(rng=seed, **params).fit(X, y),
                         ReferenceTree(rng=seed, **params).fit(X, y))


@pytest.mark.parametrize("splitter", ["best", "random"])
@pytest.mark.parametrize("params", [
    dict(max_depth=0), dict(max_depth=1), dict(max_depth=3),
    dict(min_samples_split=5), dict(min_samples_split=12, max_depth=4),
    dict(min_samples_split=3, min_samples_leaf=2, max_features=2),
])
def test_stopping_rules_match_reference(params, splitter):
    X, y = random_dataset(np.random.default_rng(4), 70, 6)
    assert_same_tree(
        DecisionTreeRegressor(splitter=splitter, rng=4, **params).fit(X, y),
        ReferenceTree(splitter=splitter, rng=4, **params).fit(X, y))


@pytest.mark.parametrize("splitter", ["best", "random"])
@pytest.mark.parametrize("n", [1, 2])
def test_tiny_inputs_match_reference(n, splitter):
    rng = np.random.default_rng(n)
    X, y = rng.random((n, 3)), rng.random(n)
    got = DecisionTreeRegressor(splitter=splitter, rng=1).fit(X, y)
    assert_same_tree(got, ReferenceTree(splitter=splitter, rng=1).fit(X, y))
    assert got.node_count == 2 * n - 1


@pytest.mark.parametrize("splitter", ["best", "random"])
def test_tied_targets_and_degenerate_columns_match_reference(splitter):
    for seed in range(6):
        rng = np.random.default_rng(seed)
        X, _ = random_dataset(rng, 80, 6)
        y = np.round(3 * X[:, 0] + rng.normal(0, 0.5, 80))  # heavy ties
        y[:20] = 1.0                                      # one pure block
        assert_same_tree(
            DecisionTreeRegressor(splitter=splitter, max_features=0.5,
                                  rng=seed).fit(X, y),
            ReferenceTree(splitter=splitter, max_features=0.5,
                          rng=seed).fit(X, y))


@pytest.mark.parametrize("splitter", ["best", "random"])
def test_featureless_input_is_one_leaf(splitter):
    X, y = np.empty((12, 0)), np.random.default_rng(2).random(12)
    got = DecisionTreeRegressor(splitter=splitter, rng=2).fit(X, y)
    assert_same_tree(got, ReferenceTree(splitter=splitter, rng=2).fit(X, y))
    assert got.node_count == 1


def test_constant_target_is_one_leaf():
    X = np.random.default_rng(0).random((30, 4))
    y = np.full(30, 2.5)
    got = DecisionTreeRegressor(rng=0).fit(X, y)
    assert_same_tree(got, ReferenceTree(rng=0).fit(X, y))
    assert got.node_count == 1


def test_extension_scan_matches_reference(monkeypatch):
    """Columns that change in one row only cannot split under
    ``min_samples_leaf=2``; with ``max_features=1`` most nodes' first
    candidate is such a column, so the search must scan on."""
    rng = np.random.default_rng(3)
    n, d = 40, 8
    X = np.zeros((n, d))
    X[np.arange(d - 1), np.arange(d - 1)] = 1.0
    X[:, d - 1] = rng.random(n)
    y = 4 * X[:, d - 1] + rng.normal(0, 0.1, n)
    widths = []
    search = tree_module._Lockstep._thresholds

    def spy(self, R, real, n_rows, Y, F, fv, base):
        widths.append(F.shape[1])
        return search(self, R, real, n_rows, Y, F, fv, base)

    monkeypatch.setattr(tree_module._Lockstep, "_thresholds", spy)
    for seed in range(5):
        params = dict(max_features=1, min_samples_leaf=2, rng=seed)
        got = DecisionTreeRegressor(**params).fit(X, y)
        assert_same_tree(got, ReferenceTree(**params).fit(X, y))
        assert got.node_count > 1
    assert max(widths) > 1  # some search went past the first feature


@pytest.mark.parametrize("splitter", ["best", "random"])
def test_batch_composition_changes_no_bit(splitter):
    """The same 15 trees grown one at a time, in groups of 7, and all
    together; each on its own bootstrap of different size."""
    X, y = selection_data(64, d=20, seed=9)
    sizes = np.random.default_rng(9).integers(2, 64, 15)
    rows = [np.random.default_rng(int(s)).integers(0, 64, s) for s in sizes]

    def grown(group):
        trees = [DecisionTreeRegressor(splitter=splitter, max_features=0.5,
                                       rng=crng)
                 for crng in spawn(np.random.default_rng(21), 15)]
        for a in range(0, 15, group):
            grow_trees(trees[a:a + group], X, y, rows[a:a + group])
        return trees

    alone, by7, together = grown(1), grown(7), grown(15)
    refs = [ReferenceTree(splitter=splitter, max_features=0.5, rng=crng)
            .fit(X[idx], y[idx])
            for crng, idx in zip(spawn(np.random.default_rng(21), 15), rows)]
    for a, b, c, ref in zip(alone, by7, together, refs):
        assert_same_tree(a, ref)
        assert_same_tree(b, ref)
        assert_same_tree(c, ref)


def test_grow_trees_counts_nodes_and_batches():
    X, y = selection_data(100, seed=1)
    sink = InMemorySink()
    forest = RandomForestRegressor(150, max_features=0.5, rng=3,
                                   tracer=Tracer(sink)).fit(X, y)
    (event,) = [e["data"] for e in sink.events()
                if e["type"] == "forest.fit"]
    nodes = sum(t.node_count for t in forest.trees_)
    splits = sum(int((t.nodes_.feature >= 0).sum()) for t in forest.trees_)
    assert event["trees"] == 150 and event["n"] == 100
    assert event["features"] == 44
    assert event["nodes"] == nodes
    # Every split came from one search; lockstep batching runs thousands
    # of them in a few hundred calls.
    assert splits > 5000
    assert 0 < event["batches"] < splits / 5


def test_rank_keys_order_columns_as_their_values():
    X = np.array([[0.5, -0.0, 3.0],
                  [0.1, 0.0, 3.0],
                  [0.5, -1.0, 3.0],
                  [np.inf, 2.0, 3.0]])
    keys = tree_module._rank_keys(X)
    assert keys.dtype == np.uint8 and keys.shape == (5, 4)
    assert keys[:4, :3].tolist() == [[1, 1, 0], [0, 1, 0], [1, 0, 0],
                                     [2, 2, 0]]
    assert (keys[4] == 3).all() and (keys[:, 3] == 3).all()   # pad key
    for j in range(3):
        assert np.array_equal(np.argsort(keys[:4, j], kind="stable"),
                              np.argsort(X[:, j], kind="stable"))


@pytest.mark.parametrize("fit", [
    lambda X, y: DecisionTreeRegressor(rng=0).fit(X, y),
    lambda X, y: RandomForestRegressor(5, rng=0).fit(X, y),
    lambda X, y: ExtraTreesRegressor(5, rng=0).fit(X, y),
], ids=["tree", "rf", "et"])
def test_nan_in_X_is_rejected(fit):
    X, y = selection_data(20, d=12, seed=1)
    X[7, 2] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        fit(X, y)


def test_forests_fitted_at_once_from_threads_equal_serial_fits():
    """Each fit's search buffers are its own: fits that interleave (NumPy
    drops the GIL inside its loops) change no bit of one another.  Four
    threads, two per forest, on the switch interval shortened."""
    data = [selection_data(100, seed=s) for s in (11, 12)]

    def fit(i):
        X, y = data[i]
        return RandomForestRegressor(60, max_features=0.5, rng=i).fit(X, y)

    serial = [fit(0), fit(1)]
    start = threading.Barrier(4)
    got = {}

    def run(t):
        start.wait(timeout=30)
        got[t] = [fit(t % 2) for _ in range(2)]

    threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(got) == [0, 1, 2, 3]
    for t, forests in got.items():
        for forest in forests:
            for a, b in zip(forest.trees_, serial[t % 2].trees_):
                assert_same_tree(a, b)
