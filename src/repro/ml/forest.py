"""Bagged tree ensembles: Random Forests and Extremely Randomized Trees.

Both expose *out-of-bag* (OOB) predictions, which the paper's parameter
selection uses as the baseline for Mean-Decrease-in-Accuracy importance:
each tree is evaluated only on samples it never saw during training, giving
an unbiased generalization estimate without a held-out set.  A fitted
forest also holds all its trees in one :class:`~repro.ml.tree.NodeTable`,
through which the permutation-importance scorer descends every OOB
(tree, sample) pair in one call.
"""

from __future__ import annotations

import numpy as np

from ..obs import as_tracer
from ..utils.parallel import parallel_map, resolve_n_jobs
from ..utils.rng import as_generator, spawn
from .metrics import r2_score
from .tree import DecisionTreeRegressor, NodeTable, grow_trees

__all__ = ["RandomForestRegressor", "ExtraTreesRegressor"]


def _fit_group_job(task) -> tuple[list[DecisionTreeRegressor],
                                   list[np.ndarray | None], int]:
    """Fit one contiguous group of the ensemble's trees in lockstep
    (module-level for process pools).

    Each tree carries its own child generator, which draws its bootstrap
    and then every split, so the fitted trees — and the bootstrap/OOB
    splits — are identical however the trees are grouped, and whether
    groups run serially, on threads, or across processes.  Returns the
    trees, their OOB masks and the group's split-search call count.
    """
    X, y, params, splitter, crngs, bootstrap = task
    n = X.shape[0]
    trees, rows, oobs = [], [], []
    for crng in crngs:
        if bootstrap:
            idx = crng.integers(0, n, size=n)
            oob = np.ones(n, dtype=bool)
            oob[idx] = False
        else:
            idx = np.arange(n)
            oob = None
        trees.append(DecisionTreeRegressor(splitter=splitter, rng=crng,
                                           **params))
        rows.append(idx)
        oobs.append(oob)
    return trees, oobs, grow_trees(trees, X, y, rows)


class _BaseForestRegressor:
    """Common machinery for bagged regression-tree ensembles.

    ``n_jobs`` controls how many workers fit trees concurrently (see
    :func:`repro.utils.parallel.resolve_n_jobs`; ``None`` defers to the
    ``ROBOTUNE_JOBS`` environment variable).  Tree construction is
    pure-Python and GIL-bound, so the default backend is ``"process"``;
    results are independent of worker count and backend because every
    tree owns a pre-spawned child generator.
    """

    _splitter = "best"

    def __init__(self, n_estimators: int = 100, *,
                 max_depth: int | None = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features: int | float | str | None = "third",
                 bootstrap: bool = True,
                 n_jobs: int | None = None,
                 parallel_backend: str = "process",
                 rng: np.random.Generator | int | None = None,
                 tracer=None):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.n_jobs = n_jobs
        self.parallel_backend = parallel_backend
        self.rng = rng
        self.tracer = as_tracer(tracer)
        self._fitted = False

    # -- fitting ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "_BaseForestRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if y.shape != (X.shape[0],):
            raise ValueError("y must be 1-D with len(y) == len(X)")
        n = X.shape[0]
        rng = as_generator(self.rng)
        child_rngs = spawn(rng, self.n_estimators)
        params = dict(max_depth=self.max_depth,
                      min_samples_split=self.min_samples_split,
                      min_samples_leaf=self.min_samples_leaf,
                      max_features=self.max_features)
        # Contiguous groups of trees, one per worker (one when serial);
        # each group grows its trees in lockstep.
        jobs = resolve_n_jobs(self.n_jobs)
        groups = 1 if self.parallel_backend == "serial" else min(
            jobs, self.n_estimators)
        cuts = [self.n_estimators * g // groups for g in range(groups + 1)]
        tasks = [(X, y, params, self._splitter, child_rngs[a:b],
                  self.bootstrap) for a, b in zip(cuts, cuts[1:])]
        with self.tracer.timer("forest.fit"):
            fitted = parallel_map(_fit_group_job, tasks, n_jobs=jobs,
                                  backend=self.parallel_backend,
                                  tracer=self.tracer)
        self.trees_ = [tree for trees, _, _ in fitted for tree in trees]
        oobs = [oob for _, group, _ in fitted for oob in group]
        self.tracer.emit("forest.fit", {
            "trees": int(self.n_estimators), "n": int(n),
            "features": int(X.shape[1]),
            "nodes": sum(tree.node_count for tree in self.trees_),
            "batches": sum(batches for _, _, batches in fitted)})
        # oob_mask_[t, i] is True when sample i is out-of-bag for tree t.
        self.oob_mask_ = np.zeros((self.n_estimators, n), dtype=bool)
        for t, oob in enumerate(oobs):
            if oob is not None:
                self.oob_mask_[t] = oob
        self.nodes_, roots = NodeTable.concat([t.nodes_ for t in self.trees_])
        # Every OOB (tree, sample) pair in tree-major order: the root it
        # descends from and its sample.
        trees, self.oob_rows_ = np.nonzero(self.oob_mask_)
        self.oob_roots_ = roots[trees]
        self.n_features_ = X.shape[1]
        self._X_train = X
        self._y_train = y
        self._fitted = True
        return self

    # -- prediction ---------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Average prediction over all trees."""
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        out = np.zeros(X.shape[0], dtype=float)
        # Tree by tree: one forest-wide descent would hold a (tree, row)
        # pair for every tree and every row of an unbounded X at once.
        for tree in self.trees_:
            out += tree.predict(X)
        return out / len(self.trees_)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """R² of :meth:`predict` on the given data."""
        return r2_score(np.asarray(y, dtype=float), self.predict(X))

    # -- out-of-bag ----------------------------------------------------------------
    def oob_prediction(self, X: np.ndarray | None = None) -> np.ndarray:
        """Per-sample prediction using only trees for which it is OOB.

        *X* defaults to the training matrix; passing a permuted copy of the
        training matrix (same row order!) yields the permuted-OOB
        predictions used by MDA importance.  Samples that are in-bag for
        every tree get NaN.
        """
        self._check_oob()
        if X is None:
            X = self._X_train
        X = np.asarray(X, dtype=float)
        if X.shape != self._X_train.shape:
            raise ValueError("X must have the training matrix's shape")
        # Tree by tree, each on its own OOB rows: the pairs come out in
        # oob_rows_ order.  This pass runs once per forest, so its per-call
        # cost is small, and it stays on DecisionTreeRegressor.predict, the
        # tree layer tunebench/layers.py times.  The permutation scorer,
        # which needs every pair's path, descends the node table instead.
        values = [tree.predict(X[mask])
                  for tree, mask in zip(self.trees_, self.oob_mask_)
                  if mask.any()]
        return self._oob_average(np.concatenate(values or [np.empty(0)]))

    def _oob_average(self, values: np.ndarray) -> np.ndarray:
        """Per-sample mean of per-pair *values*, one per OOB pair in the
        order of :attr:`oob_rows_`; NaN for samples with no OOB tree.

        ``np.bincount`` adds the pairs in order, so each sample's total is
        summed tree by tree, exactly as a per-tree loop accumulates it.
        """
        n = self._X_train.shape[0]
        total = np.bincount(self.oob_rows_, weights=values, minlength=n)
        count = np.bincount(self.oob_rows_, minlength=n)
        with np.errstate(invalid="ignore"):
            pred = total / count
        pred[count == 0] = np.nan
        return pred

    def oob_score(self, X: np.ndarray | None = None) -> float:
        """OOB R² score (ignoring samples with no OOB trees)."""
        return self._oob_r2(self.oob_prediction(X))

    def _oob_r2(self, pred: np.ndarray) -> float:
        """R² of per-sample OOB predictions *pred*, skipping NaN samples."""
        ok = ~np.isnan(pred)
        if not np.any(ok):
            raise RuntimeError("no sample has an OOB prediction; "
                               "increase n_estimators")
        return r2_score(self._y_train[ok], pred[ok])

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean-Decrease-in-Impurity importances, averaged over trees.

        Kept for the MDI-vs-MDA ablation; the paper argues (citing Strobl
        et al.) that MDI is unreliable with mixed-scale features and uses
        MDA (see :mod:`repro.ml.importance`) instead.
        """
        self._check_fitted()
        imp = np.mean([t.feature_importances_ for t in self.trees_], axis=0)
        total = imp.sum()
        return imp / total if total > 0.0 else imp

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError(f"{type(self).__name__} is not fitted")

    def _check_oob(self) -> None:
        self._check_fitted()
        if not self.bootstrap:
            raise RuntimeError("OOB estimates require bootstrap=True")


class RandomForestRegressor(_BaseForestRegressor):
    """Breiman (2001) random forest for regression.

    Bootstrap-bagged CART trees with per-split feature subsampling
    (default ``max_features="third"``, Breiman's p/3 regression heuristic).
    """

    _splitter = "best"


class ExtraTreesRegressor(_BaseForestRegressor):
    """Extremely Randomized Trees (Geurts et al., 2006) for regression.

    Splits use one uniformly random threshold per candidate feature.  Unlike
    scikit-learn's default, ``bootstrap=True`` here so OOB scores (needed by
    the paper's MDA comparison) are available out of the box.
    """

    _splitter = "random"
