"""Bagged tree ensembles: Random Forests and Extremely Randomized Trees.

Both expose *out-of-bag* (OOB) predictions, which the paper's parameter
selection uses as the baseline for Mean-Decrease-in-Accuracy importance:
each tree is evaluated only on samples it never saw during training, giving
an unbiased generalization estimate without a held-out set.  A fitted
forest also holds all its trees in one :class:`~repro.ml.tree.NodeTable`,
through which the permutation-importance scorer descends every OOB
(tree, sample) pair in one call.  A fit grows all its trees together, in
lockstep, on the caller's thread (:func:`~repro.ml.tree.grow_trees`).
"""

from __future__ import annotations

import numpy as np

from ..obs import as_tracer
from ..utils.rng import as_generator, spawn
from .metrics import r2_score
from .tree import DecisionTreeRegressor, NodeTable, grow_trees

__all__ = ["RandomForestRegressor", "ExtraTreesRegressor"]


class _BaseForestRegressor:
    """Common machinery for bagged regression-tree ensembles.

    Every tree owns a child generator spawned up front, which draws its
    bootstrap and then every split, so each fitted tree is the one a
    standalone fit with that generator would give.
    """

    _splitter = "best"

    def __init__(self, n_estimators: int = 100, *,
                 max_depth: int | None = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features: int | float | str | None = "third",
                 bootstrap: bool = True,
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
        params = dict(max_depth=self.max_depth,
                      min_samples_split=self.min_samples_split,
                      min_samples_leaf=self.min_samples_leaf,
                      max_features=self.max_features)
        oob_mask = np.zeros((self.n_estimators, n), dtype=bool)
        grown, rows = [], []
        with self.tracer.timer("forest.fit"):
            for t, crng in enumerate(spawn(as_generator(self.rng),
                                           self.n_estimators)):
                if self.bootstrap:
                    idx = crng.integers(0, n, size=n)
                    oob_mask[t] = True
                    oob_mask[t, idx] = False
                else:
                    idx = np.arange(n)
                grown.append(DecisionTreeRegressor(
                    splitter=self._splitter, rng=crng, **params))
                rows.append(idx)
            batches = grow_trees(grown, X, y, rows)
        # oob_mask_[t, i] is True when sample i is out-of-bag for tree t.
        self.trees_, self.oob_mask_ = grown, oob_mask
        self.tracer.emit("forest.fit", {
            "trees": int(self.n_estimators), "n": int(n),
            "features": int(X.shape[1]),
            "nodes": sum(tree.node_count for tree in self.trees_),
            "batches": batches})
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
