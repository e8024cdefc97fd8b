"""Reference OOB scoring the forest's permutation importance is tested against.

:func:`repro.ml.importance.grouped_permutation_importance` descends only
the out-of-bag (tree, row) pairs a permuted group can move, through the
forest-wide node table.  This module keeps the plain computation of the
same quantities, sharing neither the node table nor that restriction
with it:

* :func:`oob_prediction` — every OOB row of every tree predicted with
  per-tree :meth:`DecisionTreeRegressor.predict` and summed in tree
  order;
* :func:`oob_score` — the R² of those predictions;
* :func:`permuted_oob_scores_loop` — one full permuted copy of the
  training matrix and one full OOB pass per permutation.
"""

from __future__ import annotations

import numpy as np

from repro.ml.metrics import r2_score


def oob_prediction(forest, X: np.ndarray) -> np.ndarray:
    """Per-sample mean over the trees for which the sample is OOB."""
    n = X.shape[0]
    total = np.zeros(n, dtype=float)
    count = np.zeros(n, dtype=np.int64)
    for t, tree in enumerate(forest.trees_):
        mask = forest.oob_mask_[t]
        if not np.any(mask):
            continue
        total[mask] += tree.predict(X[mask])
        count[mask] += 1
    with np.errstate(invalid="ignore"):
        pred = total / count
    pred[count == 0] = np.nan
    return pred


def oob_score(forest, X: np.ndarray) -> float:
    """OOB R², ignoring samples with no OOB tree."""
    pred = oob_prediction(forest, X)
    ok = ~np.isnan(pred)
    return r2_score(forest._y_train[ok], pred[ok])


def permuted_oob_scores_loop(forest, cols: tuple[int, ...],
                             perms: np.ndarray) -> np.ndarray:
    """OOB R² with the group *cols* permuted by each row of *perms*."""
    X = forest._X_train
    scores = np.empty(perms.shape[0], dtype=float)
    for r, perm in enumerate(perms):
        Xp = X.copy()
        Xp[:, cols] = X[np.ix_(perm, cols)]
        scores[r] = oob_score(forest, Xp)
    return scores
