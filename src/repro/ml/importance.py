"""Mean-Decrease-in-Accuracy (permutation) importance with grouped features.

Implements the paper's parameter-ranking method (§3.3 "Ranking the
Parameters", §4 "Parameter Selection"):

1. record a baseline out-of-bag R² score of a fitted forest;
2. permute each feature column (or *group* of collinear columns, permuted
   together with a single shared permutation) and measure the drop in OOB
   R²;
3. repeat each permutation ``n_repeats`` times (the paper uses 10) and
   average the drops for a stable ranking.

An unimportant feature leaves the score unchanged when shuffled; a feature
the model relies on produces a large drop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..obs import as_tracer
from ..utils.rng import as_generator
from .forest import _BaseForestRegressor

__all__ = ["GroupImportance", "grouped_permutation_importance"]


@dataclass(frozen=True)
class GroupImportance:
    """Importance of one feature group.

    Attributes
    ----------
    group:
        Group label (a parameter name for singleton groups).
    columns:
        Feature-matrix column indices permuted together.
    importance:
        Mean drop in OOB R² over repeats (higher = more important).
    std:
        Standard deviation of the drop over repeats.
    """

    group: str
    columns: tuple[int, ...]
    importance: float
    std: float


def _oob_paths(forest: _BaseForestRegressor
               ) -> tuple[np.ndarray, np.ndarray]:
    """Leaf value and tested-feature mask of every OOB pair's unpermuted
    path, in ``forest.oob_rows_`` order."""
    forest._check_oob()
    X = forest._X_train
    tested = np.zeros((forest.oob_rows_.size, X.shape[1]), dtype=bool)
    leaves = forest.nodes_.descend(X, forest.oob_roots_, forest.oob_rows_,
                                   tested)
    return forest.nodes_.value[leaves], tested


def _permuted_oob_scores(forest: _BaseForestRegressor,
                         values: np.ndarray, tested: np.ndarray,
                         cols: tuple[int, ...], perms: np.ndarray
                         ) -> tuple[np.ndarray, int]:
    """OOB R² of the forest with one group permuted, for every permutation.

    *values* and *tested* come from :func:`_oob_paths`.  A pair whose
    path tests none of the group's columns reads only untouched columns,
    so it reaches the same leaf after any permutation: only the other
    pairs are descended again, through the R permuted training matrices
    stacked into one.  Each repeat's per-sample sums then run over the
    pairs in tree order, so every score is bit-identical to
    ``forest.oob_score(Xp)`` on the permuted copy.  Also returns the
    number of (pair, repeat) descents made.
    """
    X = forest._X_train
    n_rep, n = perms.shape
    col_idx = np.asarray(cols, dtype=np.intp)
    touched = np.nonzero(tested[:, col_idx].any(axis=1))[0]
    stacked = np.repeat(X[np.newaxis], n_rep, axis=0)
    # stacked[r, i, c] == X[perms[r, i], c] for the group's columns.
    stacked[:, :, col_idx] = X[:, col_idx][perms]
    rows = (forest.oob_rows_[touched]
            + n * np.arange(n_rep)[:, np.newaxis]).ravel()
    leaves = forest.nodes_.descend(stacked.reshape(n_rep * n, X.shape[1]),
                                   np.tile(forest.oob_roots_[touched], n_rep),
                                   rows)
    moved = forest.nodes_.value[leaves].reshape(n_rep, touched.size)
    scores = np.empty(n_rep, dtype=float)
    permuted = values.copy()
    for r in range(n_rep):
        permuted[touched] = moved[r]
        scores[r] = forest._oob_r2(forest._oob_average(permuted))
    return scores, int(rows.size)


def grouped_permutation_importance(
        forest: _BaseForestRegressor,
        groups: Mapping[str, Sequence[int]],
        *, n_repeats: int = 10,
        rng: np.random.Generator | int | None = None,
        tracer=None,
) -> list[GroupImportance]:
    """Grouped MDA importances from a fitted bootstrap forest.

    Parameters
    ----------
    forest:
        A fitted :class:`RandomForestRegressor` / :class:`ExtraTreesRegressor`
        with ``bootstrap=True`` (OOB predictions are required).
    groups:
        Mapping of group label → column indices; collinear parameters share
        a group and are permuted with one shared row permutation so their
        joint information is destroyed together.
    n_repeats:
        Independent permutations per group; drops are averaged.
    tracer:
        Optional :class:`repro.obs.Tracer`; scoring time accumulates in
        the ``importance`` timer, and one ``importance`` event counts the
        OOB pairs and the (pair, repeat) descents the permuted groups
        made.

    Returns
    -------
    Results sorted by decreasing mean importance.
    """
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")
    rng = as_generator(rng)
    tracer = as_tracer(tracer)
    X = forest._X_train
    n = X.shape[0]

    # Every group is checked and its permutations drawn before any
    # scoring starts.
    tasks: list[tuple[str, tuple[int, ...], np.ndarray]] = []
    for label, cols in groups.items():
        cols = tuple(int(c) for c in cols)
        if not cols:
            raise ValueError(f"group {label!r} has no columns")
        if any(c < 0 or c >= X.shape[1] for c in cols):
            raise IndexError(f"group {label!r} has out-of-range columns {cols}")
        perms = np.stack([rng.permutation(n) for _ in range(n_repeats)])
        tasks.append((label, cols, perms))

    with tracer.timer("importance"):
        values, tested = _oob_paths(forest)
        baseline = forest._oob_r2(forest._oob_average(values))
        results, descents = [], 0
        for label, cols, perms in tasks:
            scores, made = _permuted_oob_scores(forest, values, tested,
                                                cols, perms)
            descents += made
            drops = baseline - scores
            results.append(GroupImportance(
                group=label,
                columns=cols,
                importance=float(drops.mean()),
                std=float(drops.std(ddof=1)) if n_repeats > 1 else 0.0,
            ))
    tracer.emit("importance", {"groups": len(tasks), "repeats": n_repeats,
                               "oob_pairs": int(forest.oob_rows_.size),
                               "descents": descents})
    results.sort(key=lambda g: g.importance, reverse=True)
    return results
