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
from ..utils.parallel import parallel_map
from ..utils.rng import as_generator
from .forest import _BaseForestRegressor
from .metrics import r2_score

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


def _permuted_oob_scores_batched(forest: _BaseForestRegressor,
                                 cols: tuple[int, ...],
                                 perms: np.ndarray) -> np.ndarray:
    """OOB R² of the forest with one group permuted, for every permutation.

    Equivalent to ``forest.oob_score(Xp)`` per permutation, but makes a
    single pass over the trees: for each tree the OOB rows of all repeats
    are stacked into one prediction batch, so the per-call tree traversal
    overhead is paid once per tree instead of once per (tree, repeat).
    Only the group's columns are materialized per repeat — the full
    training matrix is never copied.  Per-sample predictions, their
    accumulation order over trees, and the final R² are bit-identical to
    the per-repeat loop.
    """
    X = forest._X_train
    y = forest._y_train
    n_rep, n = perms.shape
    col_idx = np.asarray(cols, dtype=np.intp)
    Xg = X[:, col_idx]                       # (n, g) group values
    totals = np.zeros((n_rep, n), dtype=float)
    counts = np.zeros(n, dtype=np.int64)
    for t, tree in enumerate(forest.trees_):
        mask = forest.oob_mask_[t]
        if not np.any(mask):
            continue
        rows = np.nonzero(mask)[0]
        m = rows.size
        batch = np.broadcast_to(X[rows], (n_rep, m, X.shape[1])).copy()
        # Xp[rows, cols] == X[perm, cols][rows] for each repeat's perm.
        batch[:, :, col_idx] = Xg[perms[:, rows]]
        preds = tree.predict(batch.reshape(n_rep * m, X.shape[1]))
        totals[:, rows] += preds.reshape(n_rep, m)
        counts[rows] += 1
    scores = np.empty(n_rep, dtype=float)
    with np.errstate(invalid="ignore"):
        preds = totals / counts
    ok = counts > 0
    if not np.any(ok):
        raise RuntimeError("no sample has an OOB prediction; "
                           "increase n_estimators")
    for r in range(n_rep):
        scores[r] = r2_score(y[ok], preds[r, ok])
    return scores


def _permuted_oob_scores_loop(forest: _BaseForestRegressor,
                              cols: tuple[int, ...],
                              perms: np.ndarray) -> np.ndarray:
    """Reference per-repeat implementation (one full OOB pass per
    permutation) that tests compare the batched scorer against."""
    X = forest._X_train
    scores = np.empty(perms.shape[0], dtype=float)
    for r, perm in enumerate(perms):
        Xp = X.copy()
        Xp[:, cols] = X[np.ix_(perm, cols)]
        scores[r] = forest.oob_score(Xp)
    return scores


def grouped_permutation_importance(
        forest: _BaseForestRegressor,
        groups: Mapping[str, Sequence[int]],
        *, n_repeats: int = 10,
        rng: np.random.Generator | int | None = None,
        n_jobs: int | None = None,
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
    n_jobs:
        Workers scoring groups concurrently (thread backend — the work is
        numpy-dominated).  ``None`` defers to ``ROBOTUNE_JOBS``.
    tracer:
        Optional :class:`repro.obs.Tracer`; scoring time accumulates in
        the ``importance`` timer and the group fan-out is recorded via
        :func:`repro.utils.parallel.parallel_map`'s ``parallel.map``
        event.

    Returns
    -------
    Results sorted by decreasing mean importance.
    """
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")
    rng = as_generator(rng)
    tracer = as_tracer(tracer)
    X = forest._X_train
    baseline = forest.oob_score()
    n = X.shape[0]

    # Permutations are drawn up front, in the exact order the sequential
    # loop would draw them, so results do not depend on n_jobs.
    tasks: list[tuple[str, tuple[int, ...], np.ndarray]] = []
    for label, cols in groups.items():
        cols = tuple(int(c) for c in cols)
        if not cols:
            raise ValueError(f"group {label!r} has no columns")
        if any(c < 0 or c >= X.shape[1] for c in cols):
            raise IndexError(f"group {label!r} has out-of-range columns {cols}")
        perms = np.stack([rng.permutation(n) for _ in range(n_repeats)])
        tasks.append((label, cols, perms))

    def score_group(task: tuple[str, tuple[int, ...], np.ndarray]
                    ) -> GroupImportance:
        label, cols, perms = task
        drops = baseline - _permuted_oob_scores_batched(forest, cols, perms)
        return GroupImportance(
            group=label,
            columns=cols,
            importance=float(drops.mean()),
            std=float(drops.std(ddof=1)) if n_repeats > 1 else 0.0,
        )

    with tracer.timer("importance"):
        results = parallel_map(score_group, tasks, n_jobs=n_jobs,
                               backend="thread", tracer=tracer)
    results.sort(key=lambda g: g.importance, reverse=True)
    return results
