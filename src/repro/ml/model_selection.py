"""Cross-validation utilities (k-fold splitting, CV scoring)."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..utils.rng import as_generator

__all__ = ["KFold", "cross_val_score"]


class KFold:
    """Split indices into *k* consecutive (optionally shuffled) folds.

    Fold sizes differ by at most one; every sample appears in exactly one
    test fold.
    """

    def __init__(self, n_splits: int = 5, *, shuffle: bool = True,
                 rng: np.random.Generator | int | None = None):
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.rng = rng

    def split(self, n_samples: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(train_idx, test_idx)`` pairs."""
        if n_samples < self.n_splits:
            raise ValueError(f"cannot split {n_samples} samples into "
                             f"{self.n_splits} folds")
        idx = np.arange(n_samples)
        if self.shuffle:
            idx = as_generator(self.rng).permutation(n_samples)
        sizes = np.full(self.n_splits, n_samples // self.n_splits, dtype=int)
        sizes[: n_samples % self.n_splits] += 1
        start = 0
        for size in sizes:
            test = idx[start:start + size]
            train = np.concatenate([idx[:start], idx[start + size:]])
            yield train, test
            start += size


def cross_val_score(make_model, X: np.ndarray, y: np.ndarray, *,
                    cv: KFold | int = 5,
                    rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Per-fold R² (or model-defined) scores under k-fold cross-validation.

    Parameters
    ----------
    make_model:
        Zero-argument factory returning a fresh unfitted model; a factory
        (rather than an instance) guarantees no state leaks across folds.
    cv:
        A :class:`KFold` instance or a fold count.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if isinstance(cv, int):
        cv = KFold(cv, shuffle=True, rng=rng)
    scores = []
    for train, test in cv.split(X.shape[0]):
        model = make_model()
        model.fit(X[train], y[train])
        scores.append(model.score(X[test], y[test]))
    return np.asarray(scores, dtype=float)
