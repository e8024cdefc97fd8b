"""Regression and set-retrieval metrics."""

from __future__ import annotations

from typing import Collection

import numpy as np

__all__ = ["r2_score", "recall_score"]


def _validate(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    yt = np.asarray(y_true, dtype=float)
    yp = np.asarray(y_pred, dtype=float)
    if yt.shape != yp.shape or yt.ndim != 1:
        raise ValueError("y_true and y_pred must be 1-D and the same length")
    if yt.size == 0:
        raise ValueError("empty inputs")
    return yt, yp


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination.

    1.0 is a perfect fit, 0.0 matches predicting the mean, and the value is
    unbounded below for arbitrarily bad models (paper §3.3).  If ``y_true``
    is constant the score is 1.0 for exact predictions and 0.0 otherwise.
    """
    yt, yp = _validate(y_true, y_pred)
    ss_res = float(np.sum((yt - yp) ** 2))
    ss_tot = float(np.sum((yt - yt.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def recall_score(truth: Collection, predicted: Collection) -> float:
    """True-positive rate of a predicted set against a ground-truth set.

    Used for Figure 7: the fraction of ground-truth high-impact parameters
    that a model trained on fewer samples still identifies.  An empty
    ground-truth set has recall 1.0 by convention (nothing to miss).
    """
    truth_set = set(truth)
    if not truth_set:
        return 1.0
    hits = len(truth_set & set(predicted))
    return hits / len(truth_set)
