"""Reference depth-first CART grower the lockstep grower is tested against.

:func:`repro.ml.tree.grow_trees` grows many trees at once: each step
takes the next depth-first node of every unfinished tree and runs the
CART split search for all of them in batched calls.  This module keeps
the plain computation it replaced, one tree and one node at a time:

* :class:`ReferenceTree` — an explicit-stack depth-first grower whose
  ``"best"`` search scores the first ``k`` non-constant features of a
  node in one cumulative-sum scan (:meth:`_best_thresholds_batch`) and
  extends feature by feature (:meth:`_best_threshold`) when none of them
  gains;
* :func:`reference_forest` — the trees of a forest fitted one by one,
  each on a bootstrap drawn from its own child generator, as
  ``RandomForestRegressor.fit`` draws them.

Both build the same :class:`~repro.ml.tree.NodeTable` the library does,
so parity is an ``np.array_equal`` on its five arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.tree import NodeTable, resolve_max_features
from repro.utils.rng import as_generator, spawn

_LEAF = -1


@dataclass
class _Nodes:
    """Growable flat arrays describing the tree."""

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)

    def add(self) -> int:
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1


class ReferenceTree:
    """Depth-first CART regression tree, one split search per node."""

    def __init__(self, *, max_depth: int | None = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features: int | float | str | None = None,
                 splitter: str = "best",
                 rng: np.random.Generator | int | None = None):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.splitter = splitter
        self.rng = rng

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ReferenceTree":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        rng = as_generator(self.rng)
        self.n_features_ = X.shape[1]
        k = resolve_max_features(self.max_features, self.n_features_)
        nodes = _Nodes()
        # Total variance-reduction gain credited to each feature (for MDI).
        gain_by_feature = np.zeros(self.n_features_, dtype=float)

        root = nodes.add()
        stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(X.shape[0]), 0)]
        while stack:
            node, idx, depth = stack.pop()
            y_node = y[idx]
            nodes.value[node] = float(y_node.mean())
            if (len(idx) < self.min_samples_split
                    or (self.max_depth is not None and depth >= self.max_depth)
                    or np.ptp(y_node) == 0.0):
                continue
            split = self._find_split(X, y, idx, k, rng)
            if split is None:
                continue
            feat, thr, left_idx, right_idx, gain = split
            gain_by_feature[feat] += gain
            nodes.feature[node] = feat
            nodes.threshold[node] = thr
            lid, rid = nodes.add(), nodes.add()
            nodes.left[node], nodes.right[node] = lid, rid
            stack.append((lid, left_idx, depth + 1))
            stack.append((rid, right_idx, depth + 1))

        self.nodes_ = NodeTable(np.asarray(nodes.feature, dtype=np.int64),
                                np.asarray(nodes.threshold, dtype=float),
                                np.asarray(nodes.left, dtype=np.int64),
                                np.asarray(nodes.right, dtype=np.int64),
                                np.asarray(nodes.value, dtype=float))
        total_gain = gain_by_feature.sum()
        self.feature_importances_ = (gain_by_feature / total_gain
                                     if total_gain > 0.0 else gain_by_feature)
        return self

    def _find_split(self, X, y, idx, k, rng):
        """Best (feature, threshold) for this node, or None if unsplittable."""
        if self.splitter == "random":
            return self._find_split_random(X, y, idx, k, rng)
        return self._find_split_best(X, y, idx, k, rng)

    def _find_split_best(self, X, y, idx, k, rng):
        """CART split search, vectorized across candidate features.

        The first ``k`` non-constant features in permutation order are
        scored in one batch (first-occurrence-of-max tie-breaking, like a
        per-feature loop's strict ``>``); only if none of them yields a
        positive gain does the scan extend feature by feature through the
        rest (sklearn-compatible fallback).
        """
        features = rng.permutation(X.shape[1])
        y_node = y[idx]
        base_sse = float(np.sum((y_node - y_node.mean()) ** 2))
        M = X[np.ix_(idx, features)]
        nonconst = np.nonzero(M.min(axis=0) != M.max(axis=0))[0]
        if nonconst.size == 0:
            return None
        first = nonconst[:k]
        thrs, gains = self._best_thresholds_batch(M[:, first], y_node,
                                                  base_sse)
        best: tuple[int, float] | None = None
        best_gain = 0.0
        if np.any(gains > 0.0):
            j = int(np.argmax(gains))
            best = (int(features[first[j]]), float(thrs[j]))
            best_gain = float(gains[j])
        else:
            for pos in nonconst[k:]:
                res = self._best_threshold(M[:, pos], y_node, base_sse)
                if res is not None:
                    best = (int(features[pos]), res[0])
                    best_gain = res[1]
                    break
        if best is None:
            return None
        feat, thr = best
        mask = X[idx, feat] <= thr
        left_idx, right_idx = idx[mask], idx[~mask]
        if len(left_idx) < self.min_samples_leaf or len(right_idx) < self.min_samples_leaf:
            return None
        return feat, thr, left_idx, right_idx, best_gain

    def _find_split_random(self, X, y, idx, k, rng):
        """Extremely-randomized split search (one uniform threshold per
        candidate feature, drawn in permutation order)."""
        features = rng.permutation(X.shape[1])
        best_gain = 0.0
        best: tuple[int, float] | None = None
        y_node = y[idx]
        base_sse = float(np.sum((y_node - y_node.mean()) ** 2))
        tried = 0
        for feat in features:
            col = X[idx, feat]
            lo, hi = col.min(), col.max()
            if lo == hi:
                continue
            tried += 1
            thr = float(rng.uniform(lo, hi))
            gain = self._split_gain_at(col, y_node, thr, base_sse)
            if gain is not None and gain > best_gain:
                best_gain, best = gain, (int(feat), thr)
            if tried >= k and best is not None:
                break
        if best is None:
            return None
        feat, thr = best
        mask = X[idx, feat] <= thr
        left_idx, right_idx = idx[mask], idx[~mask]
        if len(left_idx) < self.min_samples_leaf or len(right_idx) < self.min_samples_leaf:
            return None
        return feat, thr, left_idx, right_idx, best_gain

    def _best_thresholds_batch(self, M, y, base_sse):
        """Exhaustive CART threshold search on every column of *M* at once.

        Per-column results are bit-identical to :meth:`_best_threshold`
        (same cumulative-sum formulation, evaluated along axis 0); columns
        with no valid split get gain ``-inf``.
        """
        n, f = M.shape
        order = np.argsort(M, axis=0, kind="stable")
        cs = np.take_along_axis(M, order, axis=0)
        ys = y[order]
        csum = np.cumsum(ys, axis=0)
        csum2 = np.cumsum(ys ** 2, axis=0)
        total, total2 = csum[-1], csum2[-1]
        left_n = np.arange(1, n, dtype=float)[:, None]
        m = self.min_samples_leaf
        valid = cs[1:] > cs[:-1]
        valid &= (left_n >= m) & ((n - left_n) >= m)
        ls, ls2 = csum[:-1], csum2[:-1]
        rs, rs2 = total - ls, total2 - ls2
        sse = (ls2 - ls ** 2 / left_n) + (rs2 - rs ** 2 / (n - left_n))
        sse = np.where(valid, sse, np.inf)
        best_i = np.argmin(sse, axis=0)
        cols = np.arange(f)
        best_sse = sse[best_i, cols]
        gains = base_sse - best_sse
        ok = np.isfinite(best_sse) & (gains > 0.0)
        gains = np.where(ok, gains, -np.inf)
        thrs = np.where(ok, 0.5 * (cs[best_i, cols]
                                   + cs[np.minimum(best_i + 1, n - 1), cols]),
                        np.nan)
        return thrs, gains

    def _best_threshold(self, col, y, base_sse):
        """Exhaustive CART threshold search on one feature via prefix sums."""
        order = np.argsort(col, kind="stable")
        cs, ys = col[order], y[order]
        n = len(cs)
        csum = np.cumsum(ys)
        csum2 = np.cumsum(ys ** 2)
        total, total2 = csum[-1], csum2[-1]
        # Candidate split after position i (1-based left count), only where
        # the feature value actually changes.
        left_n = np.arange(1, n)
        valid = cs[1:] > cs[:-1]
        m = self.min_samples_leaf
        valid &= (left_n >= m) & ((n - left_n) >= m)
        if not np.any(valid):
            return None
        ls, ls2 = csum[:-1], csum2[:-1]
        rs, rs2 = total - ls, total2 - ls2
        sse = (ls2 - ls ** 2 / left_n) + (rs2 - rs ** 2 / (n - left_n))
        sse = np.where(valid, sse, np.inf)
        best_i = int(np.argmin(sse))
        gain = base_sse - float(sse[best_i])
        if not np.isfinite(sse[best_i]) or gain <= 0.0:
            return None
        thr = 0.5 * (cs[best_i] + cs[best_i + 1])
        return float(thr), gain

    def _split_gain_at(self, col, y, thr, base_sse):
        """Variance-reduction gain of splitting at a given threshold."""
        mask = col <= thr
        nl = int(mask.sum())
        nr = len(col) - nl
        if nl < self.min_samples_leaf or nr < self.min_samples_leaf:
            return None
        yl, yr = y[mask], y[~mask]
        sse = float(np.sum((yl - yl.mean()) ** 2) + np.sum((yr - yr.mean()) ** 2))
        gain = base_sse - sse
        return gain if gain > 0.0 else None


def reference_forest(X: np.ndarray, y: np.ndarray, n_estimators: int, *,
                     splitter: str = "best", bootstrap: bool = True,
                     rng=None, **params
                     ) -> tuple[list[ReferenceTree], np.ndarray]:
    """Fit a forest's trees one at a time; return them and the OOB mask.

    Draws exactly what ``RandomForestRegressor.fit`` draws: one child
    generator per tree from *rng*, the tree's bootstrap from its child,
    then every split from the same child.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    trees, oob = [], np.zeros((n_estimators, n), dtype=bool)
    for t, crng in enumerate(spawn(as_generator(rng), n_estimators)):
        if bootstrap:
            idx = crng.integers(0, n, size=n)
            oob[t] = True
            oob[t, idx] = False
        else:
            idx = np.arange(n)
        tree = ReferenceTree(splitter=splitter, rng=crng, **params)
        trees.append(tree.fit(X[idx], y[idx]))
    return trees, oob
