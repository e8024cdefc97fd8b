"""CART regression trees (Breiman et al., 1984).

Flat-array tree representation (:class:`NodeTable`) for fast vectorized
prediction: one descent kernel routes any set of (start node, row) pairs
through one tree or through many trees concatenated into one table.  Two
split strategies are provided:

* ``"best"`` — exhaustive variance-reduction search over sorted feature
  values (classic CART), used by :class:`~repro.ml.forest.RandomForestRegressor`;
* ``"random"`` — one uniformly random threshold per candidate feature
  (Geurts et al., 2006), used by
  :class:`~repro.ml.forest.ExtraTreesRegressor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..utils.rng import as_generator

__all__ = ["DecisionTreeRegressor", "NodeTable", "resolve_max_features"]

_LEAF = -1


def resolve_max_features(max_features: int | float | str | None,
                         n_features: int) -> int:
    """Resolve a ``max_features`` spec into a feature count in [1, n_features].

    Accepts an int (count), float (fraction), ``"sqrt"``, ``"log2"``,
    ``"third"`` (Breiman's p/3 heuristic for regression), or ``None``
    (all features).
    """
    if max_features is None:
        k = n_features
    elif isinstance(max_features, str):
        if max_features == "sqrt":
            k = int(math.sqrt(n_features))
        elif max_features == "log2":
            k = int(math.log2(n_features)) if n_features > 1 else 1
        elif max_features == "third":
            k = n_features // 3
        else:
            raise ValueError(f"unknown max_features spec {max_features!r}")
    elif isinstance(max_features, float):
        if not 0.0 < max_features <= 1.0:
            raise ValueError("fractional max_features must be in (0, 1]")
        k = int(max_features * n_features)
    else:
        k = int(max_features)
    return max(1, min(k, n_features))


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


@dataclass(frozen=True)
class NodeTable:
    """Fitted nodes as flat arrays: one tree, or many trees concatenated.

    Node ``i`` splits on ``feature[i]`` at ``threshold[i]`` (rows with
    ``X[:, feature[i]] <= threshold[i]`` go to ``left[i]``, the rest to
    ``right[i]``), or is a leaf (``feature[i] == -1``) predicting
    ``value[i]``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @classmethod
    def concat(cls, tables: list["NodeTable"]
               ) -> tuple["NodeTable", np.ndarray]:
        """One table holding every tree of *tables*, and each tree's root.

        Child links are shifted by their tree's root offset, so a descent
        that starts at ``roots[t]`` stays inside tree ``t``.
        """
        sizes = [len(t.feature) for t in tables]
        roots = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64)
        shift = np.repeat(roots, sizes)
        feature = np.concatenate([t.feature for t in tables])
        split = feature != _LEAF
        left = np.concatenate([t.left for t in tables])
        right = np.concatenate([t.right for t in tables])
        return cls(feature,
                   np.concatenate([t.threshold for t in tables]),
                   np.where(split, left + shift, _LEAF),
                   np.where(split, right + shift, _LEAF),
                   np.concatenate([t.value for t in tables])), roots

    def descend(self, X: np.ndarray, node: np.ndarray, rows: np.ndarray,
                tested: np.ndarray | None = None) -> np.ndarray:
        """Leaf reached by each (start node, row) pair.

        Pair ``k`` starts at ``node[k]`` and is routed by row ``rows[k]``
        of *X*; all pairs advance one level per step until each sits at a
        leaf.  When *tested* (boolean, ``(len(rows), X.shape[1])``) is
        given, ``tested[k, f]`` is set for every feature ``f`` a split on
        pair ``k``'s path reads.
        """
        node = np.array(node, dtype=np.int64)
        live = np.nonzero(self.feature[node] != _LEAF)[0]
        while live.size:
            cur = node[live]
            feat = self.feature[cur]
            if tested is not None:
                tested[live, feat] = True
            go_left = X[rows[live], feat] <= self.threshold[cur]
            cur = np.where(go_left, self.left[cur], self.right[cur])
            node[live] = cur
            live = live[self.feature[cur] != _LEAF]
        return node


class DecisionTreeRegressor:
    """A regression tree minimizing within-node variance (squared error).

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` grows until purity or minimum-size
        stopping conditions apply.
    min_samples_split:
        Minimum number of samples required to attempt a split.
    min_samples_leaf:
        Minimum number of samples in each child of any split.
    max_features:
        Number of features considered per split (see
        :func:`resolve_max_features`).
    splitter:
        ``"best"`` (CART) or ``"random"`` (extremely randomized).
    rng:
        Seed or generator controlling feature subsampling and random
        thresholds.
    """

    def __init__(self, *, max_depth: int | None = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features: int | float | str | None = None,
                 splitter: str = "best",
                 rng: np.random.Generator | int | None = None):
        if splitter not in ("best", "random"):
            raise ValueError(f"unknown splitter {splitter!r}")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.splitter = splitter
        self.rng = rng
        self._fitted = False

    # -- fitting ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if y.shape != (X.shape[0],):
            raise ValueError("y must be 1-D with len(y) == len(X)")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on empty data")
        rng = as_generator(self.rng)
        self.n_features_ = X.shape[1]
        k = resolve_max_features(self.max_features, self.n_features_)
        nodes = _Nodes()
        # Total variance-reduction gain credited to each feature (for MDI).
        gain_by_feature = np.zeros(self.n_features_, dtype=float)

        # Iterative depth-first construction with an explicit stack avoids
        # recursion limits on deep trees.
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
        self._fitted = True
        return self

    def _find_split(self, X: np.ndarray, y: np.ndarray, idx: np.ndarray,
                    k: int, rng: np.random.Generator):
        """Best (feature, threshold) for this node, or None if unsplittable."""
        if self.splitter == "random":
            return self._find_split_random(X, y, idx, k, rng)
        return self._find_split_best(X, y, idx, k, rng)

    def _find_split_best(self, X: np.ndarray, y: np.ndarray, idx: np.ndarray,
                         k: int, rng: np.random.Generator):
        """CART split search, vectorized across candidate features.

        Produces the same (feature, threshold, gain) the per-feature loop
        would: the first ``k`` non-constant features in permutation order
        are scored in one batch (first-occurrence-of-max tie-breaking, like
        the loop's strict ``>`` comparison), and only if none of them
        yields a positive gain does the scan extend feature-by-feature
        through the rest (sklearn-compatible fallback).
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

    def _find_split_random(self, X: np.ndarray, y: np.ndarray,
                           idx: np.ndarray, k: int,
                           rng: np.random.Generator):
        """Extremely-randomized split search (one uniform threshold per
        candidate feature, drawn in permutation order)."""
        n_feat = X.shape[1]
        features = rng.permutation(n_feat)
        best_gain = 0.0
        best: tuple[int, float] | None = None
        y_node = y[idx]
        base_sse = float(np.sum((y_node - y_node.mean()) ** 2))
        tried = 0
        for feat in features:
            col = X[idx, feat]
            lo, hi = col.min(), col.max()
            if lo == hi:
                continue  # constant feature: not a candidate, try the next
            tried += 1
            thr = float(rng.uniform(lo, hi))
            gain = self._split_gain_at(col, y_node, thr, base_sse)
            if gain is not None and gain > best_gain:
                best_gain, best = gain, (int(feat), thr)
            # Stop after k candidate features, but if none of them yielded
            # a valid split keep scanning the rest (sklearn-compatible).
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

    def _best_thresholds_batch(self, M: np.ndarray, y: np.ndarray,
                               base_sse: float
                               ) -> tuple[np.ndarray, np.ndarray]:
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

    def _best_threshold(self, col: np.ndarray, y: np.ndarray,
                        base_sse: float) -> tuple[float, float] | None:
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

    def _split_gain_at(self, col: np.ndarray, y: np.ndarray, thr: float,
                       base_sse: float) -> float | None:
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

    # -- prediction ---------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for each row of *X*."""
        if not self._fitted:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(f"X must have shape (n, {self.n_features_})")
        n = X.shape[0]
        leaves = self.nodes_.descend(X, np.zeros(n, dtype=np.int64),
                                     np.arange(n))
        return self.nodes_.value[leaves]

    @property
    def node_count(self) -> int:
        """Total number of nodes in the fitted tree."""
        if not self._fitted:
            raise RuntimeError("tree is not fitted")
        return len(self.nodes_.feature)

    @property
    def depth(self) -> int:
        """Depth of the fitted tree (root = depth 0)."""
        if not self._fitted:
            raise RuntimeError("tree is not fitted")
        nodes = self.nodes_
        depth = np.zeros(len(nodes.feature), dtype=np.int64)
        best = 0
        for i in range(len(nodes.feature)):
            if nodes.feature[i] != _LEAF:
                depth[nodes.left[i]] = depth[i] + 1
                depth[nodes.right[i]] = depth[i] + 1
        if len(depth):
            best = int(depth.max())
        return best
