"""CART regression trees (Breiman et al., 1984).

Flat-array tree representation (:class:`NodeTable`) for fast vectorized
prediction: one descent kernel routes any set of (start node, row) pairs
through one tree or through many trees concatenated into one table.

Trees grow in lockstep (:func:`grow_trees`): each step takes the next
depth-first node of every unfinished tree and searches all of them in
batched calls, while each tree draws from its own generator in one-tree
order, so a tree's nodes do not depend on what grows beside it.  A
single :class:`DecisionTreeRegressor` is a forest of one.  Two split
strategies are provided:

* ``"best"`` — exhaustive variance-reduction search over sorted feature
  values (classic CART), used by :class:`~repro.ml.forest.RandomForestRegressor`;
* ``"random"`` — one uniformly random threshold per candidate feature
  (Geurts et al., 2006), used by
  :class:`~repro.ml.forest.ExtraTreesRegressor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        grow_trees([self], X, y, [np.arange(X.shape[0])])
        return self

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


#: Bound on the padded rows (nodes x padded node size) one batched split
#: search holds.  Its working arrays then stay near ``_BATCH_ROWS * k``
#: floats each, however many trees grow in lockstep.
_BATCH_ROWS = 1024

#: Padded node size from which the split search argsorts its rank keys as
#: they are (NumPy's radix sort); shorter rows sort faster as 32-bit keys.
_RADIX_ROWS = 16


def grow_trees(trees: list[DecisionTreeRegressor], X: np.ndarray,
               y: np.ndarray, rows: list[np.ndarray]) -> int:
    """Fit every tree of *trees* in lockstep; return the split-search
    calls made.

    Tree ``t`` is fitted on ``X[rows[t]], y[rows[t]]`` and draws every
    split from its own ``rng``, so it ends with the node table and
    importances a one-tree depth-first grower gives it, bit for bit,
    whatever else grows beside it.  All trees take the first tree's
    hyperparameters.  *X* must hold no NaN, which has no rank.
    """
    if np.isnan(X).any():
        raise ValueError("X must not contain NaN")
    grower = _Lockstep(trees[0], X, y, rows,
                       [as_generator(t.rng) for t in trees])
    grower.run()
    for t, tree in enumerate(trees):
        tree.n_features_ = X.shape[1]
        tree.nodes_, tree.feature_importances_ = grower.result(t)
        tree._fitted = True
    return grower.batches


class _Lockstep:
    """Depth-first growth of several trees, one node of each per step.

    Every tree keeps its own stack of nodes to split, in the order a
    one-tree depth-first grower pops them (right child first).  A step
    pops the top node of every tree whose stack is not empty and searches
    all of them at once.  Per tree, nodes are numbered, permutations
    drawn and gains summed in that grower's order, so no tree depends on
    the others; the batched arithmetic is per node too:

    * Node mean, range and SSE are row-wise reductions over nodes of one
      size, which NumPy sums per row exactly as it sums the node alone.
    * The CART search runs per size class (nodes padded to the next power
      of two, at most :data:`_BATCH_ROWS` padded rows a call) on the
      columns' rank keys (:func:`_rank_keys`).  Padded rows hold the pad
      key, which a stable argsort puts after every real key, so each
      column's order and cumulative sums over its real rows are the
      node's own.  Candidate features a node lacks are all-pad columns,
      which never split.
    """

    def __init__(self, params: DecisionTreeRegressor, X: np.ndarray,
                 y: np.ndarray, rows: list[np.ndarray],
                 rngs: list[np.random.Generator]):
        self.X, self.y, self.rows, self.rngs = X, y, rows, rngs
        self.splitter = params.splitter
        self.max_depth = params.max_depth
        self.min_samples_split = params.min_samples_split
        self.min_samples_leaf = params.min_samples_leaf
        self.k = resolve_max_features(params.max_features, X.shape[1])
        self.batches = 0
        T, d = len(rows), X.shape[1]
        # A tree on n rows has at most n leaves, so at most 2n - 1 nodes.
        cap = 2 * max(len(r) for r in rows) - 1
        self.feature = np.full((T, cap), _LEAF, dtype=np.int64)
        self.threshold = np.zeros((T, cap))
        self.left = np.full((T, cap), -1, dtype=np.int64)
        self.right = np.full((T, cap), -1, dtype=np.int64)
        self.value = np.zeros((T, cap))
        self.size = [1] * T
        # Total variance-reduction gain credited to each feature (for MDI).
        self.gain = np.zeros((T, d))
        # Per tree: (node, rows, depth, node SSE) of nodes still to split.
        self.stacks: list[list[tuple[int, np.ndarray, int, float]]] = [
            [] for _ in range(T)]
        if self.splitter == "best":
            self.keys = _rank_keys(X)
            # The search's work arrays, sized for its largest call: at most
            # max(_BATCH_ROWS, widest padded node) padded rows, times k
            # candidates or, past k, a node's remaining features.
            P = 1 << int(np.frexp(max(len(r) for r in rows) - 1)[1])
            rows_cap = max(_BATCH_ROWS, P)
            cap = rows_cap * max(self.k, d - self.k)
            self._node_keys = np.empty(rows_cap * (d + 1), self.keys.dtype)
            self._idx = np.empty(cap, dtype=np.int64)
            self._col_keys = np.empty(cap, self.keys.dtype)
            self._sorted_keys = np.empty(cap, self.keys.dtype)
            self._no_split = np.empty(cap, dtype=bool)
            self._work = [np.empty(cap) for _ in range(5)]

    def run(self) -> None:
        """Grow every tree until no node is left to split."""
        T = len(self.rows)
        self._admit(list(range(T)), [0] * T, list(self.rows), [0] * T)
        live = [t for t in range(T) if self.stacks[t]]
        while live:
            nodes = [self.stacks[t].pop() for t in live]
            if self.splitter == "best":
                splits = self._search_best(live, nodes)
            else:
                splits = [self._find_split_random(idx, sse, self.rngs[t])
                          for t, (_, idx, _, sse) in zip(live, nodes)]
            self._split(live, nodes, splits)
            live = [t for t in live if self.stacks[t]]

    def result(self, t: int) -> tuple[NodeTable, np.ndarray]:
        """Tree *t*'s node table and normalized MDI importances."""
        s = self.size[t]
        table = NodeTable(self.feature[t, :s].copy(),
                          self.threshold[t, :s].copy(),
                          self.left[t, :s].copy(), self.right[t, :s].copy(),
                          self.value[t, :s].copy())
        gain = self.gain[t].copy()
        total = gain.sum()
        return table, (gain / total if total > 0.0 else gain)

    # -- nodes ----------------------------------------------------------------------
    def _admit(self, trees: list[int], ids: list[int],
               rows: list[np.ndarray], depths: list[int]) -> None:
        """Set new nodes' values; stack those a split may divide.

        Nodes are pushed in list order, so a split's left child goes on
        its tree's stack before the right one and is popped after it.
        """
        sizes = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        ys = self.y[np.concatenate(rows)]
        starts = np.cumsum(sizes) - sizes
        mean = np.empty(len(rows))
        spread = np.empty(len(rows))
        sse = np.empty(len(rows))
        order = np.argsort(sizes, kind="stable")
        cuts = np.flatnonzero(np.diff(sizes[order])) + 1
        for group in np.split(order, cuts):
            Y = ys[starts[group][:, None] + np.arange(sizes[group[0]])]
            mu = Y.mean(axis=1)
            mean[group] = mu
            spread[group] = Y.max(axis=1) - Y.min(axis=1)
            Y -= mu[:, None]
            Y *= Y
            sse[group] = Y.sum(axis=1)
        self.value[trees, ids] = mean
        splittable = (sizes >= self.min_samples_split) & (spread != 0.0)
        if self.max_depth is not None:
            splittable &= np.asarray(depths) < self.max_depth
        sse = sse.tolist()
        for i in np.flatnonzero(splittable).tolist():
            self.stacks[trees[i]].append((ids[i], rows[i], depths[i], sse[i]))

    def _split(self, live: list[int], nodes: list[tuple],
               splits: list[tuple[int, float, float] | None]) -> None:
        """Divide each node whose search found a split; admit the children.

        Each side keeps its rows in the node's order, and a split that
        leaves either side under ``min_samples_leaf`` rows is dropped.
        """
        at = [b for b, split in enumerate(splits) if split is not None]
        if not at:
            return
        rows = [nodes[b][1] for b in at]
        sizes = np.fromiter(map(len, rows), dtype=np.int64, count=len(at))
        flat = np.concatenate(rows)
        feats = [splits[b][0] for b in at]
        thrs = [splits[b][1] for b in at]
        go_left = (self.X[flat, np.repeat(feats, sizes)]
                   <= np.repeat(thrs, sizes))
        lefts, rights = flat[go_left], flat[~go_left]
        seen = np.concatenate(([0], np.cumsum(go_left)))
        ends = np.cumsum(sizes)
        n_left = seen[ends] - seen[ends - sizes]
        left_end = np.cumsum(n_left).tolist()
        right_end = (ends - left_end).tolist()
        m = self.min_samples_leaf
        split_t, split_ids, split_feats, split_thrs, gains = [], [], [], [], []
        kids_t, kids_ids, kids_rows, kids_depth = [], [], [], []
        for i, (b, size, nl, le, re) in enumerate(zip(
                at, sizes.tolist(), n_left.tolist(), left_end, right_end)):
            nr = size - nl
            if nl < m or nr < m:
                continue
            t = live[b]
            node, _, depth, _ = nodes[b]
            lid = self.size[t]
            self.size[t] = lid + 2
            split_t.append(t)
            split_ids.append(node)
            split_feats.append(feats[i])
            split_thrs.append(thrs[i])
            gains.append(splits[b][2])
            kids_t += [t, t]
            kids_ids += [lid, lid + 1]
            kids_rows += [lefts[le - nl:le], rights[re - nr:re]]
            kids_depth += [depth + 1, depth + 1]
        if not split_t:
            return
        lids = np.asarray(kids_ids[::2])
        self.feature[split_t, split_ids] = split_feats
        self.threshold[split_t, split_ids] = split_thrs
        self.left[split_t, split_ids] = lids
        self.right[split_t, split_ids] = lids + 1
        # One split per tree a step: no (tree, feature) pair repeats here.
        self.gain[split_t, split_feats] += gains
        self._admit(kids_t, kids_ids, kids_rows, kids_depth)

    # -- split search ---------------------------------------------------------------
    def _search_best(self, live: list[int], nodes: list[tuple]
                     ) -> list[tuple[int, float, float] | None]:
        """CART split of every node, batched by padded node size.

        Each node draws its feature permutation from its tree's generator,
        then scores its first ``k`` non-constant features in permutation
        order; the first (strict ``>``) best gain wins.  Only when none of
        them gains are the node's remaining non-constant features scanned,
        and the first with a positive gain wins (sklearn-compatible).
        """
        B, d = len(nodes), self.X.shape[1]
        perms = np.empty((B, d), dtype=np.int64)
        perms[:] = np.arange(d)
        for b, t in enumerate(live):
            self.rngs[t].shuffle(perms[b])  # the draws of permutation(d)
        rows = [idx for _, idx, _, _ in nodes]
        n = np.fromiter(map(len, rows), dtype=np.int64, count=B)
        base = np.array([sse for _, _, _, sse in nodes])
        out = (np.zeros(B, dtype=np.int64), np.zeros(B), np.zeros(B),
               np.zeros(B, dtype=bool))
        width = np.frexp(n - 1)[1]          # padded size 2**width >= n
        for w in np.unique(width).tolist():
            group = np.flatnonzero(width == w)
            step = max(1, _BATCH_ROWS >> w)
            for s in range(0, len(group), step):
                self._search_chunk(group[s:s + step], 1 << w, rows, n, perms,
                                   base, out)
        feat, thr, gain, found = (a.tolist() for a in out)
        return [(f, t, g) if ok else None
                for f, t, g, ok in zip(feat, thr, gain, found)]

    def _search_chunk(self, c: np.ndarray, P: int, rows: list[np.ndarray],
                      n: np.ndarray, perms: np.ndarray, base: np.ndarray,
                      out: tuple[np.ndarray, ...]) -> None:
        """:meth:`_search_best` for the nodes *c*, all padded to *P* rows."""
        nc = n[c]
        starts = np.cumsum(nc) - nc
        flat = np.concatenate([rows[i] for i in c])
        # Padded with each node's last row: min and max stay the node's.
        R = flat[starts[:, None] + np.minimum(np.arange(P), nc[:, None] - 1)]
        real = np.arange(P) < nc[:, None]
        # Row-major over the padded positions, so min and max sweep whole
        # (node, feature) planes.
        KN = self.keys.take(R.T, axis=0, mode="clip",
                            out=self._node_keys[:R.size * self.keys.shape[1]]
                            .reshape(P, len(c), -1))
        perm = perms[c]
        nonconst = np.take_along_axis(KN.min(axis=0) != KN.max(axis=0),
                                      perm, axis=1)
        rank = np.cumsum(nonconst, axis=1)  # 1-based, in permutation order
        n_varied = nonconst.sum(axis=1)
        if not n_varied.any():
            return                          # every feature constant: no split
        Y = self.y[R]
        Y[~real] = 0.0
        k = self.k
        F, fv = _candidates(nonconst & (rank <= k), rank, perm, k)
        thrs, gains = self._thresholds(R, real, nc, Y, F, fv, base[c])
        gained = (gains > 0.0).any(axis=1)
        hit = np.flatnonzero(gained)
        _settle(out, c[hit], F[hit], thrs[hit], gains[hit],
                gains[hit].argmax(axis=1))
        more = np.flatnonzero(~gained & (n_varied > k))
        if more.size == 0:
            return
        rest = rank[more] - k
        F, fv = _candidates(nonconst[more] & (rest > 0), rest, perm[more],
                            int(n_varied[more].max()) - k)
        thrs, gains = self._thresholds(R[more], real[more], nc[more],
                                       Y[more], F, fv, base[c][more])
        ok = gains > 0.0
        hit = np.flatnonzero(ok.any(axis=1))
        _settle(out, c[more[hit]], F[hit], thrs[hit], gains[hit],
                ok[hit].argmax(axis=1))

    def _thresholds(self, R: np.ndarray, real: np.ndarray, n: np.ndarray,
                    Y: np.ndarray, F: np.ndarray, fv: np.ndarray,
                    base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Best CART threshold and gain of node ``i``'s feature ``F[i, j]``.

        ``R`` holds each node's rows (``real`` marks the unpadded ones),
        ``Y`` their targets (0 on padding) and ``fv`` the real candidates.
        One column per (node, feature) of rank keys, the pad key on
        padded rows and on candidates a node lacks: stable argsort,
        cumulative sums of ``y`` and ``y**2``, and the SSE of every
        left/right division where the key changes and both sides keep
        ``min_samples_leaf`` rows.  ``X`` is read at each winning division
        only.  Gains that are not positive are ``-inf``.
        """
        self.batches += 1
        b, w = F.shape
        P = R.shape[1]
        cols, N = b * w, b * w * P
        n_rows, d = self.X.shape
        node = np.repeat(np.arange(b), w)       # each column's node
        size = n[node]
        start = np.arange(cols) * P             # each column's flat offset
        idx = self._idx[:N].reshape(b, w, P)
        np.add((np.where(real, R, n_rows) * (d + 1))[:, None, :],
               np.where(fv, F, d)[:, :, None], out=idx)
        S = self.keys.take(idx.reshape(cols, P), mode="clip",
                           out=self._col_keys[:N].reshape(cols, P))
        # NumPy's stable sort of one- and two-byte keys is a radix sort,
        # which loses to a comparison sort on short rows.
        order = (S if P >= _RADIX_ROWS else S.astype(np.int32)).argsort(
            axis=1, kind="stable")
        order += start[:, None]                 # flat index of each entry
        cs = S.take(order, mode="clip",
                    out=self._sorted_keys[:N].reshape(cols, P))
        A, B, csum, csum2, sse = self._work     # A and B: scratch
        ys = (Y.take(node, axis=0, mode="clip", out=A[:N].reshape(cols, P))
              .take(order, mode="clip", out=B[:N].reshape(cols, P)))
        csum = ys.cumsum(axis=1, out=csum[:N].reshape(cols, P))
        np.square(ys, out=ys)
        csum2 = ys.cumsum(axis=1, out=csum2[:N].reshape(cols, P))
        last = start + size - 1
        total, total2 = csum.take(last)[:, None], csum2.take(last)[:, None]
        # Division p puts the first p + 1 sorted rows on the left.  The
        # last one leaves none on the right and is never a split; it keeps
        # every array whole, which NumPy sweeps faster than a column slice.
        left_n = np.arange(1, P + 1, dtype=float)
        m = self.min_samples_leaf
        no_split = self._no_split[:N].reshape(cols, P)
        flat = cs.reshape(-1)
        np.less_equal(flat[1:], flat[:-1], out=no_split.reshape(-1)[:-1])
        no_split[:, -1] = True
        # Pad keys never change, except at the first pad after a node's
        # last row; that division leaves no row on the right either.
        no_split.reshape(-1)[last] = True
        with np.errstate(divide="ignore", invalid="ignore"):
            sse = np.square(csum, out=sse[:N].reshape(cols, P))
            sse /= left_n
            np.subtract(csum2, sse, out=sse)
            rs = np.subtract(total, csum, out=A[:N].reshape(cols, P))
            np.square(rs, out=rs)
            right_n = np.subtract(size[:, None], left_n,
                                  out=B[:N].reshape(cols, P))
            if m > 1:
                no_split |= (left_n < m) | (right_n < m)
            rs /= right_n
            np.subtract(np.subtract(total2, csum2, out=right_n), rs, out=rs)
            # +inf where the division is no split.  Where it is one, both
            # sides' SSE is finite and fmax with -inf keeps it.
            np.fmax(rs, np.take((-np.inf, np.inf), no_split.view(np.uint8),
                                mode="clip", out=right_n), out=rs)
            sse += rs
            best = start + sse.argmin(axis=1)
            best_sse = sse.take(best)
            gains = base[node] - best_sse
            ok = np.isfinite(best_sse) & (gains > 0.0)
            at = np.flatnonzero(ok)
            # Each winner's rows on either side of its division, their X.
            pos = order.take(best[at] + [[0], [1]]) - start[at]
            lo, hi = self.X[R[node[at], pos], F.reshape(-1)[at]]
            thrs = np.full(cols, np.nan)
            thrs[at] = 0.5 * (lo + hi)
        return (thrs.reshape(b, w),
                np.where(ok, gains, -np.inf).reshape(b, w))

    def _find_split_random(self, idx: np.ndarray, base_sse: float,
                           rng: np.random.Generator
                           ) -> tuple[int, float, float] | None:
        """Extremely-randomized split search (one uniform threshold per
        candidate feature, drawn in permutation order)."""
        self.batches += 1
        features = rng.permutation(self.X.shape[1])
        M = self.X[np.ix_(idx, features)]
        lows, highs = M.min(axis=0), M.max(axis=0)
        best_gain = 0.0
        best: tuple[int, float, float] | None = None
        y_node = self.y[idx]
        tried = 0
        # Constant features are not candidates: scan the others in order.
        for j in np.flatnonzero(lows != highs).tolist():
            tried += 1
            thr = float(rng.uniform(lows[j], highs[j]))
            gain = self._split_gain_at(M[:, j], y_node, thr, base_sse)
            if gain is not None and gain > best_gain:
                best_gain, best = gain, (int(features[j]), thr, gain)
            # Stop after k candidate features, but if none of them yielded
            # a valid split keep scanning the rest (sklearn-compatible).
            if tried >= self.k and best is not None:
                break
        return best

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


def _rank_keys(X: np.ndarray) -> np.ndarray:
    """Each column's dense value ranks, plus a pad row and a pad column.

    ``keys[i, j]`` counts the distinct values of column ``j`` below
    ``X[i, j]``, so two keys of a column compare as their values do and a
    stable sort of its keys orders its rows as a stable sort of its
    values.  Row ``n`` and column ``d`` hold the pad key, one past the
    largest rank, in the smallest unsigned dtype that holds it.
    """
    n, d = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    ordered = np.take_along_axis(X, order, axis=0)
    ranks = np.zeros((n, d), dtype=np.int64)
    ranks[1:] = ordered[1:] != ordered[:-1]
    np.cumsum(ranks, axis=0, out=ranks)
    pad = int(ranks[-1].max(initial=0)) + 1
    keys = np.full((n + 1, d + 1), pad, dtype=np.min_scalar_type(pad))
    np.put_along_axis(keys[:n, :d], order, ranks, axis=0)
    return keys


def _candidates(mask: np.ndarray, rank: np.ndarray, perm: np.ndarray,
                width: int) -> tuple[np.ndarray, np.ndarray]:
    """Node ``i``'s features where ``mask[i]`` holds, left-aligned by
    ``rank`` (1-based) into ``width`` columns, and which slots are real."""
    ii, pos = np.nonzero(mask)
    jj = rank[ii, pos] - 1
    F = np.zeros((mask.shape[0], width), dtype=np.int64)
    F[ii, jj] = perm[ii, pos]
    real = np.zeros(F.shape, dtype=bool)
    real[ii, jj] = True
    return F, real


def _settle(out: tuple[np.ndarray, ...], at: np.ndarray, F: np.ndarray,
            thrs: np.ndarray, gains: np.ndarray, j: np.ndarray) -> None:
    """Record column ``j[i]`` of row ``i`` as node ``at[i]``'s split."""
    feat, thr, gain, found = out
    rows = np.arange(len(at))
    feat[at] = F[rows, j]
    thr[at] = thrs[rows, j]
    gain[at] = gains[rows, j]
    found[at] = True
