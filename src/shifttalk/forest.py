"""Random forest classifier built on CART trees with Gini impurity.

Trees are grown depth-first, left child before right, on bootstrap
resamples with ceil(sqrt(d)) features drawn per split, so each tree draws
its feature subsets in that pre-order. Split candidates are midpoints between
consecutive sorted unique values; ties in Gini gain break toward the lowest
feature index, then the lowest threshold, so training is fully determined
by the seed. Per-tree seeds derive from the master seed via
numpy SeedSequence(seed).spawn(n_trees).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameter, SingleClassInput
from .model import distinct


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 200
    max_depth: int | None = None  # None = unlimited
    min_leaf: int = 1

    def __post_init__(self) -> None:
        for name, low in (("n_trees", 1), ("min_leaf", 1), ("max_depth", 0)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise BadParameter(name, value, f"at least {low}")

    def label(self) -> str:
        depth = "none" if self.max_depth is None else str(self.max_depth)
        return f"n_trees={self.n_trees},max_depth={depth},min_leaf={self.min_leaf}"


@dataclass
class Tree:
    """Array-encoded binary tree; children index into the same arrays."""

    feature: np.ndarray  # int, -1 for leaves
    threshold: np.ndarray  # float
    left: np.ndarray  # int child index
    right: np.ndarray
    counts: np.ndarray  # (n_nodes, 2) class counts of training rows

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(len(X), dtype=np.intp)
        active = self.feature[node] >= 0
        while active.any():
            rows = np.flatnonzero(active)
            nd = node[rows]
            go_left = X[rows, self.feature[nd]] <= self.threshold[nd]
            node[rows] = np.where(go_left, self.left[nd], self.right[nd])
            active = self.feature[node] >= 0
        counts = self.counts[node]
        return (counts[:, 1] > counts[:, 0]).astype(np.uint8)


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    params: ForestParams,
    mtry: int,
    rng: np.random.Generator,
    importance: np.ndarray,
) -> Tree:
    n, d = X.shape
    boot = rng.integers(0, n, n)
    Xb = X[boot]
    yb = y[boot]

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list[tuple[int, int]] = []

    # stack of (row index array, depth, slot in the node arrays)
    stack: list[tuple[np.ndarray, int, int]] = [(np.arange(n), 0, 0)]
    feature.append(-1)
    threshold.append(0.0)
    left.append(-1)
    right.append(-1)
    counts.append((0, 0))

    while stack:
        rows, depth, slot = stack.pop()
        yn = yb[rows]
        m = len(rows)
        n1 = int(yn.sum())
        n0 = m - n1
        counts[slot] = (n0, n1)
        depth_stop = params.max_depth is not None and depth >= params.max_depth
        if n0 == 0 or n1 == 0 or depth_stop or m < 2 * params.min_leaf:
            continue

        feats = np.sort(rng.choice(d, size=mtry, replace=False))
        Xn = Xb[rows][:, feats]
        order = np.argsort(Xn, axis=0, kind="stable")
        vs = np.take_along_axis(Xn, order, axis=0)
        ys = yn[order]
        ones_left = np.cumsum(ys, axis=0)[:-1].astype(float)  # prefix class-1 counts
        nl = np.arange(1, m, dtype=float)[:, None]
        nr = m - nl
        zeros_left = nl - ones_left
        ones_right = n1 - ones_left
        zeros_right = n0 - zeros_left
        gini_left = 1.0 - (ones_left / nl) ** 2 - (zeros_left / nl) ** 2
        gini_right = 1.0 - (ones_right / nr) ** 2 - (zeros_right / nr) ** 2
        weighted = (nl * gini_left + nr * gini_right) / m
        usable = (vs[:-1] != vs[1:]) & (nl >= params.min_leaf) & (nr >= params.min_leaf)
        if not usable.any():
            continue
        weighted = np.where(usable, weighted, np.inf)
        # argmin scans column-major so lower feature index wins ties, then
        # lower threshold (rows sorted ascending by value)
        flat = int(np.argmin(weighted.T))
        j, i = divmod(flat, m - 1)
        best = float(weighted[i, j])
        feat = int(feats[j])
        thr = 0.5 * float(vs[i, j] + vs[i + 1, j])

        gini_node = 1.0 - (n1 / m) ** 2 - (n0 / m) ** 2
        importance[feat] += (m / n) * (gini_node - best)

        go_left = Xb[rows, feat] <= thr
        slot_left = len(feature)
        slot_right = slot_left + 1
        feature[slot] = feat
        threshold[slot] = thr
        left[slot] = slot_left
        right[slot] = slot_right
        for _ in range(2):
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            counts.append((0, 0))
        stack.append((rows[~go_left], depth + 1, slot_right))
        stack.append((rows[go_left], depth + 1, slot_left))

    return Tree(
        feature=np.asarray(feature, dtype=np.intp),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.intp),
        right=np.asarray(right, dtype=np.intp),
        counts=np.asarray(counts, dtype=float),
    )


@dataclass
class ForestModel:
    params: ForestParams
    seed: int
    trees: list[Tree] = field(default_factory=list)
    importances: np.ndarray | None = None  # normalized, sums to 1

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        votes = np.zeros(len(X), dtype=np.int64)
        for tree in self.trees:
            votes += tree.predict(X)
        # strict majority; exact ties fall to class 0
        return (votes * 2 > len(self.trees)).astype(np.uint8)


def train_forest(X: np.ndarray, y: np.ndarray, params: ForestParams, seed: int) -> ForestModel:
    """Fit a forest; deterministic for a given (X, y, params, seed)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.uint8)
    if len(distinct(y)) < 2:
        raise SingleClassInput("training labels contain a single class")
    n, d = X.shape
    mtry = min(d, math.ceil(math.sqrt(d)))
    model = ForestModel(params=params, seed=seed)
    importance_sum = np.zeros(d)
    for seq in np.random.SeedSequence(seed).spawn(params.n_trees):
        rng = np.random.default_rng(seq)
        tree_importance = np.zeros(d)
        model.trees.append(_grow_tree(X, y, params, mtry, rng, tree_importance))
        total = tree_importance.sum()
        if total > 0:
            importance_sum += tree_importance / total
    total = importance_sum.sum()
    if total > 0:
        model.importances = importance_sum / total
    else:
        model.importances = np.full(d, 1.0 / d)
    return model
