"""Self-report prediction: median-binarized labels, random-forest grid
search under stratified 5-fold cross-validation, scored by micro-F1. The
final model (used for feature importances) refits on all rows with the best
configuration.

The features go to the forest as they are, with no z-score. A tree splits a
column at the midpoint of two neighbouring training values, so which rows go
left depends only on the order of the values in each column, and a
per-column z-score keeps that order. In floating point a z-score could still
merge two close values or move a validation value across a midpoint; on
criterion 7's cohort report.json was byte-identical with and without one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, DegenerateLabel, LengthMismatch, TooFewSamples
from .forest import ForestParams, train_forest
from .model import median

DEFAULT_GRID: list[ForestParams] = [
    ForestParams(n_trees=t, max_depth=depth, min_leaf=leaf)
    for t in (100, 200, 400)
    for depth in (4, 8, None)
    for leaf in (1, 2, 5)
]


def binarize_label(values) -> np.ndarray:
    """1 where value is strictly above the median, else 0 (ties go low)."""
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        raise TooFewSamples("need at least two values to binarize")
    if np.all(values == values[0]):
        raise DegenerateLabel("all label values identical")
    labels = (values > median(values)).astype(np.uint8)
    if labels.min() == labels.max():
        # heavy mass at the median can still leave one side empty
        raise DegenerateLabel("median split produced a single class")
    return labels


def micro_f1(pred, truth) -> float:
    """Micro-averaged F1 over the two classes, as 2pr/(p+r).

    In exact arithmetic this is accuracy, c/n with c of n correct, but in
    floating point it differs from c/n in the last bit for 42,350 of the
    501,500 pairs with n <= 1000. report.json's cv_micro_f1 pins this formula.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if len(pred) != len(truth) or len(pred) == 0:
        raise LengthMismatch("pred and truth must have equal positive length")
    tp = fp = fn = 0
    for c in (0, 1):
        tp += int(np.sum((pred == c) & (truth == c)))
        fp += int(np.sum((pred == c) & (truth != c)))
        fn += int(np.sum((pred != c) & (truth == c)))
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def stratified_folds(y: np.ndarray, k: int, rng: np.random.Generator) -> list[np.ndarray]:
    """k folds with class proportions preserved; every fold sees both classes."""
    if len(y) < k:
        raise TooFewSamples(f"{len(y)} rows cannot fill {k} folds")
    folds: list[list[int]] = [[] for _ in range(k)]
    for c in (0, 1):
        idx = np.flatnonzero(y == c)
        if len(idx) < k:
            raise TooFewSamples(f"class {c} has fewer than {k} members")
        idx = idx[rng.permutation(len(idx))]
        for pos, row in enumerate(idx):
            folds[pos % k].append(int(row))
    return [np.sort(np.asarray(f, dtype=np.intp)) for f in folds]


@dataclass
class CvReport:
    label_name: str
    best_params: ForestParams
    best_micro_f1: float
    per_config: list[tuple[ForestParams, float]]
    importances: list[tuple[str, float]]  # sorted descending, sums to 1
    seed: int


def cross_validate(
    X: np.ndarray,
    y: np.ndarray,
    feature_names: list[str],
    grid: list[ForestParams] | None = None,
    k: int = 5,
    seed: int = 0,
    label_name: str = "",
) -> CvReport:
    """Grid search over forest configurations with stratified k-fold CV.

    Fold assignment is shared across configurations; per-fit forest seeds
    derive from (seed, config index, fold index) so reruns are bit-identical.
    """
    if k < 2:
        raise BadParameter("k", k, "at least 2")
    if seed < 0:
        raise BadParameter("seed", seed, "a non-negative integer")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.uint8)
    grid = DEFAULT_GRID if grid is None else grid
    fold_rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    folds = stratified_folds(y, k, fold_rng)
    all_rows = np.arange(len(y))
    per_config: list[tuple[ForestParams, float]] = []
    for ci, params in enumerate(grid):
        scores = []
        for fi, val_rows in enumerate(folds):
            train_rows = np.setdiff1d(all_rows, val_rows, assume_unique=True)
            forest_seed = int(np.random.SeedSequence([seed, 1, ci, fi]).generate_state(1)[0])
            model = train_forest(X[train_rows], y[train_rows], params, forest_seed)
            pred = model.predict(X[val_rows])
            scores.append(micro_f1(pred, y[val_rows]))
        per_config.append((params, float(np.mean(scores))))
    best_params, best_score = max(per_config, key=lambda config: config[1])  # the first of the best
    final_seed = int(np.random.SeedSequence([seed, 2]).generate_state(1)[0])
    final = train_forest(X, y, best_params, final_seed)
    order = np.argsort(-final.importances, kind="stable")
    importances = [(feature_names[j], float(final.importances[j])) for j in order]
    return CvReport(
        label_name=label_name,
        best_params=best_params,
        best_micro_f1=best_score,
        per_config=per_config,
        importances=importances,
        seed=seed,
    )
