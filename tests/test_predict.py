from __future__ import annotations

import numpy as np
import pytest

from shifttalk.errors import BadParameter, DegenerateLabel, LengthMismatch, SingleClassInput, TooFewSamples
from shifttalk.forest import ForestParams, train_forest
from shifttalk.predict import (
    binarize_label,
    cross_validate,
    micro_f1,
    stratified_folds,
)


def separable_data(n=60, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 5))
    y = (X[:, 2] > 0.0).astype(np.uint8)
    X[:, 2] += np.where(y == 1, 2.0, -2.0)  # margin makes it cleanly separable
    return X, y


def test_binarize_even_split():
    np.testing.assert_array_equal(binarize_label([1.0, 2.0, 3.0, 4.0]), [0, 0, 1, 1])


@pytest.mark.parametrize("values, error, message", [
    ([5.0, 5.0, 5.0], DegenerateLabel, "all label values identical"),
    ([1.0, 2.0, 2.0, 2.0], DegenerateLabel, "median split produced a single class"),  # the median is 2.0
    ([3.0], TooFewSamples, "need at least two values to binarize"),
])
def test_binarize_degenerate(values, error, message):
    with pytest.raises(error) as err:
        binarize_label(values)
    assert str(err.value) == message


def test_binarize_median_ties_go_low():
    np.testing.assert_array_equal(binarize_label([1.0, 2.0, 2.0, 3.0]), [0, 0, 0, 1])


def test_micro_f1_values():
    assert micro_f1([1, 0, 1, 0], [1, 0, 1, 0]) == 1.0
    assert micro_f1([1, 0], [0, 1]) == 0.0
    assert micro_f1([1, 1, 0, 0], [1, 1, 0, 1]) == 0.75


def test_micro_f1_joint_flip_symmetry():
    rng = np.random.default_rng(2)
    pred = rng.integers(0, 2, 30)
    truth = rng.integers(0, 2, 30)
    assert micro_f1(pred, truth) == micro_f1(1 - pred, 1 - truth)


def test_micro_f1_length_mismatch():
    with pytest.raises(LengthMismatch):
        micro_f1([1, 0], [1])


def test_stratified_folds_cover_and_balance():
    y = np.array([0] * 30 + [1] * 20)
    rng = np.random.default_rng(3)
    folds = stratified_folds(y, 5, rng)
    all_rows = np.sort(np.concatenate(folds))
    np.testing.assert_array_equal(all_rows, np.arange(50))
    for fold in folds:
        assert set(y[fold]) == {0, 1}
        assert np.sum(y[fold] == 0) == 6
        assert np.sum(y[fold] == 1) == 4


def test_stratified_folds_too_small_class():
    with pytest.raises(TooFewSamples):
        stratified_folds(np.array([0, 0, 0, 1, 1, 1, 1, 1]), 5, np.random.default_rng(0))


def test_forest_fits_separable_data():
    X, y = separable_data()
    model = train_forest(X, y, ForestParams(n_trees=30), seed=0)
    assert micro_f1(model.predict(X), y) == 1.0


def test_forest_single_class_raises():
    X = np.zeros((10, 3))
    with pytest.raises(SingleClassInput):
        train_forest(X, np.zeros(10, dtype=np.uint8), ForestParams(n_trees=5), seed=0)


@pytest.mark.parametrize("constant, params", [
    (False, ForestParams(n_trees=1, max_depth=0)),
    (True, ForestParams(n_trees=3)),  # both classes at the root, but no drawn column splits them
])
def test_stump_predicts_majority(constant, params):
    rng = np.random.default_rng(4)
    X = np.zeros((30, 3)) if constant else rng.normal(size=(30, 3))
    y = np.array([1] * 20 + [0] * 10, dtype=np.uint8)
    model = train_forest(X, y, params, seed=0)
    assert [len(tree.feature) for tree in model.trees] == [1] * params.n_trees
    assert np.all(model.predict(X) == 1)


def test_forest_deterministic_given_seed():
    X, y = separable_data(seed=5)
    a = train_forest(X, y, ForestParams(n_trees=20), seed=42)
    b = train_forest(X, y, ForestParams(n_trees=20), seed=42)
    rng = np.random.default_rng(6)
    probe = rng.normal(size=(50, X.shape[1]))
    np.testing.assert_array_equal(a.predict(probe), b.predict(probe))
    np.testing.assert_array_equal(a.importances, b.importances)


def test_importances_normalized_and_informative():
    X, y = separable_data(seed=7)
    model = train_forest(X, y, ForestParams(n_trees=50), seed=1)
    assert model.importances.sum() == pytest.approx(1.0)
    assert np.all(model.importances >= 0)
    assert int(np.argmax(model.importances)) == 2  # the planted column


def test_prediction_invariant_under_monotone_transform_refit():
    # splits depend only on within-column order, so refitting after a strictly
    # increasing transform routes every training point identically (probe
    # points inside a split gap are not order-determined and may move)
    X, y = separable_data(n=40, seed=8)
    base = train_forest(X, y, ForestParams(n_trees=15, max_depth=4), seed=3).predict(X)
    warped = np.sign(X) * np.abs(X) ** 3
    refit = train_forest(warped, y, ForestParams(n_trees=15, max_depth=4), seed=3).predict(warped)
    np.testing.assert_array_equal(base, refit)


def test_importances_equivariant_under_column_permutation():
    X, y = separable_data(n=50, seed=10)
    perm = np.array([3, 0, 4, 1, 2])
    a = train_forest(X, y, ForestParams(n_trees=40), seed=11).importances
    b = train_forest(X[:, perm], y, ForestParams(n_trees=40), seed=11).importances
    # the planted informative column must dominate in both layouts
    assert int(np.argmax(a)) == 2
    assert int(np.argmax(b)) == int(np.flatnonzero(perm == 2)[0])


def test_cross_validate_separable_is_perfect():
    X, y = separable_data(n=50, seed=12)
    report = cross_validate(X, y, [f"f{i}" for i in range(5)],
                            grid=[ForestParams(n_trees=20)], seed=0)
    assert report.best_micro_f1 == 1.0
    assert [name for name, _ in report.importances][0] == "f2"


def test_cross_validate_deterministic():
    X, y = separable_data(n=45, seed=13)
    names = [f"f{i}" for i in range(5)]
    grid = [ForestParams(n_trees=10), ForestParams(n_trees=10, max_depth=2)]
    a = cross_validate(X, y, names, grid=grid, seed=7)
    b = cross_validate(X, y, names, grid=grid, seed=7)
    assert a.best_micro_f1 == b.best_micro_f1
    assert a.per_config == b.per_config
    assert a.importances == b.importances


def test_cross_validate_importances_sum_to_one():
    X, y = separable_data(n=50, seed=14)
    report = cross_validate(X, y, [f"f{i}" for i in range(5)],
                            grid=[ForestParams(n_trees=15)], seed=1)
    assert sum(w for _, w in report.importances) == pytest.approx(1.0)


@pytest.mark.parametrize("field, value", [
    ("n_trees", 0), ("n_trees", -3), ("min_leaf", 0), ("max_depth", -1),
])
def test_forest_params_refuse_values_a_forest_cannot_use(field, value):
    with pytest.raises(BadParameter, match=f"^{field} must be at least") as err:
        ForestParams(**{field: value})
    assert err.value.name == field


def test_forest_params_accept_the_smallest_usable_values():
    params = ForestParams(n_trees=1, max_depth=0, min_leaf=1)
    assert params.label() == "n_trees=1,max_depth=0,min_leaf=1"
    assert ForestParams(max_depth=None).max_depth is None


@pytest.mark.parametrize("k", [1, 0, -2])
def test_cross_validate_needs_two_folds(k):
    X, y = separable_data(n=20, seed=16)
    with pytest.raises(BadParameter, match="^k must be at least 2") as err:
        cross_validate(X, y, [f"f{i}" for i in range(5)], grid=[ForestParams(n_trees=2)], k=k)
    assert err.value.name == "k"


def test_cross_validate_too_few_samples():
    with pytest.raises(TooFewSamples):
        cross_validate(np.zeros((3, 2)), np.array([0, 1, 0], dtype=np.uint8), ["a", "b"],
                       grid=[ForestParams(n_trees=2)], k=5, seed=0)


def test_label_shuffle_keeps_chance_level():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(80, 8))
    y = binarize_label(rng.normal(size=80))
    scores = []
    for seed in range(3):
        y_shuffled = y[np.random.default_rng(seed).permutation(len(y))]
        report = cross_validate(X, y_shuffled, [f"f{i}" for i in range(8)],
                                grid=[ForestParams(n_trees=30, max_depth=4)], seed=seed)
        scores.append(report.best_micro_f1)
    assert all(0.3 <= s <= 0.7 for s in scores)
