from __future__ import annotations

import math
import random
import warnings
from itertools import combinations

import numpy as np
import pytest

from shifttalk.errors import ConstantInput, EmptyGroup, EmptyInput
from shifttalk.stats import (
    MwuMethod,
    compare_groups,
    grouped_spearman,
    mann_whitney_u,
    midranks,
    spearman_rho,
)


def oracle_midranks(values):
    """Rank via sorted positions, averaging over tie groups."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def oracle_spearman(x, y):
    rx = oracle_midranks(x)
    ry = oracle_midranks(y)
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return num / den


def oracle_exact_p(a, b):
    """Two-sided permutation p by enumerating all label assignments."""
    pooled = sorted(a) + sorted(b)
    values = sorted(pooled)
    n1, n2 = len(a), len(b)

    def u_of(sample):
        return sum(1 for x in sample for y in values if x > y) - 0  # not used

    # rank-based U for an index subset of the sorted pool
    def u_from_idx(idx):
        r1 = sum(i + 1 for i in idx)
        return r1 - n1 * (n1 + 1) / 2

    # observed: a occupies the positions of its values in the sorted pool
    taken = []
    remaining = list(values)
    positions = []
    used = [False] * len(values)
    for x in sorted(a):
        for i, v in enumerate(values):
            if not used[i] and v == x:
                used[i] = True
                positions.append(i)
                break
    u_obs = u_from_idx(positions)
    mu = n1 * n2 / 2
    hits = total = 0
    for idx in combinations(range(len(values)), n1):
        total += 1
        if abs(u_from_idx(idx) - mu) >= abs(u_obs - mu) - 1e-12:
            hits += 1
    return hits / total


def test_midranks_with_ties():
    np.testing.assert_allclose(midranks(np.array([3.0, 5.0, 5.0, 9.0])), [1, 2.5, 2.5, 4])


def test_midranks_match_scipy_rankdata():
    from scipy import stats as scipy_stats
    rng = np.random.default_rng(8)
    for n in range(60):
        values = rng.integers(-3, n // 4 + 2, n).astype(float)  # heavy ties
        values[(values == 0) & (rng.random(n) < 0.5)] = -0.0
        assert np.array_equal(midranks(values), scipy_stats.rankdata(values, method="average"))


def test_spearman_perfect_monotone():
    x = [1.0, 2.0, 5.0, 9.0]
    assert spearman_rho(x, [2.0, 4.0, 6.0, 8.0]) == pytest.approx(1.0)
    assert spearman_rho(x, [8.0, 6.0, 4.0, 2.0]) == pytest.approx(-1.0)


def test_spearman_constant_raises():
    with pytest.raises(ConstantInput):
        spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_spearman_matches_oracle_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(3, 20))
        x = rng.integers(0, 5, n).astype(float)
        y = rng.integers(0, 5, n).astype(float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        assert spearman_rho(x, y) == pytest.approx(oracle_spearman(x.tolist(), y.tolist()), abs=1e-12)


def test_spearman_matches_scipy_with_ties():
    from scipy import stats as scipy_stats
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(300):
        n = int(rng.integers(2, 40))
        x = rng.integers(0, int(rng.integers(2, 8)), n).astype(float)  # heavy ties
        y = np.where(rng.random(n) < 0.5, x, rng.integers(0, 4, n)).astype(float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        assert spearman_rho(x, y) == pytest.approx(scipy_stats.spearmanr(x, y).statistic, abs=1e-12)
        checked += 1
    assert checked > 200


def _bits(value) -> list[int]:
    return np.asarray(value, dtype=float).view(np.uint64).tolist()


def test_spearman_pinned_to_scipy_and_grouped_pass_to_spearman():
    """spearman_rho against scipy.stats.spearmanr on tied samples from n = 2
    up; a constant vector raises ConstantInput where scipy gives NaN. The
    grouped pass gives spearman_rho's bits in every group, and 0.0 for a
    constant or one-value group."""
    from scipy import stats as scipy_stats
    import hypothesis
    from hypothesis import strategies as st

    # few distinct values, so ties and constant vectors come often; -0.0 ties 0.0
    value = st.one_of(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]), st.floats(-1e3, 1e3))
    pair = st.integers(1, 12).flatmap(lambda n: st.tuples(*(st.lists(value, min_size=n, max_size=n),) * 2))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(pair, min_size=1, max_size=5), st.randoms(use_true_random=False))
    @hypothesis.example([([0.0, 1.0], [3.0, 2.0]), ([0.0, 1.0], [2.0, 3.0]), ([1.0, 1.0], [2.0, 3.0])],
                        random.Random(0))
    def check(groups, rnd) -> None:
        expected = []
        for x, y in groups:
            x, y = np.array(x), np.array(y)
            if len(x) < 2:
                expected.append(0.0)
            elif np.all(x == x[0]) or np.all(y == y[0]):
                with pytest.raises(ConstantInput):
                    spearman_rho(x, y)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # scipy warns that the input is constant
                    assert math.isnan(scipy_stats.spearmanr(x, y).statistic)
                expected.append(0.0)
            else:
                rho = spearman_rho(x, y)
                assert rho == pytest.approx(scipy_stats.spearmanr(x, y).statistic, abs=1e-12)
                expected.append(rho)
        # the groups' rows interleaved, as a grouped caller may hold them
        rows = [(g, a, b) for g, (x, y) in enumerate(groups) for a, b in zip(x, y)]
        rnd.shuffle(rows)
        group, x, y = (np.array(column) for column in zip(*rows))
        rho = grouped_spearman(x[:, None], y, group.astype(np.int64), len(groups))
        assert _bits(rho[:, 0]) == _bits(expected)

    check()


def test_u_statistic_identity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.normal(size=int(rng.integers(1, 10)))
        b = rng.normal(size=int(rng.integers(1, 10)))
        u_ab = mann_whitney_u(a, b).u_statistic
        u_ba = mann_whitney_u(b, a).u_statistic
        assert u_ab + u_ba == pytest.approx(len(a) * len(b))


def test_identical_samples_p_near_one():
    a = [1.0, 2.0, 3.0, 4.0]
    res = mann_whitney_u(a, list(a))
    assert res.u_statistic == pytest.approx(len(a) ** 2 / 2)
    assert res.p_value == pytest.approx(1.0)
    assert res.method is MwuMethod.NORMAL_APPROX  # ties force the approximation


def test_complete_separation_exact_p():
    a = [1.0, 2.0, 3.0]
    b = [10.0, 11.0, 12.0, 13.0]
    res = mann_whitney_u(a, b)
    assert res.method is MwuMethod.EXACT
    assert res.u_statistic == 0.0
    assert res.p_value == pytest.approx(2 / math.comb(7, 3))


def test_exact_matches_independent_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n1 = int(rng.integers(2, 5))
        n2 = int(rng.integers(2, 5))
        pool = rng.permutation(20)[: n1 + n2].astype(float)  # distinct values
        a, b = pool[:n1], pool[n1:]
        res = mann_whitney_u(a, b, method="exact")
        assert res.p_value == pytest.approx(oracle_exact_p(a.tolist(), b.tolist()), abs=1e-12)


def test_normal_approx_close_to_exact_when_untied():
    # worst case of the cc-corrected normal over all untied configurations
    # with n1, n2 in [2, 6] is 0.0881 at (2, 2); 0.0511 once the total
    # reaches 5 (at (2, 3)); see the acceptance suite for the full surface
    rng = np.random.default_rng(3)
    worst_total5 = 0.0
    for _ in range(200):
        n1 = int(rng.integers(2, 7))
        n2 = int(rng.integers(2, 7))
        pool = rng.permutation(100)[: n1 + n2].astype(float)
        a, b = pool[:n1], pool[n1:]
        exact = mann_whitney_u(a, b, method="exact").p_value
        approx = mann_whitney_u(a, b, method="normal").p_value
        if n1 + n2 >= 5:
            worst_total5 = max(worst_total5, abs(exact - approx))
        assert abs(exact - approx) <= 0.0881 + 1e-12
    assert worst_total5 <= 0.0511 + 1e-12


def untied_configurations():
    """(a, b) on the untied pool 1..n1+n2, one per distinct U, for every
    n1, n2 in [2, 6]; with untied data the p-value depends on (n1, n2, U) alone."""
    for n1 in range(2, 7):
        for n2 in range(2, 7):
            seen: set[int] = set()
            for subset in combinations(range(n1 + n2), n1):
                u = sum(subset) + n1 - n1 * (n1 + 1) // 2
                if u in seen:
                    continue
                seen.add(u)
                a = np.array([i + 1.0 for i in subset])
                b = np.array([i + 1.0 for i in range(n1 + n2) if i not in subset])
                yield a, b


def test_exact_p_matches_scipy():
    from scipy import stats as scipy_stats
    for a, b in untied_configurations():
        res = mann_whitney_u(a, b, method="exact")
        ref = scipy_stats.mannwhitneyu(a, b, method="exact")
        assert res.u_statistic == ref.statistic
        assert abs(res.p_value - ref.pvalue) <= 1e-12


def test_normal_p_matches_scipy():
    from scipy import stats as scipy_stats
    for a, b in untied_configurations():
        res = mann_whitney_u(a, b, method="normal")
        ref = scipy_stats.mannwhitneyu(a, b, method="asymptotic", use_continuity=True)
        assert res.u_statistic == ref.statistic
        assert abs(res.p_value - ref.pvalue) <= 1e-12


def test_p_invariant_under_monotone_transform():
    rng = np.random.default_rng(4)
    a = rng.normal(size=15)
    b = rng.normal(0.5, 1.0, size=12)
    base = mann_whitney_u(a, b)
    warped = mann_whitney_u(np.exp(a), np.exp(b))
    assert warped.p_value == pytest.approx(base.p_value, abs=1e-12)
    assert warped.u_statistic == pytest.approx(base.u_statistic)


def test_empty_sample_raises():
    with pytest.raises(EmptyInput):
        mann_whitney_u([], [1.0])


def test_exact_with_ties_rejected():
    with pytest.raises(ValueError):
        mann_whitney_u([1.0, 1.0], [1.0, 2.0], method="exact")


def test_group_summaries():
    res = mann_whitney_u([1.0, 2.0, 30.0], [4.0, 5.0])
    assert res.group_a.median == 2.0
    assert res.group_a.mean == pytest.approx(11.0)
    assert res.group_a.n == 3
    assert res.group_b.n == 2


def test_compare_groups_flags_planted_shift():
    rng = np.random.default_rng(5)
    n = 40
    null_col = rng.normal(size=n)
    planted = rng.normal(size=n)
    planted[: n // 2] += 3.0
    X = np.column_stack([null_col, planted])
    in_a = np.arange(n) < n // 2
    table = compare_groups(X, ["noise", "planted"], in_a)
    assert table.feature.tolist() == ["noise", "planted"]
    assert table.significant.tolist() == [False, True]
    assert table.stratum.tolist() == ["all", "all"]


def test_compare_groups_identical_not_flagged():
    X = np.array([[1.0], [2.0], [3.0], [1.0], [2.0], [3.0]])
    table = compare_groups(X, ["f"], np.array([True] * 3 + [False] * 3))
    assert not table.significant[0]


def test_compare_groups_skips_nan_rows():
    X = np.array([[np.nan], [2.0], [3.0], [1.0], [2.0], [3.0]])
    table = compare_groups(X, ["f"], np.array([True] * 3 + [False] * 3))
    assert table.group_a_median[0] == 2.5


def test_compare_groups_empty_group_raises():
    X = np.array([[np.nan], [np.nan], [1.0], [2.0]])
    with pytest.raises(EmptyGroup):
        compare_groups(X, ["f"], np.array([True, True, False, False]))


def test_null_calibration_quick():
    rng = np.random.default_rng(6)
    flagged = 0
    trials = 400
    for _ in range(trials):
        a = rng.normal(size=15)
        b = rng.normal(size=15)
        if mann_whitney_u(a, b).p_value < 0.05:
            flagged += 1
    assert 0.02 <= flagged / trials <= 0.08


def test_median_and_distinct_match_numpy_bit_for_bit_property():
    import hypothesis
    from hypothesis import strategies as st

    from shifttalk.model import distinct, median

    special = st.sampled_from([0.0, -0.0, 1.0, 2.5, -1e308, 1e308, 5e-324, math.inf, -math.inf, math.nan])

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(st.one_of(special, st.floats()), min_size=1, max_size=9))
    @hypothesis.example([-math.inf, math.inf])
    def check(values: list[float]) -> None:
        x = np.array(values)
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or a sum past the largest float
            assert np.float64(median(x)).tobytes() == np.median(x).tobytes()
        assert distinct(x).tobytes() == np.unique(x).tobytes()

    check()
