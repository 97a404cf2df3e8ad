"""Rank statistics: Spearman correlation and the Mann-Whitney U test.

Both are implemented from first principles so their tie handling and p-value
conventions are pinned down by our own tests rather than by a library
version: mid-ranks for ties everywhere, two-sided p-values, exact
permutation enumeration for small untied samples and a tie-corrected normal
approximation with continuity correction otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .errors import ConstantInput, EmptyGroup, EmptyInput
from .model import ColumnTable

EXACT_MAX_TOTAL = 12  # full enumeration is C(12,6)=924 assignments at worst


def midranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1; tied values share the mean of their ranks."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    n = len(values)
    new_group = np.ones(n, dtype=bool)  # a tie group starts where the sorted value changes
    new_group[1:] = sorted_vals[1:] != sorted_vals[:-1]
    starts = np.flatnonzero(new_group)
    ends = np.append(starts[1:], n) - 1
    ranks = np.empty(n, dtype=float)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def spearman_rho(x, y) -> float:
    """Spearman rank correlation: Pearson correlation of mid-ranks."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("spearman_rho needs two equal-length vectors of length >= 2")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ConstantInput("constant vector has no rank ordering")
    rx = midranks(x)
    ry = midranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float(rx @ rx) * float(ry @ ry))
    return float(rx @ ry) / denom


def grouped_spearman(x: np.ndarray, y: np.ndarray, group: np.ndarray, size: int) -> np.ndarray:
    """spearman_rho(x[group == g, j], y[group == g]) of every group g < size
    and column j of x (rows, k), as a (size, k) array; 0.0 where either
    vector is constant or has fewer than two values.

    Equals spearman_rho bit for bit while each group has fewer than about
    3e5 values: a centred midrank is a multiple of 0.5, so every product and
    partial sum below is exact in float64 whatever the summation order.
    """
    ry = _centred_midranks(y, group, size)
    syy = np.bincount(group, ry * ry, minlength=size)
    rho = np.zeros((size, x.shape[1]))
    for j in range(x.shape[1]):
        rx = _centred_midranks(x[:, j], group, size)
        sxx, sxy = np.bincount(group, rx * rx, minlength=size), np.bincount(group, rx * ry, minlength=size)
        varies = (sxx > 0) & (syy > 0)  # a constant vector's centred ranks are all 0
        rho[varies, j] = sxy[varies] / np.sqrt(sxx[varies] * syy[varies])
    return rho


def _centred_midranks(values: np.ndarray, group: np.ndarray, size: int) -> np.ndarray:
    """Each value's midrank within its group minus the group's mean rank
    (n + 1) / 2, as midranks(v) - midranks(v).mean() gives it."""
    order = np.lexsort((values, group))
    g, v = group[order], values[order]
    counts = np.bincount(group, minlength=size)
    first = np.cumsum(counts) - counts
    new_run = np.ones(len(v), dtype=bool)  # a tie run starts where the group or the value changes
    new_run[1:] = (g[1:] != g[:-1]) | (v[1:] != v[:-1])
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:], len(v)) - 1
    run = g[starts]
    centred = np.empty(len(v))
    centred[order] = np.repeat((starts + ends - 2 * first[run] + 1 - counts[run]) / 2.0, ends - starts + 1)
    return centred


def _norm_sf(z: float) -> float:
    """P(Z > z) for standard normal Z."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


class MwuMethod(str, Enum):
    EXACT = "exact"
    NORMAL_APPROX = "normal_approx"


@dataclass(frozen=True)
class GroupSummary:
    median: float
    mean: float
    n: int


@dataclass(frozen=True)
class MwuResult:
    u_statistic: float  # U for the first sample
    p_value: float
    method: MwuMethod
    group_a: GroupSummary
    group_b: GroupSummary


def _summary(values: np.ndarray) -> GroupSummary:
    return GroupSummary(median=float(np.median(values)), mean=float(values.mean()), n=len(values))


def _u_from_ranks(a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    pooled = np.concatenate([a, b])
    ranks = midranks(pooled)
    r1 = float(ranks[: len(a)].sum())
    u1 = r1 - len(a) * (len(a) + 1) / 2.0
    return u1, pooled


def _exact_p(a: np.ndarray, b: np.ndarray, u_obs: float) -> float:
    """Enumerate all group-label assignments; requires untied pooled data."""
    n1, n2 = len(a), len(b)
    pooled = np.sort(np.concatenate([a, b]))
    total = math.comb(n1 + n2, n1)
    # |2U - n1*n2| stays integral for untied data; compare in integers
    obs_dev = abs(int(round(2 * u_obs)) - n1 * n2)
    hits = 0
    idx_all = range(n1 + n2)
    rank_of = {i: i + 1 for i in idx_all}  # untied: rank = sorted position + 1
    for group_a in combinations(idx_all, n1):
        r1 = sum(rank_of[i] for i in group_a)
        u = 2 * r1 - n1 * (n1 + 1) - n1 * n2  # 2*U1 - n1*n2
        if abs(u) >= obs_dev:
            hits += 1
    return hits / total


def _normal_p(u1: float, n1: int, n2: int, pooled: np.ndarray) -> float:
    n = n1 + n2
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float(((counts**3 - counts)).sum())
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0:
        return 1.0  # all pooled values identical
    mu = n1 * n2 / 2.0
    z = max(abs(u1 - mu) - 0.5, 0.0) / math.sqrt(var)  # 0.5: continuity correction
    return min(1.0, 2.0 * _norm_sf(z))


def mann_whitney_u(a, b, method: str = "auto") -> MwuResult:
    """Mann-Whitney U test between samples a and b.

    U is reported from a's side, so U(a,b) + U(b,a) == len(a)*len(b).
    method: "auto" enumerates exactly when n1+n2 <= 12 and the pooled data
    is untied, otherwise uses the normal approximation; "exact"/"normal"
    force one path (exact requires untied data).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        raise EmptyInput("both samples must be non-empty")
    u1, pooled = _u_from_ranks(a, b)
    has_ties = len(np.unique(pooled)) < len(pooled)
    if method == "auto":
        use_exact = len(pooled) <= EXACT_MAX_TOTAL and not has_ties
    elif method == "exact":
        if has_ties:
            raise ValueError("exact enumeration requires untied data")
        use_exact = True
    elif method == "normal":
        use_exact = False
    else:
        raise ValueError(f"unknown method {method!r}")
    if use_exact:
        p = _exact_p(a, b, u1)
        used = MwuMethod.EXACT
    else:
        p = _normal_p(u1, len(a), len(b), pooled)
        used = MwuMethod.NORMAL_APPROX
    return MwuResult(u1, p, used, _summary(a), _summary(b))


@dataclass(eq=False)
class ComparisonTable(ColumnTable):
    """One Mann-Whitney comparison per row: comparisons.csv's rows.

    ``stratum`` names the participant subset compared ("all" unless the
    caller stratifies); ``u`` is group a's U.
    """

    stratum: np.ndarray = ()  # object
    feature: np.ndarray = ()  # object
    group_a_median: np.ndarray = ()  # float64
    group_a_mean: np.ndarray = ()
    group_b_median: np.ndarray = ()
    group_b_mean: np.ndarray = ()
    u: np.ndarray = ()
    p: np.ndarray = ()
    method: np.ndarray = ()  # object, an MwuMethod value
    significant: np.ndarray = ()  # bool, p < alpha

    DTYPES = (object, object) + (np.float64,) * 6 + (object, bool)


def compare_groups(
    matrix: np.ndarray,
    feature_names: list[str],
    in_group_a: np.ndarray,
    features: list[str] | None = None,
    alpha: float = 0.05,
) -> ComparisonTable:
    """One Mann-Whitney comparison per feature between two participant groups,
    in stratum "all".

    in_group_a is a boolean vector over rows; rows with NaN in a feature are
    excluded from that feature's comparison. No multiple-comparison
    correction is applied (single-test alpha only).
    """
    if features is None:
        features = list(feature_names)
    col_of = {name: i for i, name in enumerate(feature_names)}
    rows = []
    for name in features:
        col = matrix[:, col_of[name]]
        present = ~np.isnan(col)
        a = col[present & in_group_a]
        b = col[present & ~in_group_a]
        if len(a) == 0 or len(b) == 0:
            raise EmptyGroup(name)
        res = mann_whitney_u(a, b)
        rows.append(("all", name, res.group_a.median, res.group_a.mean, res.group_b.median,
                     res.group_b.mean, res.u_statistic, res.p_value, res.method.value, res.p_value < alpha))
    return ComparisonTable(*zip(*rows)) if rows else ComparisonTable()
