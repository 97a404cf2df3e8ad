from __future__ import annotations

import math

import numpy as np
import pytest

from shifttalk.arousal import (
    UNIFORM_WEIGHTS,
    arousal_flags,
    build_neutral,
    fusion_weights,
    percentile_score,
    rate_recording,
    score_recording,
    speaker_fusion_weights,
)
from shifttalk.errors import EmptyPool, InsufficientData
from shifttalk.model import FrameBlock


def make_block(pitch, intensity, hf) -> FrameBlock:
    n = len(intensity)
    return FrameBlock(
        log_pitch=np.asarray(pitch, dtype=float),
        intensity=np.asarray(intensity, dtype=float),
        hf_lf_ratio=np.asarray(hf, dtype=float),
        foreground_prob=np.ones(n),
    )


def oracle_score(x: float, pool) -> float:
    below = sum(1 for v in pool if v < x)
    equal = sum(1 for v in pool if v == x)
    return 2.0 * ((below + 0.5 * equal) / len(pool)) - 1.0


# --- neutral model ---


def test_single_frame_pools():
    model = build_neutral([make_block([4.5], [60.0], [0.8])])
    assert len(model.log_pitch) == len(model.intensity) == len(model.hf_lf_ratio) == 1


def test_unvoiced_frames_excluded_from_pitch_pool():
    model = build_neutral([make_block([4.5, np.nan, 4.9], [60, 61, 62], [0.8, 0.7, 0.9])])
    assert len(model.log_pitch) == 2
    assert len(model.intensity) == 3


def test_all_unvoiced_raises():
    with pytest.raises(InsufficientData) as err:
        build_neutral([make_block([np.nan, np.nan], [60, 61], [0.8, 0.9])])
    assert err.value.feature == "log_pitch"


def test_no_frames_raises():
    with pytest.raises(InsufficientData):
        build_neutral([])


def test_pools_are_sorted():
    rng = np.random.default_rng(0)
    blocks = [make_block(rng.normal(4.7, 0.3, 100), rng.normal(60, 5, 100), rng.normal(0.8, 0.2, 100))
              for _ in range(10)]
    model = build_neutral(blocks)
    for pool in (model.log_pitch, model.intensity, model.hf_lf_ratio):
        assert np.all(np.diff(pool) >= 0)
        assert len(pool) == 1000


# --- percentile score ---


def test_extremes_hit_plus_minus_one():
    pool = np.array([1.0, 2.0, 3.0])
    assert percentile_score(10.0, pool) == 1.0
    assert percentile_score(-10.0, pool) == -1.0


def test_median_of_odd_pool_scores_zero():
    assert percentile_score(2.0, np.array([1.0, 2.0, 3.0])) == 0.0


def test_empty_pool_raises():
    with pytest.raises(EmptyPool):
        percentile_score(1.0, np.empty(0))


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(1)
    for _ in range(500):
        pool = np.sort(np.round(rng.normal(0, 1, int(rng.integers(1, 40))), 1))
        x = float(np.round(rng.normal(0, 1), 1))  # coarse grid forces ties
        assert percentile_score(x, pool) == pytest.approx(oracle_score(x, pool), abs=1e-12)


def test_monotone_in_x():
    rng = np.random.default_rng(2)
    pool = np.sort(rng.normal(0, 1, 50))
    xs = np.sort(rng.normal(0, 1, 30))
    scores = [percentile_score(float(x), pool) for x in xs]
    assert all(a <= b + 1e-15 for a, b in zip(scores, scores[1:]))


def test_antisymmetric_under_reflection():
    rng = np.random.default_rng(3)
    pool = np.sort(rng.normal(0, 1, 25))
    neg_pool = np.sort(-pool)
    for x in rng.normal(0, 1, 20):
        assert percentile_score(float(x), pool) + percentile_score(float(-x), neg_pool) == pytest.approx(0.0, abs=1e-12)


def test_translation_invariance_through_scoring():
    rng = np.random.default_rng(4)
    blocks = [make_block(rng.normal(4.7, 0.3, 50), rng.normal(60, 5, 50), rng.normal(0.8, 0.2, 50))
              for _ in range(5)]
    model = build_neutral(blocks)
    target = blocks[2]
    base = score_recording(target, model)
    shifted_blocks = [
        make_block(b.log_pitch + 1.25, b.intensity, b.hf_lf_ratio) for b in blocks
    ]
    shifted_model = build_neutral(shifted_blocks)
    shifted = score_recording(shifted_blocks[2], shifted_model)
    assert shifted[0] == pytest.approx(base[0], abs=1e-12)
    assert shifted[1:] == base[1:]


# --- fusion ---


def test_identical_increasing_vectors_give_uniform_weights():
    scores = [(0.1, 0.1, 0.1), (0.2, 0.2, 0.2), (0.3, 0.3, 0.3)]
    w = fusion_weights(scores)
    assert w.r == (1.0, 1.0, 1.0)
    assert w.w == pytest.approx((1 / math.sqrt(3),) * 3)
    assert not w.fallback


def test_weights_have_unit_norm():
    rng = np.random.default_rng(5)
    for _ in range(50):
        scores = [tuple(rng.uniform(-1, 1, 3)) for _ in range(int(rng.integers(3, 20)))]
        w = fusion_weights(scores)
        assert math.sqrt(sum(v * v for v in w.w)) == pytest.approx(1.0, abs=1e-9)
        assert not any(math.isnan(v) for v in w.w)


def test_constant_feature_contributes_zero():
    scores = [(0.5, 0.1, 0.1), (0.5, 0.2, 0.2), (0.5, 0.3, 0.3)]
    w = fusion_weights(scores)
    assert w.r[0] == 0.0
    assert w.r[1] == w.r[2] == 1.0


def test_anti_monotone_feature_keeps_negative_weight():
    scores = [(-0.1, 0.1, 0.2), (-0.2, 0.2, 0.4), (-0.3, 0.3, 0.6)]
    w = fusion_weights(scores)
    assert w.r[0] < 0
    assert w.w[0] < 0


def test_all_constant_engages_fallback():
    scores = [(0.1, 0.2, 0.3), (0.1, 0.2, 0.3)]
    w = fusion_weights(scores)
    assert w.fallback
    assert w.w == pytest.approx((1 / math.sqrt(3),) * 3)


def test_single_recording_gets_uniform_weights():
    w = fusion_weights([(0.1, 0.2, 0.3)])
    assert w is UNIFORM_WEIGHTS
    assert w.fallback and w.r == (0.0, 0.0, 0.0)
    assert w.w == (1 / math.sqrt(3),) * 3
    assert fusion_weights([]) is UNIFORM_WEIGHTS


# --- rating and ratios ---


def _weight_bits(weights) -> tuple:
    return (np.asarray(weights.w).view(np.uint64).tolist(), np.asarray(weights.r).view(np.uint64).tolist(),
            weights.fallback)


def test_speaker_fusion_weights_match_fusion_weights_per_speaker():
    """The grouped pass gives each speaker the bits of fusion_weights over
    that speaker's rows: tied and constant score columns, one-recording
    speakers and all-zero correlations (a constant row mean) included."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    score = st.one_of(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]), st.floats(-1.0, 1.0))

    @st.composite
    def speaker(draw):
        n = draw(st.integers(1, 12))
        kind = draw(st.sampled_from(["free", "constant column", "constant mean"]))
        rows = draw(st.lists(st.tuples(score, score, score), min_size=n, max_size=n))
        if kind == "constant column":
            j, value = draw(st.integers(0, 2)), draw(score)
            rows = [tuple(value if i == j else v for i, v in enumerate(row)) for row in rows]
        elif kind == "constant mean":  # each row a permutation of (a, 0, -a): every mean is 0
            rows = [draw(st.permutations([a, 0.0, -a])) for a in draw(st.lists(score, min_size=n, max_size=n))]
        return [tuple(row) for row in rows]

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(speaker(), min_size=1, max_size=6))
    def check(speakers) -> None:
        p = np.array([row for rows in speakers for row in rows], dtype=float)
        bounds = np.cumsum([0] + [len(rows) for rows in speakers])
        got = speaker_fusion_weights(p, bounds)
        assert [_weight_bits(w) for w in got] == [_weight_bits(fusion_weights(rows)) for rows in speakers]

    check()
    fallback = speaker_fusion_weights(np.array([[1.0, 0.0, -1.0], [0.0, -1.0, 1.0]]), np.array([0, 2]))
    assert fallback == [UNIFORM_WEIGHTS]


def test_zero_scores_rate_zero():
    w = fusion_weights([(0.1, 0.1, 0.1), (0.2, 0.2, 0.2)])
    assert rate_recording((0.0, 0.0, 0.0), w) == 0.0


def test_max_rating_is_sqrt3():
    w = fusion_weights([(0.1, 0.1, 0.1), (0.2, 0.2, 0.2)])
    assert rate_recording((1.0, 1.0, 1.0), w) == pytest.approx(math.sqrt(3))


def test_rating_is_dot_product():
    from shifttalk.arousal import FusionWeights

    w = FusionWeights((1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    assert rate_recording((0.5, -0.5, 0.0), w) == 0.5


def test_rating_adds_left_to_right_on_every_python():
    from shifttalk.arousal import FusionWeights

    w = FusionWeights((1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    # Python 3.12's compensated sum() would give 1.0000000000000002
    assert rate_recording((1.0, 1e-16, 1e-16), w) == 1.0
    assert math.copysign(1.0, rate_recording((-0.0, -0.0, -0.0), w)) == 1.0


def test_ratios_all_neutral():
    pos, neg = arousal_flags(np.array([0.0, 0.0, 0.0]))
    assert not pos.any() and not neg.any()


def test_ratios_split():
    pos, neg = arousal_flags(np.array([0.3, -0.3]))
    assert pos.tolist() == [True, False]
    assert neg.tolist() == [False, True]


def test_threshold_is_strict():
    pos, neg = arousal_flags(np.array([0.25, -0.25]))
    assert not pos.any() and not neg.any()
    pos, neg = arousal_flags(np.array([0.5, -0.5, 0.49]), threshold=0.5)
    assert pos.tolist() == [False, False, False]
    assert neg.tolist() == [False, False, False]


def test_flags_of_no_rating_are_empty():
    pos, neg = arousal_flags(np.array([]))
    assert len(pos) == len(neg) == 0


def test_ratios_sum_at_most_one():
    rng = np.random.default_rng(6)
    for _ in range(30):
        values = rng.uniform(-2, 2, int(rng.integers(1, 40)))
        pos, neg = arousal_flags(values)
        assert not (pos & neg).any()  # a rating is positive, negative or neither
        assert pos.mean() + neg.mean() <= 1.0


def test_pitch_median_uses_voiced_frames_only():
    # unvoiced NaNs in the target recording must not drag the median
    pool_blocks = [make_block([4.0, 5.0, 6.0], [60, 61, 62], [0.8, 0.8, 0.8])]
    model = build_neutral(pool_blocks)
    target = make_block([6.5, np.nan, np.nan], [61, 61, 61], [0.8, 0.8, 0.8])
    p = score_recording(target, model)
    assert p[0] == 1.0  # 6.5 above the whole pool


def test_recording_with_no_voiced_frames_scores_neutral_pitch():
    model = build_neutral([make_block([4.0, 5.0], [60, 61], [0.8, 0.8])])
    target = make_block([np.nan, np.nan], [60.5, 60.5], [0.8, 0.8])
    p = score_recording(target, model)
    assert p[0] == 0.0
