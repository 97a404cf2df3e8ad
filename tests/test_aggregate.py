from __future__ import annotations

from datetime import timedelta

import numpy as np
import pytest

from shifttalk.aggregate import (
    _SHIFT_SCALARS,
    FEATURE_COLUMNS,
    N_BLOCKS,
    ShiftColumns,
    ShiftFeatures,
    block_series,
    build_feature_matrix,
    cohort_feature_matrix,
    dominant_category,
    participant_vector,
    per_shift_features,
)
from shifttalk.arousal import RatedRecording
from shifttalk.locate import empty_timeline
from shifttalk.model import SHIFT_MINUTES, DailyPhysiology, LocationCategory, ShiftType, UnitType
from shifttalk.sessions import SpeechSession, build_sessions

from conftest import D0, profile, recording


def rated_at(minutes, fused=0.0):
    return [RatedRecording("p1", D0, m, (0.0, 0.0, 0.0), f)
            for m, f in zip(minutes, fused if hasattr(fused, "__len__") else [fused] * len(minutes))]


def test_block_boundaries():
    blocks = block_series([(59, 1.0), (60, 1.0)], reducer=lambda v: float(v.sum()))
    assert blocks[0] == 1.0
    assert blocks[1] == 1.0
    assert blocks[2] is None


def test_uniform_events_fill_all_blocks():
    events = [(m, 1.0) for m in range(0, SHIFT_MINUTES, 30)]
    blocks = block_series(events, reducer=lambda v: float(len(v)))
    assert all(b == 2.0 for b in blocks)


def test_single_hour_fills_one_block():
    events = [(m, 1.0) for m in range(0, 60)]
    blocks = block_series(events, reducer=lambda v: float(len(v)))
    assert blocks[0] == 60.0
    assert all(b is None for b in blocks[1:])


def test_block_totals_match_whole_shift_for_additive_reducers():
    rng = np.random.default_rng(0)
    events = [(int(rng.integers(0, SHIFT_MINUTES)), float(rng.normal())) for _ in range(300)]
    blocks = block_series(events, reducer=lambda v: float(v.sum()))
    total = sum(b for b in blocks if b is not None)
    assert total == pytest.approx(sum(v for _, v in events))
    counts = block_series(events, reducer=lambda v: float(len(v)))
    assert sum(b for b in counts if b is not None) == len(events)


def test_out_of_window_events_ignored():
    blocks = block_series([(720, 1.0), (-1, 1.0), (5, 2.0)], reducer=lambda v: float(v.sum()))
    assert blocks[0] == 2.0
    assert sum(b is not None for b in blocks) == 1


def start_middle_end(*shifts: list) -> tuple[float, float, float]:
    """participant_vector's pos_ratio_start/middle/end for shifts with these
    pos blocks; the neg family, given the same blocks, must agree."""
    sfs = [ShiftFeatures("p1", D0, 0, 0, pos_blocks=list(b), neg_blocks=list(b)) for b in shifts]
    feats = participant_vector(profile("p1"), sfs, []).features
    windows = tuple(feats[f"pos_ratio_{w}"] for w in ("start", "middle", "end"))
    np.testing.assert_array_equal(windows, [feats[f"neg_ratio_{w}"] for w in ("start", "middle", "end")])
    return windows


def test_start_middle_end_constant():
    assert start_middle_end([3.0] * 12) == (3.0, 3.0, 3.0)


def test_start_middle_end_front_loaded():
    assert start_middle_end([1.0] * 4 + [0.0] * 8) == (1.0, 0.0, 0.0)


def test_start_middle_end_matches_windowed_mean_oracle():
    rng = np.random.default_rng(1)
    for _ in range(30):
        shifts = []
        for _ in range(int(rng.integers(1, 4))):
            values = rng.normal(size=12)
            present = rng.random(12) < 0.6
            shifts.append([float(v) if keep else None for v, keep in zip(values, present)])
        got = start_middle_end(*shifts)
        for w, window in enumerate((range(0, 4), range(4, 8), range(8, 12))):
            # each shift's mean over its populated blocks, then the mean over shifts
            means = [np.mean(vals) for blocks in shifts
                     if (vals := [blocks[b] for b in window if blocks[b] is not None])]
            if means:
                assert got[w] == pytest.approx(np.mean(means))
            else:
                assert np.isnan(got[w])


def test_start_middle_end_all_absent_shift_skipped():
    assert start_middle_end([None] * 12, [2.0] * 12) == (2.0, 2.0, 2.0)
    assert np.isnan(start_middle_end([None] * 12)).all()


def test_dominant_category_majority_and_tiebreak():
    s = SpeechSession("p1", D0, [0, 1, 2], {
        LocationCategory.PATIENT_ROOM: 2,
        LocationCategory.NURSING_STATION: 1,
        LocationCategory.LOUNGE_MED: 0,
        LocationCategory.OUTSIDE_UNIT: 0,
    })
    assert dominant_category(s) is LocationCategory.PATIENT_ROOM
    tie = SpeechSession("p1", D0, [0, 1], {
        LocationCategory.PATIENT_ROOM: 1,
        LocationCategory.NURSING_STATION: 1,
        LocationCategory.LOUNGE_MED: 0,
        LocationCategory.OUTSIDE_UNIT: 0,
    })
    assert dominant_category(tie) is LocationCategory.PATIENT_ROOM  # precedence on ties


def test_empty_shift_yields_absent_features():
    sf = per_shift_features([], [], empty_timeline("p1", D0))
    assert sf.scalars == {}
    assert sf.n_recordings == 0
    assert all(b is None for b in sf.pos_blocks)


def test_single_patient_room_session():
    timeline = empty_timeline("p1", D0)
    timeline.slots[:] = int(LocationCategory.PATIENT_ROOM)
    sessions = build_sessions([recording("p1", minute=3), recording("p1", minute=4)], timeline)
    sf = per_shift_features(sessions, [], timeline)
    assert sf.scalars["occurrence_pat"] == 1.0
    assert sf.scalars["occurrence_ns"] == 0.0
    assert sf.scalars["gt1min_ratio_all"] == 1.0
    assert sf.scalars["gt1min_ratio_pat"] == 1.0
    assert "gt1min_ratio_ns" not in sf.scalars
    assert "inter_session_time" not in sf.scalars  # single session


def test_per_shift_features_match_hand_computation():
    timeline = empty_timeline("p1", D0)
    timeline.slots[0:2] = int(LocationCategory.NURSING_STATION)
    timeline.slots[5] = int(LocationCategory.PATIENT_ROOM)
    recs = [recording("p1", minute=m) for m in (0, 1, 5)]
    sessions = build_sessions(recs, timeline)
    fused = [0.5, -0.5, 0.1]
    rated = rated_at([0, 1, 5], fused)
    sf = per_shift_features(sessions, rated, timeline)
    assert sf.scalars["inter_session_time"] == 3.0  # 5 - (1 + 1)
    assert sf.scalars["gt1min_ratio_all"] == 0.5
    assert sf.scalars["occurrence_ns"] == pytest.approx(2 / 3)
    assert sf.scalars["occurrence_pat"] == pytest.approx(1 / 3)
    assert sf.scalars["pos_ratio_all"] == pytest.approx(1 / 3)
    assert sf.scalars["neg_ratio_all"] == pytest.approx(1 / 3)
    assert sf.scalars["pos_ratio_ns"] == pytest.approx(1 / 2)  # recordings at minutes 0,1
    assert sf.scalars["neg_ratio_pat"] == 0.0  # minute 5 fused 0.1
    assert sf.pos_blocks[0] == pytest.approx(1 / 3)
    assert all(b is None for b in sf.pos_blocks[1:])


def test_participant_vector_and_matrix_schema():
    timeline = empty_timeline("p1", D0)
    sessions = build_sessions([recording("p1", minute=0), recording("p1", minute=1)], timeline)
    sf = per_shift_features(sessions, rated_at([0, 1], [0.5, -0.5]), timeline)
    vec = participant_vector(profile("p1"), [sf], [DailyPhysiology("p1", D0, 0.4, 7.0)])
    assert set(vec.features) == set(FEATURE_COLUMNS)
    X, names, ids = build_feature_matrix([vec])
    assert X.shape == (1, len(FEATURE_COLUMNS))
    assert names == FEATURE_COLUMNS
    assert ids == ["p1"]
    assert not np.any(np.isnan(X))  # imputation fills the gaps


def test_identical_participants_identical_rows():
    timeline = empty_timeline("p1", D0)
    sessions = build_sessions([recording("p1", minute=0)], timeline)
    sf = per_shift_features(sessions, rated_at([0], [0.3]), timeline)
    phys = [DailyPhysiology("p1", D0, 0.4, 7.0)]
    a = participant_vector(profile("p1"), [sf], phys)
    b = participant_vector(profile("p2"), [sf], phys)
    b.participant_id = "p2"
    X, _, _ = build_feature_matrix([a, b])
    np.testing.assert_array_equal(X[0], X[1])


def test_imputation_uses_column_median():
    vecs = []
    for pid, value in (("a", 1.0), ("b", 3.0), ("c", float("nan"))):
        v = participant_vector(profile(pid), [], [])
        v.features["walk_ratio_mean"] = value
        vecs.append(v)
    X, names, _ = build_feature_matrix(vecs)
    j = names.index("walk_ratio_mean")
    assert X[2, j] == 2.0


def test_mean_of_ratios_stays_in_unit_interval():
    rng = np.random.default_rng(2)
    timeline = empty_timeline("p1", D0)
    sfs = []
    for day in range(1, 6):
        from datetime import date

        d = date(2022, 3, day)
        minutes = sorted(rng.choice(SHIFT_MINUTES, size=20, replace=False).tolist())
        recs = [recording("p1", minute=m, shift_date=d) for m in minutes]
        sessions = build_sessions(recs, timeline)
        rated = [RatedRecording("p1", d, m, (0, 0, 0), float(rng.normal())) for m in minutes]
        sfs.append(per_shift_features(sessions, rated, timeline))
    vec = participant_vector(profile("p1"), sfs, [])
    for name, value in vec.features.items():
        if "ratio" in name and "std" not in name and not np.isnan(value):
            assert 0.0 <= value <= 1.0


def test_cohort_feature_matrix_matches_participant_vectors():
    """The grouped participant pass gives the bits of participant_vector per
    participant, then build_feature_matrix: shift scalars and hour blocks
    missing at random or throughout, tied values, 0 to 130 shifts and
    physiology days per participant (numpy sums pairwise from 8 values on),
    and shift and physiology rows of an id without a profile."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    count = st.one_of(st.integers(0, 10), st.sampled_from([8, 9, 16, 129, 130]))

    @st.composite
    def cohorts(draw):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        missing = draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
        pool = np.concatenate([[0.0, 0.25, 1 / 3, 0.5, 1.0], rng.random(3), rng.random(2) * 700])

        def values(shape):
            out = rng.choice(pool, shape)
            out[rng.random(shape) < missing] = np.nan
            return out

        ids = [f"p{k}" for k in range(draw(st.integers(0, 5)))]
        profiles = {pid: profile(pid, draw(st.sampled_from(list(ShiftType))), draw(st.sampled_from(list(UnitType))))
                    for pid in ids}
        owners = ids + ["q"] * draw(st.booleans())  # q has no profile
        keys = [(pid, D0 + timedelta(days=d)) for pid in owners for d in range(draw(count))]
        n = len(keys)
        shifts = ShiftColumns(rng.integers(0, 9, n), rng.integers(0, 9, n), {key: values(n) for key in _SHIFT_SCALARS},
                              values((n, N_BLOCKS)), values((n, N_BLOCKS)), rng.integers(0, 9, (n, N_BLOCKS)))
        physiology = [DailyPhysiology(pid, D0, float(rng.choice(pool[:8])), float(rng.random() * 12))
                      for pid in owners for _ in range(draw(count))]
        rng.shuffle(physiology)  # each participant's days interleaved with the others'
        return profiles, keys, shifts, physiology

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cohorts())
    def check(drawn) -> None:
        profiles, keys, shifts, physiology = drawn
        by_pid: dict[str, list[ShiftFeatures]] = {}
        for sf in shifts.records(keys):
            by_pid.setdefault(sf.participant_id, []).append(sf)
        vectors = [participant_vector(profiles[pid], by_pid.get(pid, []),
                                      [d for d in physiology if d.participant_id == pid]) for pid in sorted(profiles)]
        X, names, ids = cohort_feature_matrix(profiles, np.array([pid for pid, _ in keys], dtype=object),
                                              shifts, physiology)
        assert names == FEATURE_COLUMNS and ids == sorted(profiles)
        if not vectors:
            assert X.shape == (0, len(FEATURE_COLUMNS))
            return
        expected, _, _ = build_feature_matrix(vectors)
        assert X.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    check()
