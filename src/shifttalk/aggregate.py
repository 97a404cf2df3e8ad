"""Roll per-shift observations up to participant-level feature vectors.

Shift-level session and arousal features are averaged across a participant's
shifts (mean and population std as the two summary functionals); arousal
ratios are additionally summarized at the start, middle and end of the
shift via 12 one-hour time blocks (4 blocks per window; blocks.csv holds
them as a BlockTable). Location-conditioned variants restrict to the
timeline category of each minute: recordings by their own minute, sessions
by their dominant minute category.

cohort_shift_features computes the shift-level features of every shift of
a cohort in grouped passes, as ShiftColumns; per_shift_features states the
same rules for one shift. cohort_feature_matrix rolls those columns and the
physiology rows (a PhysiologyTable, coded as the shifts' owners are) up to
the imputed participant matrix in passes grouped by participant code;
participant_vector and build_feature_matrix state the same rules for one
participant and stay as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyInput
from .locate import LocationTimeline
from .model import (ColumnTable, LocationCategory, ParticipantProfile, PhysiologyTable, ShiftType, UnitType,
                    distinct, median)
from .arousal import AROUSAL_THRESHOLD, RatedRecording, arousal_flags
from .sessions import (
    SpeechSession,
    gt1min_session_ratio,
    inter_session_times,
    session_occurrence_rate,
)

N_BLOCKS = 12
BLOCK_MINUTES = 60
_WINDOWS = {"start": range(0, 4), "middle": range(4, 8), "end": range(8, 12)}
_LOCATED = ((LocationCategory.NURSING_STATION, "ns"), (LocationCategory.PATIENT_ROOM, "pat"))
_OCCURRENCE = _LOCATED + ((LocationCategory.LOUNGE_MED, "lounge_med"), (LocationCategory.OUTSIDE_UNIT, "outside"))

# shift-level scalars that get mean+std across shifts, in FEATURE_COLUMNS order
_SHIFT_SCALARS = [
    "inter_session_time",
    "gt1min_ratio_all", "gt1min_ratio_ns", "gt1min_ratio_pat",
    "occurrence_ns", "occurrence_pat", "occurrence_lounge_med", "occurrence_outside",
    "pos_ratio_all", "pos_ratio_ns", "pos_ratio_pat",
    "neg_ratio_all", "neg_ratio_ns", "neg_ratio_pat",
]
_DAILY = ("walk_ratio", "sleep_hours")  # PhysiologyTable columns that get mean+std across days

FEATURE_COLUMNS: list[str] = [
    *(f"{key}_{stat}" for key in _SHIFT_SCALARS for stat in ("mean", "std")),
    *(f"{polarity}_ratio_{window}" for polarity in ("pos", "neg") for window in _WINDOWS),
    *(f"{name}_{stat}" for name in _DAILY for stat in ("mean", "std")),
    "shift_night", "unit_icu",
]

LABEL_COLUMNS = ["pos_affect", "neg_affect", "life_satisfaction"]


def block_series(
    events: Sequence[tuple[int, float]],
    reducer: Callable[[np.ndarray], float],
) -> list[float | None]:
    """Aggregate (minute_index, value) events into 12 one-hour blocks; None
    marks a block without events."""
    buckets: list[list[float]] = [[] for _ in range(N_BLOCKS)]
    for minute, value in events:
        block = minute // BLOCK_MINUTES
        if 0 <= block < N_BLOCKS:
            buckets[block].append(value)
    return [reducer(np.asarray(vals)) if vals else None for vals in buckets]


def dominant_category(session: SpeechSession) -> LocationCategory:
    """Category holding the most session minutes; ties break by enum order."""
    best = max(session.location_minutes.items(), key=lambda kv: (kv[1], -int(kv[0])))
    return best[0]


@dataclass
class ShiftFeatures:
    """All shift-level features for one (participant, shift_date)."""

    participant_id: str
    shift_date: date
    n_recordings: int
    n_sessions: int
    scalars: dict[str, float] = field(default_factory=dict)  # keys: _SHIFT_SCALARS subset
    pos_blocks: list[float | None] = field(default_factory=lambda: [None] * N_BLOCKS)
    neg_blocks: list[float | None] = field(default_factory=lambda: [None] * N_BLOCKS)
    recordings_per_block: list[int] = field(default_factory=lambda: [0] * N_BLOCKS)


@dataclass(eq=False)
class BlockTable(ColumnTable):
    """Every shift's one-hour blocks, by shift, then block: blocks.csv's rows."""

    participant_id: np.ndarray = ()  # object
    shift_date: np.ndarray = ()  # datetime64[D]
    block: np.ndarray = ()  # int64, 0 .. N_BLOCKS - 1
    recordings: np.ndarray = ()  # int64 rated recordings in the block
    pos_ratio: np.ndarray = ()  # float64, NaN for a block without recordings
    neg_ratio: np.ndarray = ()

    DTYPES = (object, "datetime64[D]", np.int64, np.int64, np.float64, np.float64)


def block_table(pids: np.ndarray, days: np.ndarray, shifts: ShiftColumns) -> BlockTable:
    """The N_BLOCKS hour blocks of each shift, in the order of the shifts,
    whose participant ids and dates are ``pids`` and ``days``."""
    return BlockTable(np.repeat(pids, N_BLOCKS), np.repeat(days, N_BLOCKS), np.tile(np.arange(N_BLOCKS), len(pids)),
                      shifts.recordings_per_block.ravel(), shifts.pos_blocks.ravel(), shifts.neg_blocks.ravel())


def per_shift_features(
    sessions: list[SpeechSession],
    rated_recordings: list[RatedRecording],
    timeline: LocationTimeline,
    arousal_threshold: float = AROUSAL_THRESHOLD,
) -> ShiftFeatures:
    """Compute one shift's feature record; unavailable features stay absent."""
    if sessions:
        pid, shift_date = sessions[0].participant_id, sessions[0].shift_date
    elif rated_recordings:
        pid, shift_date = rated_recordings[0].participant_id, rated_recordings[0].shift_date
    else:
        pid, shift_date = timeline.participant_id, timeline.shift_date
    out = ShiftFeatures(pid, shift_date, n_recordings=len(rated_recordings), n_sessions=len(sessions))
    scalars = out.scalars

    if sessions:
        gaps = inter_session_times(sessions)
        if gaps:
            scalars["inter_session_time"] = float(np.mean(gaps))
        scalars["gt1min_ratio_all"] = gt1min_session_ratio(sessions)
        for cat, key in _OCCURRENCE:
            scalars[f"occurrence_{key}"] = session_occurrence_rate(sessions, cat)
        for cat, key in _LOCATED:
            at_cat = [s for s in sessions if dominant_category(s) is cat]
            if at_cat:
                scalars[f"gt1min_ratio_{key}"] = gt1min_session_ratio(at_cat)

    if rated_recordings:
        minutes = [r.minute_index for r in rated_recordings]
        locations = timeline.slots[minutes]
        pos, neg = arousal_flags(np.array([r.fused for r in rated_recordings]), arousal_threshold)
        for name, flag in (("pos", pos), ("neg", neg)):
            scalars[f"{name}_ratio_all"] = float(flag.mean())
            for cat, key in _LOCATED:
                here = locations == cat
                if here.any():
                    scalars[f"{name}_ratio_{key}"] = float(flag[here].mean())
        out.pos_blocks = block_series(list(zip(minutes, pos)), np.mean)
        out.neg_blocks = block_series(list(zip(minutes, neg)), np.mean)
        blocks = np.asarray(minutes) // BLOCK_MINUTES
        out.recordings_per_block = np.bincount(blocks[(blocks >= 0) & (blocks < N_BLOCKS)], minlength=N_BLOCKS).tolist()

    return out


@dataclass
class ShiftColumns:
    """Every shift's features as columns, a row per shift; NaN marks a
    feature or block that per_shift_features leaves absent."""

    n_recordings: np.ndarray  # int64
    n_sessions: np.ndarray  # int64
    scalars: dict[str, np.ndarray]  # float64, keyed by _SHIFT_SCALARS
    pos_blocks: np.ndarray  # float64 (shifts, N_BLOCKS)
    neg_blocks: np.ndarray
    recordings_per_block: np.ndarray  # int64 (shifts, N_BLOCKS)


def cohort_shift_features(
    n: int,
    slots: np.ndarray,
    sessions: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    rated: tuple[np.ndarray, np.ndarray, np.ndarray],
    arousal_threshold: float = AROUSAL_THRESHOLD,
) -> ShiftColumns:
    """per_shift_features of each of ``n`` shifts, as columns, from grouped counts.

    ``slots`` stacks the shifts' timelines, one row per shift. ``sessions``
    is (shift, start, duration, minutes per LocationCategory value) of every
    session, by (shift, start), as cohort_sessions returns it; ``rated`` is
    (shift, minute, fused) of every rated recording. Each feature is a sum
    of integers over a count, so it equals per_shift_features' value bit for
    bit; a feature whose count is 0 is NaN.
    """

    def total(group: np.ndarray, weights: np.ndarray | None = None, size: int = n) -> np.ndarray:
        return np.bincount(group, weights, minlength=size)

    ratios: dict[str, tuple[np.ndarray, np.ndarray]] = {}  # scalar -> (sum, count) per shift

    shift, start, duration, minutes = sessions
    n_sessions = total(shift)
    follows = shift[1:] == shift[:-1]  # sessions 1.. that follow one of their own shift: one gap each
    gaps = (start[1:] - (start[:-1] + duration[:-1]))[follows]
    ratios["inter_session_time"] = (total(shift[1:][follows], gaps), total(shift[1:][follows]))
    longer = duration >= 2
    ratios["gt1min_ratio_all"] = (total(shift, longer), n_sessions)
    dominant = minutes.argmax(axis=1)  # the first maximum: a tie goes to the lowest category
    for cat, key in _LOCATED:
        here = dominant == cat
        ratios[f"gt1min_ratio_{key}"] = (total(shift[here], longer[here]), total(shift[here]))
    session_minutes = total(shift, duration)
    for cat, key in _OCCURRENCE:
        ratios[f"occurrence_{key}"] = (total(shift, minutes[:, cat]), session_minutes)

    shift, minute, fused = rated
    location = slots[shift, minute]
    block = shift * N_BLOCKS + minute // BLOCK_MINUTES
    n_rated = total(shift)
    per_block = total(block, size=n * N_BLOCKS)
    block_ratios = []
    for name, flag in zip(("pos", "neg"), arousal_flags(fused, arousal_threshold)):
        ratios[f"{name}_ratio_all"] = (total(shift, flag), n_rated)
        for cat, key in _LOCATED:
            here = location == cat
            ratios[f"{name}_ratio_{key}"] = (total(shift[here], flag[here]), total(shift[here]))
        block_ratios.append(_ratio(total(block, flag, n * N_BLOCKS), per_block).reshape(n, N_BLOCKS))

    return ShiftColumns(n_rated, n_sessions, {key: _ratio(*ratios[key]) for key in _SHIFT_SCALARS},
                        *block_ratios, per_block.reshape(n, N_BLOCKS))


def _ratio(part: np.ndarray, whole: np.ndarray) -> np.ndarray:
    """part / whole, NaN where whole is 0."""
    return np.where(whole > 0, part / np.maximum(whole, 1), np.nan)


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std())


@dataclass
class ParticipantFeatureVector:
    participant_id: str
    features: dict[str, float]  # keyed by FEATURE_COLUMNS; NaN = missing


def participant_vector(
    profile: ParticipantProfile,
    shift_features: list[ShiftFeatures],
    physiology: PhysiologyTable,
) -> ParticipantFeatureVector:
    """Summarize one participant's shifts and physiology rows into the fixed
    feature schema."""
    feats: dict[str, float] = {name: float("nan") for name in FEATURE_COLUMNS}

    for key in _SHIFT_SCALARS:
        present = [sf.scalars[key] for sf in shift_features if key in sf.scalars]
        if present:
            mean, std = _mean_std(present)
            feats[f"{key}_mean"] = mean
            feats[f"{key}_std"] = std

    # a window's feature is the mean over shifts of the shift's mean over
    # its populated blocks; a shift with none in the window is left out
    for polarity in ("pos", "neg"):
        for name, window in _WINDOWS.items():
            means = []
            for sf in shift_features:
                blocks = sf.pos_blocks if polarity == "pos" else sf.neg_blocks
                present = [blocks[b] for b in window if blocks[b] is not None]
                if present:
                    means.append(float(np.mean(present)))
            if means:
                feats[f"{polarity}_ratio_{name}"] = float(np.mean(means))

    if len(physiology):
        for name in _DAILY:
            feats[f"{name}_mean"], feats[f"{name}_std"] = _mean_std(getattr(physiology, name))

    feats["shift_night"] = 1.0 if profile.shift_type is ShiftType.NIGHT else 0.0
    feats["unit_icu"] = 1.0 if profile.unit_type is UnitType.ICU else 0.0
    return ParticipantFeatureVector(profile.participant_id, feats)


def build_feature_matrix(
    vectors: list[ParticipantFeatureVector],
) -> tuple[np.ndarray, list[str], list[str]]:
    """Stack vectors into a matrix with missing values imputed by column median.

    Returns (matrix, column_names, participant_ids); rows follow the input
    order. Columns that are missing for every participant impute to 0.
    """
    if not vectors:
        raise EmptyInput("no participant vectors")
    ids = [v.participant_id for v in vectors]
    X = np.array([[v.features[name] for name in FEATURE_COLUMNS] for v in vectors], dtype=float)
    return _impute_medians(X), list(FEATURE_COLUMNS), ids


def _impute_medians(X: np.ndarray) -> np.ndarray:
    """X with each NaN replaced by its column's median, or by 0 in a column
    without any value."""
    for j in range(X.shape[1]):
        col = X[:, j]
        missing = np.isnan(col)
        if missing.any():
            fill = median(col[~missing]) if (~missing).any() else 0.0
            col[missing] = fill
    return X


def cohort_feature_matrix(
    profiles: dict[str, ParticipantProfile],
    owner: np.ndarray,
    shifts: ShiftColumns,
    physiology: PhysiologyTable,
    kept: np.ndarray,
) -> tuple[np.ndarray, list[str], list[str]]:
    """build_feature_matrix of the participant_vector of every profile where
    the mask ``kept`` (by participant code) is True, by sorted participant
    id, from grouped passes over the shifts' columns (shift i belongs to the
    participant whose code is ``owner[i]``) and over the physiology rows,
    grouped by their participant codes. The other participants' rows are
    dropped before the column medians are taken.

    Each mean and std is one np.mean / np.std per distinct value count over
    a (participants, count) matrix, which gives the bits of one call per
    participant; an empty cohort gives a (0, len(FEATURE_COLUMNS)) matrix.
    """
    ids = sorted(profiles)
    n = len(ids)
    column = {name: j for j, name in enumerate(FEATURE_COLUMNS)}
    X = np.full((n, len(FEATURE_COLUMNS)), np.nan)

    for key in _SHIFT_SCALARS:
        values = shifts.scalars[key]
        present = ~np.isnan(values)
        X[:, column[f"{key}_mean"]], X[:, column[f"{key}_std"]] = _group_mean_std(owner[present], values[present], n)
    # a window's feature is the mean over shifts of the shift's mean over
    # its populated blocks; a shift with none in the window is left out
    for polarity, blocks in (("pos", shifts.pos_blocks), ("neg", shifts.neg_blocks)):
        for name, window in _WINDOWS.items():
            part = blocks[:, window.start:window.stop]
            present = ~np.isnan(part)
            shift_mean, _ = _group_mean_std(np.nonzero(present)[0], part[present], len(part))
            present = ~np.isnan(shift_mean)
            X[:, column[f"{polarity}_ratio_{name}"]], _ = _group_mean_std(owner[present], shift_mean[present], n)

    for name in _DAILY:
        X[:, column[f"{name}_mean"]], X[:, column[f"{name}_std"]] = _group_mean_std(
            physiology.participant, getattr(physiology, name), n)

    X[:, column["shift_night"]] = [profiles[pid].shift_type is ShiftType.NIGHT for pid in ids]
    X[:, column["unit_icu"]] = [profiles[pid].unit_type is UnitType.ICU for pid in ids]
    return _impute_medians(X[kept]), list(FEATURE_COLUMNS), [pid for pid, k in zip(ids, kept.tolist()) if k]


def _group_mean_std(group: np.ndarray, values: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std of the values of each group < size, taken in
    their given order; NaN for a group without values."""
    order = np.argsort(group, kind="stable")
    values = values[order]
    counts = np.bincount(group, minlength=size)
    first = np.cumsum(counts) - counts
    mean, std = np.full(size, np.nan), np.full(size, np.nan)
    for c in distinct(counts[counts > 0]).tolist():
        rows = np.flatnonzero(counts == c)
        block = values[first[rows, None] + np.arange(c)]
        mean[rows], std[rows] = block.mean(axis=1), block.std(axis=1)
    return mean, std
