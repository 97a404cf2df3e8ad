"""Roll per-shift observations up to participant-level feature vectors.

Shift-level session and arousal features are averaged across a participant's
shifts (mean and population std as the two summary functionals); arousal
ratios are additionally summarized at the start, middle and end of the
shift via 12 one-hour time blocks (4 blocks per window). Location-
conditioned variants restrict to the timeline category of each minute:
recordings by their own minute, sessions by their dominant minute category.

cohort_shift_features computes the shift-level features of every shift of
a cohort in grouped passes; per_shift_features states the same rules for
one shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from typing import Callable, Sequence

import numpy as np

from .errors import AllAbsent, EmptyInput
from .locate import LocationTimeline
from .model import DailyPhysiology, LocationCategory, ParticipantProfile, ShiftType, UnitType
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

FEATURE_COLUMNS: list[str] = [
    "inter_session_time_mean", "inter_session_time_std",
    "gt1min_ratio_all_mean", "gt1min_ratio_all_std",
    "gt1min_ratio_ns_mean", "gt1min_ratio_ns_std",
    "gt1min_ratio_pat_mean", "gt1min_ratio_pat_std",
    "occurrence_ns_mean", "occurrence_ns_std",
    "occurrence_pat_mean", "occurrence_pat_std",
    "occurrence_lounge_med_mean", "occurrence_lounge_med_std",
    "occurrence_outside_mean", "occurrence_outside_std",
    "pos_ratio_all_mean", "pos_ratio_all_std",
    "pos_ratio_ns_mean", "pos_ratio_ns_std",
    "pos_ratio_pat_mean", "pos_ratio_pat_std",
    "neg_ratio_all_mean", "neg_ratio_all_std",
    "neg_ratio_ns_mean", "neg_ratio_ns_std",
    "neg_ratio_pat_mean", "neg_ratio_pat_std",
    "pos_ratio_start", "pos_ratio_middle", "pos_ratio_end",
    "neg_ratio_start", "neg_ratio_middle", "neg_ratio_end",
    "walk_ratio_mean", "walk_ratio_std",
    "sleep_hours_mean", "sleep_hours_std",
    "shift_night", "unit_icu",
]

LABEL_COLUMNS = ["pos_affect", "neg_affect", "life_satisfaction"]

# shift-level scalars that get mean+std across shifts, in FEATURE_COLUMNS order
_SHIFT_SCALARS = [
    "inter_session_time",
    "gt1min_ratio_all", "gt1min_ratio_ns", "gt1min_ratio_pat",
    "occurrence_ns", "occurrence_pat", "occurrence_lounge_med", "occurrence_outside",
    "pos_ratio_all", "pos_ratio_ns", "pos_ratio_pat",
    "neg_ratio_all", "neg_ratio_ns", "neg_ratio_pat",
]


@dataclass
class TimeBlockSeries:
    """One value per one-hour block of the shift; None marks an empty block."""

    feature_name: str
    blocks: list[float | None]

    def __post_init__(self) -> None:
        if len(self.blocks) != N_BLOCKS:
            raise ValueError(f"block series must have {N_BLOCKS} blocks")


def block_series(
    events: Sequence[tuple[int, float]],
    reducer: Callable[[np.ndarray], float],
    feature_name: str = "",
) -> TimeBlockSeries:
    """Aggregate (minute_index, value) events into 12 one-hour blocks."""
    buckets: list[list[float]] = [[] for _ in range(N_BLOCKS)]
    for minute, value in events:
        block = minute // BLOCK_MINUTES
        if 0 <= block < N_BLOCKS:
            buckets[block].append(value)
    blocks = [reducer(np.asarray(vals)) if vals else None for vals in buckets]
    return TimeBlockSeries(feature_name, blocks)


def start_middle_end(series: TimeBlockSeries) -> tuple[float | None, float | None, float | None]:
    """Window means over blocks 0-3, 4-7 and 8-11 (present blocks only)."""
    out = []
    for window in _WINDOWS.values():
        vals = [series.blocks[b] for b in window if series.blocks[b] is not None]
        out.append(float(np.mean(vals)) if vals else None)
    if all(v is None for v in out):
        raise AllAbsent("no populated block in any window")
    return tuple(out)  # type: ignore[return-value]


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
        out.pos_blocks = block_series(list(zip(minutes, pos)), np.mean, "pos_ratio").blocks
        out.neg_blocks = block_series(list(zip(minutes, neg)), np.mean, "neg_ratio").blocks
        blocks = np.asarray(minutes) // BLOCK_MINUTES
        out.recordings_per_block = np.bincount(blocks[(blocks >= 0) & (blocks < N_BLOCKS)], minlength=N_BLOCKS).tolist()

    return out


def cohort_shift_features(
    keys: list[tuple[str, date]],
    slots: np.ndarray,
    sessions: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    rated: tuple[np.ndarray, np.ndarray, np.ndarray],
    arousal_threshold: float = AROUSAL_THRESHOLD,
) -> list[ShiftFeatures]:
    """per_shift_features of every shift in ``keys``, from grouped counts.

    ``slots`` stacks the shifts' timelines, one row per key. ``sessions`` is
    (shift, start, duration, minutes per LocationCategory value) of every
    session, by (shift, start), as cohort_sessions returns it; ``rated`` is
    (shift, minute, fused) of every rated recording. Each feature is a sum
    of integers over a count, so it equals per_shift_features' value bit for
    bit; a feature whose count is 0 stays absent.
    """
    n = len(keys)

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
        block_ratios.append(_ratio_or_none(total(block, flag, n * N_BLOCKS), per_block))

    columns = {key: _ratio_or_none(part, whole) for key, (part, whole) in ratios.items()}
    pos_blocks, neg_blocks = block_ratios
    per_block = per_block.tolist()
    n_rated, n_sessions = n_rated.tolist(), n_sessions.tolist()
    out = []
    for i, (pid, day) in enumerate(keys):
        scalars = {key: column[i] for key, column in columns.items() if column[i] is not None}
        b = slice(i * N_BLOCKS, (i + 1) * N_BLOCKS)
        out.append(ShiftFeatures(pid, day, n_rated[i], n_sessions[i], scalars,
                                 pos_blocks[b], neg_blocks[b], per_block[b]))
    return out


def _ratio_or_none(part: np.ndarray, whole: np.ndarray) -> list[float | None]:
    """part / whole as Python floats, None where whole is 0."""
    values = (part / np.maximum(whole, 1)).tolist()
    return [v if w else None for v, w in zip(values, whole.tolist())]


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std())


@dataclass
class ParticipantFeatureVector:
    participant_id: str
    features: dict[str, float]  # keyed by FEATURE_COLUMNS; NaN = missing


def participant_vector(
    profile: ParticipantProfile,
    shift_features: list[ShiftFeatures],
    physiology: list[DailyPhysiology],
) -> ParticipantFeatureVector:
    """Summarize one participant's shifts into the fixed feature schema."""
    feats: dict[str, float] = {name: float("nan") for name in FEATURE_COLUMNS}

    for key in _SHIFT_SCALARS:
        present = [sf.scalars[key] for sf in shift_features if key in sf.scalars]
        if present:
            mean, std = _mean_std(present)
            feats[f"{key}_mean"] = mean
            feats[f"{key}_std"] = std

    for polarity in ("pos", "neg"):
        windows: dict[str, list[float]] = {w: [] for w in _WINDOWS}
        for sf in shift_features:
            blocks = sf.pos_blocks if polarity == "pos" else sf.neg_blocks
            try:
                s, m, e = start_middle_end(TimeBlockSeries(polarity, list(blocks)))
            except AllAbsent:
                continue
            for name, value in zip(_WINDOWS, (s, m, e)):
                if value is not None:
                    windows[name].append(value)
        for name, vals in windows.items():
            if vals:
                feats[f"{polarity}_ratio_{name}"] = float(np.mean(vals))

    if physiology:
        walk_mean, walk_std = _mean_std([d.walk_ratio for d in physiology])
        sleep_mean, sleep_std = _mean_std([d.sleep_hours for d in physiology])
        feats["walk_ratio_mean"] = walk_mean
        feats["walk_ratio_std"] = walk_std
        feats["sleep_hours_mean"] = sleep_mean
        feats["sleep_hours_std"] = sleep_std

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
    for j in range(X.shape[1]):
        col = X[:, j]
        missing = np.isnan(col)
        if missing.any():
            fill = float(np.median(col[~missing])) if (~missing).any() else 0.0
            col[missing] = fill
    return X, list(FEATURE_COLUMNS), ids
