"""End-to-end extraction: cohort -> timelines -> valid recordings -> sessions
-> arousal ratings -> per-shift features -> participant feature matrix.

Location timelines for every shift come from one pass over the cohort's
RssiTable. Neutral arousal baselines are frozen per speaker before any
recording of that speaker is scored (two-phase contract). Speakers whose
baselines cannot be built (no voiced frame anywhere) stay unrated; speakers
with too few recordings for Spearman-derived weights get uniform fusion
weights.

Foreground filtering, validity, neutral pools, recording scores and fused
ratings are computed for the whole cohort in array passes, one frame column
at a time and over kept frames only: per-recording counts come from cumsum
differences, each speaker's pool is one sort, medians come from one
``np.median`` per distinct kept count (the same bits as one call per
recording), and percentile scores from one ``searchsorted`` pair per speaker
and feature. Rated rows are ordered by speaker id, then file order. The
per-recording functions ``filter_frames``, ``is_valid_recording``,
``build_neutral``, ``score_recording``, ``fusion_weights`` and
``rate_recording`` state the same rules one recording at a time; tests hold
the pass to them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import date
from operator import attrgetter

import numpy as np

from . import arousal as arousal_mod
from .aggregate import (
    FEATURE_COLUMNS,
    ParticipantFeatureVector,
    ShiftFeatures,
    build_feature_matrix,
    participant_vector,
    per_shift_features,
)
from .arousal import AROUSAL_THRESHOLD, FEATURE_NAMES, FusionWeights, RatedRecording, fuse
from .foreground import MIN_FOREGROUND_FRAMES, ForegroundFilter, cohort_mask
from .foreground import filter_frames, is_valid_recording  # noqa: F401  reference; perfbench traces them here
from .ingest import MIN_DAYS, filter_min_days, filter_shift_window
from .locate import RSSI_FLOOR, LocationTimeline, estimate_timeline
from .model import Cohort, RecordingSegment
from .sessions import SpeechSession, build_sessions


@dataclass
class ExtractionConfig:
    foreground: ForegroundFilter = field(default_factory=ForegroundFilter)
    min_frames: int = MIN_FOREGROUND_FRAMES
    min_days: int = MIN_DAYS
    rssi_floor: int = RSSI_FLOOR
    arousal_threshold: float = AROUSAL_THRESHOLD

    def __post_init__(self) -> None:
        if self.min_frames < 1:
            raise ValueError(f"min_frames must be at least 1, got {self.min_frames}")
        if self.min_days < 1:
            raise ValueError(f"min_days must be at least 1, got {self.min_days}")


@dataclass
class ExtractionResult:
    cohort: Cohort
    timelines: dict[tuple[str, date], LocationTimeline]
    sessions: list[SpeechSession]
    rated: list[RatedRecording]
    weights: dict[str, FusionWeights]
    shift_features: list[ShiftFeatures]
    vectors: list[ParticipantFeatureVector]
    matrix: np.ndarray
    feature_names: list[str]
    participant_ids: list[str]
    dropped: dict[str, int]


def run_extraction(cohort: Cohort, config: ExtractionConfig | None = None) -> ExtractionResult:
    """Run the full feature-extraction pipeline on a parsed cohort.

    Returns an empty-cohort result (zero participants) if no participant
    survives the minimum-days filter; callers decide whether that is fatal.
    """
    config = config or ExtractionConfig()

    recordings, rssi, dropped = filter_shift_window(cohort.recordings, cohort.rssi)
    kept = filter_min_days(replace(cohort, recordings=recordings, rssi=rssi), config.min_days)

    shift_keys = sorted({(r.participant_id, r.shift_date) for r in kept.recordings})
    timelines = estimate_timeline(kept.rssi, kept.hubs, shift_keys, config.rssi_floor)

    valid, rated, weights_by_speaker = _rate_cohort(kept.recordings, config)
    valid_by_shift: dict[tuple[str, date], list[RecordingSegment]] = {k: [] for k in shift_keys}
    for rec in valid:
        valid_by_shift[(rec.participant_id, rec.shift_date)].append(rec)
    rated_by_shift: dict[tuple[str, date], list[RatedRecording]] = {k: [] for k in shift_keys}
    for rr in rated:
        rated_by_shift[(rr.participant_id, rr.shift_date)].append(rr)

    # sessions and per-shift features
    all_sessions: list[SpeechSession] = []
    shift_features: list[ShiftFeatures] = []
    for key in shift_keys:
        timeline = timelines[key]
        sessions = build_sessions(valid_by_shift[key], timeline)
        all_sessions.extend(sessions)
        shift_features.append(
            per_shift_features(sessions, rated_by_shift[key], timeline, config.arousal_threshold)
        )

    # participant vectors and matrix
    by_pid: dict[str, list[ShiftFeatures]] = {}
    for sf in shift_features:
        by_pid.setdefault(sf.participant_id, []).append(sf)
    physiology_by_pid: dict[str, list] = {}
    for row in kept.physiology:
        physiology_by_pid.setdefault(row.participant_id, []).append(row)
    vectors = [
        participant_vector(kept.profiles[pid], by_pid.get(pid, []), physiology_by_pid.get(pid, []))
        for pid in kept.participant_ids()
    ]
    if vectors:
        matrix, names, ids = build_feature_matrix(vectors)
    else:
        matrix, names, ids = np.empty((0, len(FEATURE_COLUMNS))), list(FEATURE_COLUMNS), []

    return ExtractionResult(
        cohort=kept,
        timelines=timelines,
        sessions=all_sessions,
        rated=rated,
        weights=weights_by_speaker,
        shift_features=shift_features,
        vectors=vectors,
        matrix=matrix,
        feature_names=names,
        participant_ids=ids,
        dropped=dropped,
    )


def _rate_cohort(
    recordings: list[RecordingSegment], config: ExtractionConfig
) -> tuple[list[RecordingSegment], list[RatedRecording], dict[str, FusionWeights]]:
    """Valid recordings, rated recordings and per-speaker weights.

    Both lists follow the rated-row order: speaker id, then file order.
    """
    recs = sorted(recordings, key=attrgetter("participant_id"))
    if not recs:
        return [], [], {}
    lengths = np.array([len(r.frames) for r in recs])
    keep = cohort_mask([r.frames for r in recs], config.foreground)
    counts = _segment_counts(keep, lengths)
    is_valid = counts >= config.min_frames
    valid = [r for r, ok in zip(recs, is_valid.tolist()) if ok]
    if not valid:
        return [], [], {}
    keep = keep[np.repeat(is_valid, lengths)]  # over the valid recordings' frames only
    counts = counts[is_valid]
    pids = [r.participant_id for r in valid]
    bounds = np.array([i for i in range(len(pids)) if i == 0 or pids[i] != pids[i - 1]] + [len(pids)])

    # phase one freezes each speaker's pools, phase two places each
    # recording's medians in them; one frame column at a time
    p = np.empty((len(valid), 3))
    for j, name in enumerate(FEATURE_NAMES):
        values = np.concatenate([getattr(r.frames, name) for r in valid])[keep]
        if name == "log_pitch":
            voiced = ~np.isnan(values)
            # a speaker never voiced has no pitch pool and stays unrated
            voiced_counts = _segment_counts(voiced, counts)
            p[:, j], voiced_speakers = _percentile_scores(values[voiced], voiced_counts, bounds)
        else:
            p[:, j], _ = _percentile_scores(values, counts, bounds)

    weights_by_speaker: dict[str, FusionWeights] = {}
    w = np.zeros((len(valid), 3))
    for s in np.flatnonzero(voiced_speakers).tolist():
        r0, r1 = bounds[s], bounds[s + 1]
        weights = arousal_mod.fusion_weights(p[r0:r1])
        weights_by_speaker[pids[r0]] = weights
        w[r0:r1] = weights.w
    fused = fuse(w.T, p.T)

    rows = np.flatnonzero(np.repeat(voiced_speakers, np.diff(bounds)))
    rated = [
        RatedRecording(valid[i].participant_id, valid[i].shift_date, valid[i].minute_index, tuple(pi), fi)
        for i, pi, fi in zip(rows.tolist(), p[rows].tolist(), fused[rows].tolist())
    ]
    return valid, rated, weights_by_speaker


def _segment_counts(flags: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Number of true flags in each consecutive segment of the given lengths."""
    running = np.concatenate(([0], np.cumsum(flags)))
    return np.diff(running[np.concatenate(([0], np.cumsum(lengths)))])


def _percentile_scores(
    values: np.ndarray, counts: np.ndarray, bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``percentile_score`` of each recording's median in its speaker's pool.

    ``values`` holds each recording's kept values back to back (``counts``
    per recording) and speaker ``s`` owns recordings
    ``bounds[s]:bounds[s + 1]``; the pool is all of that speaker's values.
    Returns the scores (0.0 for a recording with no value) and which
    speakers have a non-empty pool.
    """
    starts = np.concatenate(([0], np.cumsum(counts)))
    medians = np.zeros(len(counts))
    for c in np.unique(counts[counts > 0]).tolist():
        rows = np.flatnonzero(counts == c)
        medians[rows] = np.median(values[starts[rows, None] + np.arange(c)], axis=1)
    scores = np.zeros(len(counts))
    has_pool = np.zeros(len(bounds) - 1, dtype=bool)
    for s, (r0, r1) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        pool = np.sort(values[starts[r0]:starts[r1]])
        if len(pool) == 0:
            continue
        has_pool[s] = True
        below = np.searchsorted(pool, medians[r0:r1], side="left")
        below_or_equal = np.searchsorted(pool, medians[r0:r1], side="right")
        scores[r0:r1] = 2.0 * ((below + 0.5 * (below_or_equal - below)) / len(pool)) - 1.0
    scores[counts == 0] = 0.0
    return scores, has_pool
