"""End-to-end extraction: cohort -> timelines -> valid recordings -> sessions
-> arousal ratings -> per-shift features -> participant feature matrix.

Neutral arousal baselines are frozen per speaker before any recording of
that speaker is scored (two-phase contract). Speakers whose baselines
cannot be built (no voiced frame anywhere) or who have too few recordings
for Spearman-derived weights fall back gracefully: the former stay unrated,
the latter use uniform fusion weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date

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
from .arousal import AROUSAL_THRESHOLD, FusionWeights, RatedRecording
from .errors import InsufficientData, TooFewRecordings
from .foreground import MIN_FOREGROUND_FRAMES, ForegroundFilter, filter_frames, is_valid_recording
from .ingest import MIN_DAYS, filter_min_days, filter_shift_window
from .locate import RSSI_FLOOR, LocationTimeline, empty_timeline, estimate_timeline
from .model import Cohort, RecordingSegment
from .sessions import SpeechSession, build_sessions


@dataclass
class ExtractionConfig:
    foreground: ForegroundFilter = field(default_factory=ForegroundFilter)
    min_frames: int = MIN_FOREGROUND_FRAMES
    min_days: int = MIN_DAYS
    rssi_floor: int = RSSI_FLOOR
    arousal_threshold: float = AROUSAL_THRESHOLD


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

    recordings, rssi, dropped = filter_shift_window(cohort.recordings, cohort.rssi, cohort.profiles)
    windowed = Cohort(
        profiles=cohort.profiles,
        hubs=cohort.hubs,
        recordings=recordings,
        rssi=rssi,
        physiology=cohort.physiology,
        warnings=cohort.warnings,
    )
    kept = filter_min_days(windowed, config.min_days)

    # per-(participant, shift) location timelines
    rssi_by_shift: dict[tuple[str, date], list] = {}
    for obs in kept.rssi:
        rssi_by_shift.setdefault((obs.participant_id, obs.shift_date), []).append(obs)
    shift_keys = sorted({(r.participant_id, r.shift_date) for r in kept.recordings})
    timelines: dict[tuple[str, date], LocationTimeline] = {}
    for key in shift_keys:
        obs = rssi_by_shift.get(key, [])
        if obs:
            timelines[key] = estimate_timeline(obs, kept.hubs, config.rssi_floor)
        else:
            timelines[key] = empty_timeline(*key)

    # foreground filtering and validity
    valid_by_shift: dict[tuple[str, date], list[RecordingSegment]] = {k: [] for k in shift_keys}
    valid_by_speaker: dict[str, list[RecordingSegment]] = {}
    for rec in kept.recordings:
        fg = filter_frames(rec, config.foreground)
        if is_valid_recording(fg, config.min_frames):
            valid_by_shift[(fg.participant_id, fg.shift_date)].append(fg)
            valid_by_speaker.setdefault(fg.participant_id, []).append(fg)

    # phase one: freeze per-speaker neutral pools; phase two: score
    rated_by_shift: dict[tuple[str, date], list[RatedRecording]] = {k: [] for k in shift_keys}
    rated: list[RatedRecording] = []
    weights_by_speaker: dict[str, FusionWeights] = {}
    for pid in sorted(valid_by_speaker):
        recs = valid_by_speaker[pid]
        try:
            model = arousal_mod.build_neutral([r.frames for r in recs])
        except InsufficientData:
            continue  # speaker never voiced: leave all recordings unrated
        triples = [arousal_mod.score_recording(r.frames, model) for r in recs]
        try:
            weights = arousal_mod.fusion_weights(triples)
        except TooFewRecordings:
            w = 1.0 / np.sqrt(3.0)
            weights = FusionWeights((w, w, w), (0.0, 0.0, 0.0), fallback=True)
        weights_by_speaker[pid] = weights
        for rec, p in zip(recs, triples):
            fused = arousal_mod.rate_recording(p, weights)
            rr = RatedRecording(rec.participant_id, rec.shift_date, rec.minute_index, p, fused)
            rated.append(rr)
            rated_by_shift[(rec.participant_id, rec.shift_date)].append(rr)

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
