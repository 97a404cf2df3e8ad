"""End-to-end extraction: cohort -> timelines -> valid recordings -> sessions
-> arousal ratings -> per-shift features -> participant feature matrix.

Every layer runs over the whole cohort at once. Each recording carries a
shift code, its index in the sorted (participant_id, shift_date) keys, and
each layer groups by those codes instead of looping over shifts:

- Location timelines for every shift come from one pass over the cohort's
  RssiTable and are stacked as one (shifts, 720) array.
- Foreground filtering, validity, neutral pools, recording scores and fused
  ratings are array passes, one frame column at a time and over kept frames
  only: per-recording counts come from cumsum differences, each speaker's
  pool is one sort, medians come from one ``np.median`` per distinct kept
  count (the same bits as one call per recording), and percentile scores
  from one ``searchsorted`` pair per speaker and feature. Neutral baselines
  are frozen per speaker before any of that speaker's recordings is scored
  (two-phase contract). A speaker never voiced stays unrated; a speaker
  with too few recordings for Spearman-derived weights gets uniform weights.
- Sessions are runs of consecutive slots ``shift * 720 + minute`` of the
  valid recordings, after one ``np.unique``; their minutes per location
  category are one ``bincount`` over (session, category).
- Per-shift features (dominant category, gaps, >1-minute ratios, occurrence
  rates, pos/neg ratios overall, per location and per hour block) are
  grouped ``bincount`` sums over counts, so they equal the per-shift
  values bit for bit.

Sessions come out by (participant, date, start), rated rows by speaker,
then file order, and hour blocks by shift, each as a column table that
reports writes in one pass.
The functions ``filter_frames``, ``is_valid_recording``, ``build_neutral``,
``score_recording``, ``fusion_weights``, ``rate_recording``,
``build_sessions`` and ``per_shift_features`` state the same rules one
recording or one shift at a time; tests hold the passes to them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import arousal as arousal_mod
from .aggregate import (
    FEATURE_COLUMNS,
    BlockTable,
    ShiftFeatures,
    block_table,
    build_feature_matrix,
    cohort_shift_features,
    participant_vector,
)
from .aggregate import per_shift_features  # noqa: F401  reference; perfbench traces it here
from .arousal import AROUSAL_THRESHOLD, FEATURE_NAMES, FusionWeights, RatedTable, fuse
from .foreground import MIN_FOREGROUND_FRAMES, ForegroundFilter, cohort_mask
from .foreground import filter_frames, is_valid_recording  # noqa: F401  reference; perfbench traces them here
from .ingest import MIN_DAYS, filter_min_days, filter_shift_window
from .locate import RSSI_FLOOR, estimate_timeline
from .model import SHIFT_MINUTES, Cohort, RecordingSegment
from .sessions import SESSION_CATEGORIES, SessionTable, cohort_sessions
from .sessions import build_sessions  # noqa: F401  reference; perfbench traces it here


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
    sessions: SessionTable
    rated: RatedTable
    blocks: BlockTable
    weights: dict[str, FusionWeights]
    shift_features: list[ShiftFeatures]
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

    # each recording's shift: its index in the sorted (participant, date) keys
    pairs = [(r.participant_id, r.shift_date) for r in kept.recordings]
    shift_keys = sorted(set(pairs))
    code = {key: i for i, key in enumerate(shift_keys)}
    shift = np.fromiter(map(code.__getitem__, pairs), np.int64, len(pairs))
    minute = np.fromiter((r.minute_index for r in kept.recordings), np.int64, len(pairs))
    timelines = estimate_timeline(kept.rssi, kept.hubs, shift_keys, config.rssi_floor)
    slots = np.array([timelines[key].slots for key in shift_keys], np.uint8).reshape(-1, SHIFT_MINUTES)
    key_pids = np.array([pid for pid, _ in shift_keys], dtype=object)
    key_days = np.array([day for _, day in shift_keys], dtype="datetime64[D]")

    _, key_speaker = np.unique(key_pids, return_inverse=True)  # ranks participant ids as sorted() does
    valid, rated_rows, p, fused, weights_by_speaker = _rate_cohort(kept.recordings, key_speaker[shift], config)

    session_columns = cohort_sessions(shift[valid], minute[valid], slots)
    session_shift, start, duration, location_minutes = session_columns
    sessions = SessionTable(
        key_pids[session_shift], key_days[session_shift], start, duration,
        *(location_minutes[:, cat] for cat in SESSION_CATEGORIES),
    )
    rated_recs = valid[rated_rows]
    rated_shift, rated_minute = shift[rated_recs], minute[rated_recs]
    rated = RatedTable(key_pids[rated_shift], key_days[rated_shift], rated_minute, *p.T, fused)
    shift_features = cohort_shift_features(
        shift_keys, slots, session_columns, (rated_shift, rated_minute, fused), config.arousal_threshold
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
        sessions=sessions,
        rated=rated,
        blocks=block_table(shift_features),
        weights=weights_by_speaker,
        shift_features=shift_features,
        matrix=matrix,
        feature_names=names,
        participant_ids=ids,
        dropped=dropped,
    )


def _rate_cohort(
    recordings: list[RecordingSegment], speaker: np.ndarray, config: ExtractionConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict[str, FusionWeights]]:
    """Valid and rated recordings, their scores and per-speaker weights.

    ``speaker`` ranks each recording's participant id. Returns the valid
    recordings (indices into ``recordings``) in rated-row order, speaker
    then file order; which of them are rated (positions among the valid);
    the rated rows' feature scores ``p`` (rows, 3) and fused ratings; and
    each rated speaker's weights.
    """
    nothing = np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros((0, 3)), np.zeros(0), {}
    order = np.argsort(speaker, kind="stable")
    recs = [recordings[i] for i in order.tolist()]
    if not recs:
        return nothing
    lengths = np.array([len(r.frames) for r in recs])
    keep = cohort_mask([r.frames for r in recs], config.foreground)
    counts = _segment_counts(keep, lengths)
    is_valid = counts >= config.min_frames
    valid = [r for r, ok in zip(recs, is_valid.tolist()) if ok]
    if not valid:
        return nothing
    keep = keep[np.repeat(is_valid, lengths)]  # over the valid recordings' frames only
    counts = counts[is_valid]
    valid_speaker = speaker[order[is_valid]]
    bounds = np.flatnonzero(np.diff(valid_speaker, prepend=-1, append=-1))

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
        weights_by_speaker[valid[r0].participant_id] = weights
        w[r0:r1] = weights.w
    fused = fuse(w.T, p.T)

    rows = np.flatnonzero(np.repeat(voiced_speakers, np.diff(bounds)))
    return order[is_valid], rows, p[rows], fused[rows], weights_by_speaker


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
