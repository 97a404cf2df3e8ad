"""End-to-end extraction: cohort -> timelines -> valid recordings -> sessions
-> arousal ratings -> per-shift features -> participant feature matrix.

Every layer runs over the whole cohort at once: over the columns of its
RecordingTable and of the one FrameBlock that holds every recording's frames
end to end. Each recording carries a shift code, its index in the sorted
(participant_id, shift_date) keys, and each layer groups by those codes
instead of looping over shifts, speakers or participants:

- Location timelines for every shift come from one pass over the cohort's
  RssiTable and are stacked as one (shifts, 720) array.
- Foreground filtering, validity, neutral pools, recording scores and fused
  ratings are array passes, one frame column at a time and over the kept
  frames of valid recordings only: per-recording counts come from cumsum
  differences, each speaker's pool is one sort, medians come from one
  ``np.median`` per distinct kept count (the same bits as one call per
  recording), and percentile scores from one ``searchsorted`` pair per
  speaker and feature. Neutral baselines are frozen per speaker before any
  of that speaker's recordings is scored (two-phase contract). A speaker
  never voiced stays unrated.
- Fusion weights come from one grouped Spearman pass over every speaker's
  score rows (stats.grouped_spearman: midranks from one lexsort by
  speaker and value, dot products from grouped sums, exact in float64). A
  speaker with too few recordings for Spearman-derived weights gets
  uniform weights.
- Sessions are runs of consecutive slots ``shift * 720 + minute`` of the
  valid recordings, after one ``np.unique``; their minutes per location
  category are one ``bincount`` over (session, category).
- Per-shift features (dominant category, gaps, >1-minute ratios, occurrence
  rates, pos/neg ratios overall, per location and per hour block) are
  grouped ``bincount`` sums over counts, so they equal the per-shift
  values bit for bit.
- Participant rows are grouped means and stds over the shift columns and
  the physiology rows, one ``np.mean``/``np.std`` per distinct count, then
  imputed by column median.

Sessions come out by (participant, date, start), rated rows by speaker,
then file order, and hour blocks by shift, each as a column table that
reports writes in one pass.
The functions ``filter_frames``, ``is_valid_recording``, ``build_neutral``,
``score_recording``, ``fusion_weights``, ``rate_recording``,
``build_sessions``, ``per_shift_features``, ``participant_vector`` and
``build_feature_matrix`` state the same rules one recording, speaker,
shift or participant at a time; they stay as references, and tests hold
the passes to them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .aggregate import (
    BlockTable,
    ShiftColumns,
    ShiftFeatures,
    block_table,
    cohort_feature_matrix,
    cohort_shift_features,
)
from .aggregate import (  # noqa: F401  references; perfbench traces them here
    build_feature_matrix,
    participant_vector,
    per_shift_features,
)
from .arousal import AROUSAL_THRESHOLD, FEATURE_NAMES, FusionWeights, RatedTable, fuse, speaker_fusion_weights
from .foreground import MIN_FOREGROUND_FRAMES, ForegroundFilter, cohort_mask
from .foreground import filter_frames, is_valid_recording  # noqa: F401  reference; perfbench traces them here
from .ingest import MIN_DAYS, filter_min_days, filter_shift_window
from .locate import RSSI_FLOOR, estimate_timeline
from .model import SHIFT_MINUTES, Cohort
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
    shifts: ShiftColumns  # a row per key of shift_keys
    shift_keys: list[tuple[str, date]]
    matrix: np.ndarray
    feature_names: list[str]
    participant_ids: list[str]
    dropped: dict[str, int]

    @property
    def shift_features(self) -> list[ShiftFeatures]:
        """One ShiftFeatures per shift, built on request."""
        return self.shifts.records(self.shift_keys)


def run_extraction(cohort: Cohort, config: ExtractionConfig | None = None) -> ExtractionResult:
    """Run the full feature-extraction pipeline on a parsed cohort.

    Returns an empty-cohort result (zero participants) if no participant
    survives the minimum-days filter; callers decide whether that is fatal.
    """
    config = config or ExtractionConfig()

    windowed, dropped = filter_shift_window(cohort)
    kept = filter_min_days(windowed, config.min_days)

    # each recording's shift: its index in the sorted (participant, date) keys
    pairs = list(zip(kept.recordings.participant_id.tolist(), kept.recordings.shift_date.tolist()))
    shift_keys = sorted(set(pairs))
    code = {key: i for i, key in enumerate(shift_keys)}
    shift = np.fromiter(map(code.__getitem__, pairs), np.int64, len(pairs))
    minute = kept.recordings.minute_index
    timelines = estimate_timeline(kept.rssi, kept.hubs, shift_keys, config.rssi_floor)
    slots = np.array([timelines[key].slots for key in shift_keys], np.uint8).reshape(-1, SHIFT_MINUTES)
    key_pids = np.array([pid for pid, _ in shift_keys], dtype=object)
    key_days = np.array([day for _, day in shift_keys], dtype="datetime64[D]")

    _, key_speaker = np.unique(key_pids, return_inverse=True)  # ranks participant ids as sorted() does
    valid, rated_rows, p, fused, weights_by_speaker = _rate_cohort(kept, key_speaker[shift], config)

    session_columns = cohort_sessions(shift[valid], minute[valid], slots)
    session_shift, start, duration, location_minutes = session_columns
    sessions = SessionTable(
        key_pids[session_shift], key_days[session_shift], start, duration,
        *(location_minutes[:, cat] for cat in SESSION_CATEGORIES),
    )
    rated_recs = valid[rated_rows]
    rated_shift, rated_minute = shift[rated_recs], minute[rated_recs]
    rated = RatedTable(key_pids[rated_shift], key_days[rated_shift], rated_minute, *p.T, fused)
    shift_columns = cohort_shift_features(
        len(shift_keys), slots, session_columns, (rated_shift, rated_minute, fused), config.arousal_threshold
    )
    matrix, names, ids = cohort_feature_matrix(kept.profiles, key_pids, shift_columns, kept.physiology)

    return ExtractionResult(
        cohort=kept,
        sessions=sessions,
        rated=rated,
        blocks=block_table(key_pids, key_days, shift_columns),
        weights=weights_by_speaker,
        shifts=shift_columns,
        shift_keys=shift_keys,
        matrix=matrix,
        feature_names=names,
        participant_ids=ids,
        dropped=dropped,
    )


def _rate_cohort(
    cohort: Cohort, speaker: np.ndarray, config: ExtractionConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict[str, FusionWeights]]:
    """Valid and rated recordings, their scores and per-speaker weights.

    ``speaker`` ranks each recording's participant id. Returns the valid
    recordings (rows of ``cohort.recordings``) in rated-row order, speaker
    then file order; which of them are rated (positions among the valid);
    the rated rows' feature scores ``p`` (rows, 3) and fused ratings; and
    each rated speaker's weights.
    """
    nothing = np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros((0, 3)), np.zeros(0), {}
    recordings = cohort.recordings
    keep = cohort_mask(recordings, cohort.frames, config.foreground)
    counts = _segment_counts(keep, recordings.n_frames)  # kept frames per recording
    order = np.argsort(speaker, kind="stable")
    valid = order[counts[order] >= config.min_frames]
    if not len(valid):
        return nothing
    # the kept frames of the valid recordings, in that order: each one's
    # run of counts from its first kept frame
    first = (np.cumsum(counts) - counts)[valid]
    counts = counts[valid]
    ends = np.cumsum(counts)
    kept = np.flatnonzero(keep)[np.arange(ends[-1]) + np.repeat(first - ends + counts, counts)]
    valid_speaker = speaker[valid]
    bounds = np.flatnonzero(np.diff(valid_speaker, prepend=-1, append=-1))

    # phase one freezes each speaker's pools, phase two places each
    # recording's medians in them; one frame column at a time
    p = np.empty((len(valid), 3))
    for j, name in enumerate(FEATURE_NAMES):
        values = getattr(cohort.frames, name)[kept]
        if name == "log_pitch":
            voiced = ~np.isnan(values)
            # a speaker never voiced has no pitch pool and stays unrated
            voiced_counts = _segment_counts(voiced, counts)
            p[:, j], voiced_speakers = _percentile_scores(values[voiced], voiced_counts, bounds)
        else:
            p[:, j], _ = _percentile_scores(values, counts, bounds)

    weights = speaker_fusion_weights(p, bounds)
    weights_by_speaker = {recordings.participant_id[valid[bounds[s]]]: weights[s]
                          for s in np.flatnonzero(voiced_speakers).tolist()}
    segment = np.repeat(np.arange(len(weights)), np.diff(bounds))  # each valid recording's speaker
    fused = fuse(np.array([wt.w for wt in weights])[segment].T, p.T)

    rows = np.flatnonzero(voiced_speakers[segment])
    return valid, rows, p[rows], fused[rows], weights_by_speaker


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
