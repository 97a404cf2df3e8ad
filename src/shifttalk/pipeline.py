"""End-to-end extraction: cohort -> timelines -> valid recordings -> sessions
-> arousal ratings -> per-shift features -> participant feature matrix.

Every layer but the arousal pass runs over the whole cohort at once: over
the columns of its RecordingTable and of the one FrameBlock that holds every
recording's frames end to end. Each recording, RSSI and physiology row
carries its participant's code from the parse on, and a recording or RSSI
row so its shift's index among the sorted shift codes (model.shift_codes);
each layer groups by those integers instead of looping over shifts or
participants, and the arousal pass loops over speakers:

- Location timelines for every shift come from one pass over the cohort's
  RssiTable, as one (shifts, 720) array.
- Foreground filtering is one mask over the cohort's frames, walked a
  window of frames at a time (foreground.cohort_mask). Validity, neutral
  pools and recording scores are array passes over one speaker's frames at
  a time, so that no temporary spans more frames than one speaker's. When
  the frames are views of a map of frames.bin (ingest), the pages read are
  released after each window and each speaker (model.release), so the
  frames resident at once are one window's or one speaker's. The
  speaker's kept-frame counts come from one ``np.add.reduceat``. For each feature, one ``argsort`` gives the pool,
  and one sort of ``recording * len(pool) + position`` lists each
  recording's values in order: its median is the middle value, or the mean
  of the two middle values as ``np.median`` takes it. Percentile scores
  come from one ``searchsorted`` pair. Neutral baselines are frozen per
  speaker before any of that speaker's recordings is scored (two-phase
  contract). A speaker never voiced stays unrated.
- Fusion weights come from one grouped Spearman pass over every speaker's
  score rows (stats.grouped_spearman: midranks from one lexsort by
  speaker and value, dot products from grouped sums, exact in float64). A
  speaker with too few recordings for Spearman-derived weights gets
  uniform weights.
- Sessions are runs of consecutive slots ``shift * 720 + minute`` of the
  valid recordings, after one sort (model.distinct); their minutes per
  location category are one ``bincount`` over (session, category).
- Per-shift features (dominant category, gaps, >1-minute ratios, occurrence
  rates, pos/neg ratios overall, per location and per hour block) are
  grouped ``bincount`` sums over counts, so they equal the per-shift
  values bit for bit.
- Participant rows are grouped means and stds over the shift columns and
  the physiology rows, both grouped by participant code, one
  ``np.mean``/``np.std`` per distinct count, then imputed by column median.

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

import numpy as np

from .aggregate import (
    BlockTable,
    ShiftColumns,
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
from .errors import BadParameter
from .foreground import MIN_FOREGROUND_FRAMES, ForegroundFilter, cohort_mask
from .foreground import filter_frames, is_valid_recording  # noqa: F401  reference; perfbench traces them here
from .ingest import MIN_DAYS, filter_min_days, filter_shift_window
from .locate import RSSI_FLOOR, estimate_timeline
from .model import Cohort, release, shift_codes, shift_parts
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
        for name in ("min_frames", "min_days"):
            if getattr(self, name) < 1:
                raise BadParameter(name, getattr(self, name), "at least 1")
        if not 0.0 <= self.arousal_threshold < np.inf:
            raise BadParameter("arousal_threshold", self.arousal_threshold, "finite and non-negative")


@dataclass
class ExtractionResult:
    cohort: Cohort
    sessions: SessionTable
    rated: RatedTable
    blocks: BlockTable
    weights: dict[str, FusionWeights]
    shifts: ShiftColumns  # a row per key of shift_keys
    shift_keys: np.ndarray  # the sorted shift codes (model.shift_codes)
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

    windowed, dropped = filter_shift_window(cohort)
    kept = filter_min_days(windowed, config.min_days)

    # each recording's and RSSI row's shift: its index in the sorted shift codes
    shift_keys, shift = np.unique(shift_codes(kept.recordings.participant, kept.recordings.shift_date),
                                  return_inverse=True)
    slots = estimate_timeline(kept.rssi, _rssi_shifts(kept, shift_keys), len(shift_keys), kept.hubs, config.rssi_floor)
    key_speaker, key_days = shift_parts(shift_keys)
    key_pids = np.array(sorted(kept.profiles), dtype=object)[key_speaker]
    minute = kept.recordings.minute_index

    valid, rated_rows, p, fused, weights_by_speaker = _rate_cohort(kept, config)

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
    matrix, names, ids = cohort_feature_matrix(kept.profiles, key_speaker, shift_columns, kept.physiology)

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


def _rssi_shifts(kept: Cohort, shift_keys: np.ndarray) -> np.ndarray:
    """Each RSSI row's shift: its index in the sorted shift codes, or -1.
    Its temporaries, each as long as the table, are dropped on return."""
    codes = shift_codes(kept.rssi.participant, kept.rssi.shift_date)
    at = np.searchsorted(shift_keys, codes)
    return np.where(np.append(shift_keys, -1)[at] == codes, at, -1)  # -1 is no shift's code


def _rate_cohort(
    cohort: Cohort, config: ExtractionConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict[str, FusionWeights]]:
    """Valid and rated recordings, their scores and per-speaker weights.

    Returns the valid
    recordings (rows of ``cohort.recordings``) in rated-row order, speaker
    then file order; which of them are rated (positions among the valid);
    the rated rows' feature scores ``p`` (rows, 3) and fused ratings; and
    each rated speaker's weights.
    """
    recordings, speaker = cohort.recordings, cohort.recordings.participant
    keep = cohort_mask(recordings, cohort.frames, config.foreground)
    first = np.cumsum(recordings.n_frames) - recordings.n_frames  # each recording's first frame
    order = np.argsort(speaker, kind="stable")
    by_speaker = np.flatnonzero(np.diff(speaker[order], prepend=-1, append=-1))

    # one speaker at a time, so that no temporary spans more than one
    # speaker's frames: phase one freezes the speaker's pools, phase two
    # places each of its recordings' medians in them
    valid, scores, voiced_speakers = [], [], []
    for a, b in zip(by_speaker[:-1].tolist(), by_speaker[1:].tolist()):
        recs = order[a:b]
        n = recordings.n_frames[recs]
        ends = np.cumsum(n)
        # the speaker's frames, recording by recording, then its kept frames
        frames = np.repeat(first[recs] - ends + n, n) + np.arange(ends[-1])
        kept = keep[frames]
        counts = np.add.reduceat(kept, ends - n, dtype=np.int64)
        ok = counts >= config.min_frames
        if not ok.any():
            continue
        kept &= np.repeat(ok, n)
        frames = frames[kept]
        recs, counts = recs[ok], counts[ok]
        recording = np.repeat(np.arange(len(recs)), counts)
        p = np.empty((len(recs), 3))
        for j, name in enumerate(FEATURE_NAMES):
            values, owner = getattr(cohort.frames, name)[frames], recording
            if name == "log_pitch":  # voiced frames only; a speaker never voiced stays unrated
                voiced = ~np.isnan(values)
                values, owner = values[voiced], recording[voiced]
                voiced_speakers.append(len(values) > 0)
            p[:, j] = _percentile_scores(values, owner, len(recs))
        valid.append(recs)
        scores.append(p)
        release(*(getattr(cohort.frames, name) for name in FEATURE_NAMES))  # the pages of this speaker's frames
    if not valid:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros((0, 3)), np.zeros(0), {}
    valid, p, voiced_speakers = np.concatenate(valid), np.concatenate(scores), np.array(voiced_speakers)
    bounds = np.flatnonzero(np.diff(speaker[valid], prepend=-1, append=-1))

    weights = speaker_fusion_weights(p, bounds)
    ids = sorted(cohort.profiles)
    weights_by_speaker = {ids[speaker[valid[bounds[s]]]]: weights[s] for s in np.flatnonzero(voiced_speakers).tolist()}
    segment = np.repeat(np.arange(len(weights)), np.diff(bounds))  # each valid recording's speaker
    fused = fuse(np.array([wt.w for wt in weights])[segment].T, p.T)

    rows = np.flatnonzero(voiced_speakers[segment])
    return valid, rows, p[rows], fused[rows], weights_by_speaker


def _percentile_scores(values: np.ndarray, recording: np.ndarray, n: int) -> np.ndarray:
    """``percentile_score`` of each of ``n`` recordings' median in one
    speaker's pool, all of ``values``; ``recording`` gives each value's
    recording. A recording with no value scores 0.0.

    One sort of ``recording * len(pool) + position`` lists each recording's
    values in pool order, so its median is its middle value, or the mean of
    its two middle values as ``np.median`` takes it.
    """
    scores = np.zeros(n)
    if not len(values):
        return scores
    order = np.argsort(values)
    pool = values[order]
    m = len(pool)
    by_recording = pool[np.sort(recording[order] * m + np.arange(m)) % m]
    sizes = np.bincount(recording, minlength=n)
    has = np.flatnonzero(sizes)
    start = (np.cumsum(sizes) - sizes)[has]
    half = sizes[has] // 2
    medians = by_recording[start + half]
    even = np.flatnonzero(sizes[has] % 2 == 0)
    medians[even] = (by_recording[start[even] + half[even] - 1] + medians[even]) / 2
    below = np.searchsorted(pool, medians, side="left")
    below_or_equal = np.searchsorted(pool, medians, side="right")
    scores[has] = 2.0 * ((below + 0.5 * (below_or_equal - below)) / m) - 1.0
    return scores
