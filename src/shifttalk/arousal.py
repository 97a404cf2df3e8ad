"""Rule-based vocal arousal rating against per-speaker neutral baselines.

Per speaker, all foreground frames are pooled into one neutral model per
feature (log-pitch over voiced frames only; intensity and HF/LF ratio over
all foreground frames). A recording is scored per feature by where its
median sits in the speaker's pool, mapped to [-1, 1]:

    score = 2 * E[x > pool] - 1,   ties counting one half

The three feature scores are fused with weights proportional to each score
vector's Spearman correlation with the per-recording mean score vector,
normalized to unit length. Recordings with fused rating above +0.25 count
as positive-arousal speech, below -0.25 as negative-arousal speech.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date

import numpy as np

from .errors import ConstantInput, EmptyInput, EmptyPool, InsufficientData
from .model import ColumnTable, FrameBlock
from .stats import spearman_rho

AROUSAL_THRESHOLD = 0.25
FEATURE_NAMES = ("log_pitch", "intensity", "hf_lf_ratio")


@dataclass
class NeutralModel:
    """Per-speaker sorted frame pools, one per feature."""

    log_pitch: np.ndarray
    intensity: np.ndarray
    hf_lf_ratio: np.ndarray


@dataclass(frozen=True)
class FusionWeights:
    w: tuple[float, float, float]
    r: tuple[float, float, float]
    fallback: bool = False


# Uniform unit-length weights, used when Spearman weights are unavailable.
UNIFORM_WEIGHTS = FusionWeights((1.0 / math.sqrt(3.0),) * 3, (0.0, 0.0, 0.0), fallback=True)


@dataclass(frozen=True)
class RatedRecording:
    participant_id: str
    shift_date: date
    minute_index: int
    p: tuple[float, float, float]  # per-feature percentile scores
    fused: float


@dataclass(eq=False)
class RatedTable(ColumnTable):
    """Rated recordings as columns, by speaker, then file order: arousal.csv's rows."""

    participant_id: np.ndarray = ()  # object
    shift_date: np.ndarray = ()  # datetime64[D]
    minute_index: np.ndarray = ()  # int64
    p_pitch: np.ndarray = ()  # float64 percentile scores, one column per feature
    p_intensity: np.ndarray = ()
    p_hflf: np.ndarray = ()
    fused: np.ndarray = ()  # float64

    DTYPES = (object, "datetime64[D]", np.int64) + (np.float64,) * 4


def build_neutral(speaker_frames: list[FrameBlock]) -> NeutralModel:
    """Pool all of one speaker's foreground frames into sorted baselines.

    The log-pitch pool keeps voiced frames only; a speaker with no voiced
    frame (or no frames at all) has no usable baseline for that feature.
    """
    if speaker_frames:
        pitch = np.concatenate([fb.log_pitch for fb in speaker_frames])
        pitch = pitch[~np.isnan(pitch)]
        intensity = np.concatenate([fb.intensity for fb in speaker_frames])
        hf_lf = np.concatenate([fb.hf_lf_ratio for fb in speaker_frames])
    else:
        pitch = intensity = hf_lf = np.empty(0)
    if len(intensity) == 0:
        raise InsufficientData("intensity")
    if len(pitch) == 0:
        raise InsufficientData("log_pitch")
    return NeutralModel(np.sort(pitch), np.sort(intensity), np.sort(hf_lf))


def percentile_score(x: float, pool: np.ndarray) -> float:
    """Mid-rank position of x in the sorted pool, mapped to [-1, 1]."""
    if len(pool) == 0:
        raise EmptyPool("empty neutral pool")
    below = int(np.searchsorted(pool, x, side="left"))
    below_or_equal = int(np.searchsorted(pool, x, side="right"))
    e = (below + 0.5 * (below_or_equal - below)) / len(pool)
    return 2.0 * e - 1.0


def score_recording(frames: FrameBlock, model: NeutralModel) -> tuple[float, float, float]:
    """Per-feature percentile scores for one foreground-filtered recording.

    Feature medians are taken over the recording's foreground frames, with
    log-pitch restricted to voiced frames; a recording with no voiced frame
    scores neutral (0.0) on pitch.
    """
    if len(frames) == 0:
        raise EmptyInput("recording has no foreground frames")
    voiced = frames.log_pitch[~np.isnan(frames.log_pitch)]
    if len(voiced) == 0:
        p_pitch = 0.0
    else:
        p_pitch = percentile_score(float(np.median(voiced)), model.log_pitch)
    p_int = percentile_score(float(np.median(frames.intensity)), model.intensity)
    p_hf = percentile_score(float(np.median(frames.hf_lf_ratio)), model.hf_lf_ratio)
    return (p_pitch, p_int, p_hf)


def fusion_weights(scores: list[tuple[float, float, float]]) -> FusionWeights:
    """Spearman-derived fusion weights for one speaker's score triples.

    Each feature's score vector is correlated with the per-recording mean
    score vector; a constant vector contributes 0. If every correlation is
    0, or there are fewer than two recordings, the weights fall back to the
    uniform unit vector.
    """
    if len(scores) < 2:
        return UNIFORM_WEIGHTS
    p = np.asarray(scores, dtype=float)  # shape (n_recordings, 3)
    p_mu = p.mean(axis=1)
    r = []
    for i in range(3):
        try:
            r.append(spearman_rho(p[:, i], p_mu))
        except ConstantInput:
            r.append(0.0)
    norm = math.sqrt(sum(v * v for v in r))
    if norm == 0.0:
        return replace(UNIFORM_WEIGHTS, r=tuple(r))
    return FusionWeights(tuple(v / norm for v in r), tuple(r), fallback=False)


def fuse(w, p):
    """Weighted sum of the three feature scores, added left to right.

    Works on floats and, elementwise, on arrays. The fixed order matches
    Python 3.11's ``sum`` bit for bit (``-0.0`` included, which becomes
    ``0.0``); ``sum`` itself uses compensated addition from Python 3.12 on.
    """
    return ((0.0 + w[0] * p[0]) + w[1] * p[1]) + w[2] * p[2]


def rate_recording(score_triple: tuple[float, float, float], weights: FusionWeights) -> float:
    """Fused arousal rating: weighted sum of the three feature scores."""
    return float(fuse(weights.w, score_triple))


def arousal_flags(fused: np.ndarray, threshold: float = AROUSAL_THRESHOLD) -> tuple[np.ndarray, np.ndarray]:
    """(positive, negative) masks of fused ratings: strictly above +threshold
    counts positive, strictly below -threshold counts negative."""
    return fused > threshold, fused < -threshold


def arousal_ratios(
    rated: list[RatedRecording],
    threshold: float = AROUSAL_THRESHOLD,
) -> tuple[float, float]:
    """(positive, negative) arousal speech ratios over the rated recordings."""
    if not rated:
        raise EmptyInput("no rated recordings")
    pos, neg = arousal_flags(np.array([r.fused for r in rated]), threshold)
    return float(pos.mean()), float(neg.mean())
