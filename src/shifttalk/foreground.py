"""Foreground-speech filtering: keep only frames that are the wearer's own voice.

The deep foreground classifier that produced the original labels is replaced
by a pluggable per-frame predicate. The default baseline thresholds the
ingested foreground probability; ExternalScores mode trusts the boolean
frame label of a recording that carries labels (labelled) and falls back to
the threshold for the frames of one that does not. ForegroundFilter.mask
holds that rule for the per-recording reference (filter_frames) and for the
rating pass, which applies it to one speaker's frames at a time
(pipeline._rate_cohort).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import BadParameter
from .model import FrameBlock, RecordingSegment

MIN_FOREGROUND_FRAMES = 200  # ~10% of a 20 s capture at 10 ms hop


class FilterKind(str, Enum):
    THRESHOLD_BASELINE = "threshold"
    EXTERNAL_SCORES = "external"


@dataclass(frozen=True)
class ForegroundFilter:
    """frame -> bool predicate deciding whether a frame is the wearer's speech."""

    kind: FilterKind = FilterKind.THRESHOLD_BASELINE
    threshold: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise BadParameter("threshold", self.threshold, "in [0, 1]")

    def mask(self, frames: FrameBlock, at: np.ndarray | slice, labelled: np.ndarray | bool) -> np.ndarray:
        """Boolean keep-mask over the frames ``at`` of the block: a frame is
        kept when its foreground_prob reaches the threshold, except that
        under EXTERNAL_SCORES a frame of a labelled recording (``labelled``,
        one flag per frame or one for all) keeps its foreground label. The
        labels are read only under EXTERNAL_SCORES."""
        keep = frames.foreground_prob[at] >= self.threshold
        if self.kind is FilterKind.EXTERNAL_SCORES:
            keep = np.where(labelled, frames.foreground[at], keep)
        return keep


def filter_frames(recording: RecordingSegment, f: ForegroundFilter) -> RecordingSegment:
    """New recording holding only foreground frames, order preserved."""
    keep = f.mask(recording.frames, slice(None), recording.labelled)
    return replace(recording, frames=recording.frames.select(keep))


def is_valid_recording(recording: RecordingSegment, min_frames: int = MIN_FOREGROUND_FRAMES) -> bool:
    """True iff the (already foreground-filtered) recording has enough frames."""
    return len(recording.frames) >= min_frames
