"""Foreground-speech filtering: keep only frames that are the wearer's own voice.

The deep foreground classifier that produced the original labels is replaced
by a pluggable per-frame predicate. The default baseline thresholds the
ingested foreground probability; ExternalScores mode trusts a precomputed
boolean frame label where the input carried one and falls back to the
threshold for frames without it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import BadParameter
from .model import FrameBlock, RecordingSegment, RecordingTable, frame_windows, mapped, release, window_repeat

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

    def mask(self, frames: FrameBlock) -> np.ndarray:
        """Boolean keep-mask over the block's frames."""
        by_threshold = frames.foreground_prob >= self.threshold
        if self.kind is FilterKind.EXTERNAL_SCORES and frames.foreground is not None:
            return frames.foreground.copy()
        return by_threshold


def cohort_mask(recordings: RecordingTable, frames: FrameBlock, f: ForegroundFilter) -> np.ndarray:
    """Keep-mask over a cohort's frames (``frames``, end to end for the rows
    of ``recordings``): ``f.mask``'s rule for every recording at once, so
    under EXTERNAL_SCORES a labelled recording keeps its own labels. The
    frames are walked a window at a time (model.frame_windows), the pages
    of a mapped frames.bin released after each (model.release)."""
    keep = mapped(len(frames), bool)
    external = f.kind is FilterKind.EXTERNAL_SCORES and recordings.labelled.any()
    ends = np.cumsum(recordings.n_frames)
    for window in frame_windows(len(frames)):
        np.greater_equal(frames.foreground_prob[window], f.threshold, out=keep[window])
        if external:
            labelled = window_repeat(recordings.labelled, ends, window)
            keep[window][labelled] = frames.foreground[window][labelled]
        release(frames.foreground_prob)
    return keep


def filter_frames(recording: RecordingSegment, f: ForegroundFilter) -> RecordingSegment:
    """New recording holding only foreground frames, order preserved."""
    keep = f.mask(recording.frames)
    return replace(recording, frames=recording.frames.select(keep))


def is_valid_recording(recording: RecordingSegment, min_frames: int = MIN_FOREGROUND_FRAMES) -> bool:
    """True iff the (already foreground-filtered) recording has enough frames."""
    return len(recording.frames) >= min_frames
