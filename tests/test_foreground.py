from __future__ import annotations

import numpy as np

from shifttalk.foreground import FilterKind, ForegroundFilter, filter_frames, is_valid_recording
from shifttalk.model import FrameBlock, RecordingSegment

from conftest import D0, frames, recording


def block(probs: list[float], foreground: list[bool] | None = None) -> RecordingSegment:
    n = len(probs)
    fb = FrameBlock(
        log_pitch=np.full(n, 4.7),
        intensity=np.full(n, 60.0),
        hf_lf_ratio=np.full(n, 0.8),
        foreground_prob=np.asarray(probs, dtype=float),
        foreground=np.ones(n, bool) if foreground is None else np.asarray(foreground),
    )
    return RecordingSegment("p1", D0, 0, fb, foreground is not None)


def test_all_foreground_kept_unchanged():
    rec = block([1.0, 1.0, 1.0])
    out = filter_frames(rec, ForegroundFilter())
    assert len(out.frames) == 3
    np.testing.assert_array_equal(out.frames.foreground_prob, rec.frames.foreground_prob)


def test_all_background_removed():
    out = filter_frames(block([0.0, 0.0]), ForegroundFilter())
    assert len(out.frames) == 0


def test_threshold_is_inclusive_at_boundary():
    out = filter_frames(block([0.4, 0.6, 0.5]), ForegroundFilter(threshold=0.5))
    np.testing.assert_array_equal(out.frames.foreground_prob, [0.6, 0.5])


def test_mixed_probs_keep_one():
    out = filter_frames(block([0.4, 0.6]), ForegroundFilter(threshold=0.5))
    assert len(out.frames) == 1
    assert out.frames.foreground_prob[0] == 0.6


def test_filtering_is_a_projection():
    rec = block([0.1, 0.9, 0.5, 0.3])
    f = ForegroundFilter(threshold=0.5)
    once = filter_frames(rec, f)
    twice = filter_frames(once, f)
    np.testing.assert_array_equal(once.frames.foreground_prob, twice.frames.foreground_prob)


def test_frame_count_never_grows():
    rng = np.random.default_rng(5)
    for _ in range(20):
        rec = block(list(rng.random(int(rng.integers(0, 30)))))
        out = filter_frames(rec, ForegroundFilter(threshold=float(rng.random())))
        assert len(out.frames) <= len(rec.frames)


def test_order_preserved():
    rec = block([0.9, 0.1, 0.8, 0.2, 0.7])
    out = filter_frames(rec, ForegroundFilter(threshold=0.5))
    np.testing.assert_array_equal(out.frames.foreground_prob, [0.9, 0.8, 0.7])


def test_external_scores_used_when_present():
    rec = block([0.1, 0.1, 0.9], foreground=[True, True, False])
    out = filter_frames(rec, ForegroundFilter(kind=FilterKind.EXTERNAL_SCORES))
    np.testing.assert_array_equal(out.frames.foreground_prob, [0.1, 0.1])


def test_external_scores_falls_back_to_threshold():
    rec = block([0.1, 0.9])
    out = filter_frames(rec, ForegroundFilter(kind=FilterKind.EXTERNAL_SCORES, threshold=0.5))
    np.testing.assert_array_equal(out.frames.foreground_prob, [0.9])


def test_validity_boundary_inclusive():
    assert is_valid_recording(recording(n_frames=200))
    assert not is_valid_recording(recording(n_frames=199))
    assert not is_valid_recording(recording(n_frames=0))


def test_validity_monotone_in_min_frames():
    rec = recording(n_frames=57)
    valid_at = [k for k in range(1, 100) if is_valid_recording(rec, min_frames=k)]
    assert valid_at == list(range(1, 58))
