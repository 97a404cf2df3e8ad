from __future__ import annotations

import math
from datetime import timedelta

import numpy as np
import pytest

from shifttalk.arousal import (
    build_neutral,
    fusion_weights,
    rate_recording,
    score_recording,
)
from shifttalk.errors import InsufficientData
from shifttalk.foreground import FilterKind, ForegroundFilter
from shifttalk.locate import empty_timeline
from shifttalk.model import Cohort, FrameBlock, RecordingSegment, RssiTable
from shifttalk.pipeline import ExtractionConfig, filter_frames, is_valid_recording, run_extraction
from shifttalk.sessions import build_sessions

from conftest import D0, profile


@pytest.mark.parametrize("min_frames", [0, -1])
def test_config_rejects_min_frames_below_one(min_frames):
    with pytest.raises(ValueError, match="min_frames"):
        ExtractionConfig(min_frames=min_frames)


@pytest.mark.parametrize("min_days", [0, -1])
def test_config_rejects_min_days_below_one(min_days):
    with pytest.raises(ValueError, match="min_days must be at least 1"):
        ExtractionConfig(min_days=min_days)


def test_config_accepts_one_frame():
    assert ExtractionConfig(min_frames=1).min_frames == 1


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def reference_extraction(cohort: Cohort, config: ExtractionConfig):
    """The per-recording chain: rated rows, weights and sessions, as bits."""
    valid_by_speaker: dict[str, list[RecordingSegment]] = {}
    for rec in cohort.recordings:
        fg = filter_frames(rec, config.foreground)
        if is_valid_recording(fg, config.min_frames):
            valid_by_speaker.setdefault(fg.participant_id, []).append(fg)
    rated, weights = [], {}
    for pid in sorted(valid_by_speaker):
        recs = valid_by_speaker[pid]
        try:
            model = build_neutral([r.frames for r in recs])
        except InsufficientData:
            continue
        triples = [score_recording(r.frames, model) for r in recs]
        w = fusion_weights(triples)
        weights[pid] = (_bits(w.w), _bits(w.r), w.fallback)
        for rec, p in zip(recs, triples):
            rated.append((pid, rec.shift_date, rec.minute_index, _bits(p), _bits(rate_recording(p, w))))
    valid = [r for recs in valid_by_speaker.values() for r in recs]
    sessions = []
    for key in sorted({(r.participant_id, r.shift_date) for r in cohort.recordings}):
        shift = [r for r in valid if (r.participant_id, r.shift_date) == key]
        sessions.extend(build_sessions(shift, empty_timeline(*key)))
    return rated, weights, sessions


def test_run_extraction_matches_per_recording_chain():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # few distinct values so medians, pools and scores tie often
    value = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 3.0, 62.5])
    pitch = st.one_of(st.just(math.nan), st.sampled_from([-0.0, 0.0, 4.5, 4.7, 5.0]),
                      st.floats(4.0, 6.0))
    prob = st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0])

    @st.composite
    def recordings(draw, pid: str, mute: bool):
        n = draw(st.integers(1, 9))

        def column(elements):
            return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=float)

        log_pitch = np.full(n, math.nan) if mute or draw(st.booleans()) and n < 4 else column(pitch)
        labels = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=n, max_size=n)))
        block = FrameBlock(log_pitch, column(value), column(value), column(prob),
                           None if labels is None else np.array(labels, dtype=bool))
        day = D0 + timedelta(days=draw(st.integers(0, 1)))
        return RecordingSegment(pid, day, draw(st.integers(0, 12)), block)

    @st.composite
    def cohorts(draw):
        recs = []
        for k in range(draw(st.integers(1, 4))):
            mute = draw(st.integers(0, 5)) == 0  # a speaker who never voices
            n_recs = draw(st.integers(1, 6))  # one recording: fallback weights
            recs.extend(draw(recordings(f"p{k}", mute)) for _ in range(n_recs))
        order = draw(st.permutations(range(len(recs))))  # interleave speakers in the file
        recs = [recs[i] for i in order]
        profiles = {r.participant_id: profile(r.participant_id) for r in recs}
        config = ExtractionConfig(
            foreground=ForegroundFilter(draw(st.sampled_from(list(FilterKind))),
                                        draw(st.sampled_from([0.0, 0.5, 0.7]))),
            min_frames=draw(st.integers(1, 4)),
            min_days=1,
        )
        return Cohort(profiles, {}, recs, RssiTable(), []), config

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cohorts())
    def check(drawn) -> None:
        cohort, config = drawn
        rated, weights, sessions = reference_extraction(cohort, config)
        result = run_extraction(cohort, config)
        got = [(r.participant_id, r.shift_date, r.minute_index, _bits(r.p), _bits(r.fused))
               for r in result.rated]
        assert got == rated
        assert {pid: (_bits(w.w), _bits(w.r), w.fallback) for pid, w in result.weights.items()} == weights
        assert result.sessions == sessions

    check()
