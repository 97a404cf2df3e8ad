from __future__ import annotations

import math
from datetime import timedelta

import numpy as np
import pytest

from shifttalk.aggregate import ShiftFeatures, build_feature_matrix, participant_vector, per_shift_features
from shifttalk.arousal import (
    RatedRecording,
    build_neutral,
    fusion_weights,
    rate_recording,
    score_recording,
)
from shifttalk.errors import InsufficientData
from shifttalk.foreground import FilterKind, ForegroundFilter
from shifttalk.locate import LocationTimeline
from shifttalk.model import (
    SHIFT_MINUTES,
    Cohort,
    ColumnTable,
    FrameBlock,
    HubCategory,
    HubRecord,
    LocationCategory,
    PhysiologyTable,
    RecordingSegment,
)
from shifttalk.pipeline import ExtractionConfig, filter_frames, is_valid_recording, run_extraction
from shifttalk.sessions import SessionTable, build_sessions

import reference
from conftest import (D0, coded, decoded, listed_timelines, profile, recording, rssi_table, segments, tiny_cohort,
                      with_recordings)


@pytest.mark.parametrize("min_frames", [0, -1])
def test_config_rejects_min_frames_below_one(min_frames):
    with pytest.raises(ValueError, match="min_frames"):
        ExtractionConfig(min_frames=min_frames)


@pytest.mark.parametrize("min_days", [0, -1])
def test_config_rejects_min_days_below_one(min_days):
    with pytest.raises(ValueError, match="min_days must be at least 1"):
        ExtractionConfig(min_days=min_days)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, -0.1])
def test_config_rejects_an_arousal_threshold_that_is_not_finite_and_non_negative(threshold):
    with pytest.raises(ValueError, match="arousal_threshold must be finite and non-negative"):
        ExtractionConfig(arousal_threshold=threshold)


def test_config_accepts_a_zero_arousal_threshold():
    assert ExtractionConfig(arousal_threshold=0.0).arousal_threshold == 0.0


def test_config_accepts_one_frame():
    assert ExtractionConfig(min_frames=1).min_frames == 1


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


_CATEGORY_ORDER = (LocationCategory.NURSING_STATION, LocationCategory.PATIENT_ROOM,
                   LocationCategory.LOUNGE_MED, LocationCategory.OUTSIDE_UNIT)  # sessions.csv order


def _shift_feature_bits(sf: ShiftFeatures) -> tuple:
    """Every field of one ShiftFeatures, floats as bits and None kept."""
    def blocks(values):
        return [None if v is None else _bits(v) for v in values]

    return (sf.participant_id, sf.shift_date, sf.n_recordings, sf.n_sessions,
            {key: _bits(v) for key, v in sf.scalars.items()},
            blocks(sf.pos_blocks), blocks(sf.neg_blocks), [int(n) for n in sf.recordings_per_block])


def reference_extraction(cohort: Cohort, config: ExtractionConfig):
    """The per-recording, per-shift and per-participant chain: rated rows and
    weights as bits, session rows, every shift's features as bits, and the
    feature matrix as bits."""
    recordings = [r for r in segments(cohort) if 0 <= r.minute_index < SHIFT_MINUTES]
    valid_by_speaker: dict[str, list[RecordingSegment]] = {}
    for rec in recordings:
        fg = filter_frames(rec, config.foreground)
        if is_valid_recording(fg, config.min_frames):
            valid_by_speaker.setdefault(fg.participant_id, []).append(fg)
    rated, weights, rated_recordings = [], {}, []
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
            fused = rate_recording(p, w)
            rated.append((pid, rec.shift_date, rec.minute_index, _bits(p), _bits(fused)))
            rated_recordings.append(RatedRecording(pid, rec.shift_date, rec.minute_index, p, fused))
    valid = [r for recs in valid_by_speaker.values() for r in recs]
    keys = sorted({(r.participant_id, r.shift_date) for r in recordings})
    slots = listed_timelines(cohort.rssi, cohort.hubs, keys, config.rssi_floor, cohort.profiles)
    timelines = {key: LocationTimeline(*key, row) for key, row in zip(keys, slots)}
    sessions, features, by_pid = [], [], {}
    for key in keys:
        shift_sessions = build_sessions([r for r in valid if (r.participant_id, r.shift_date) == key],
                                        timelines[key])
        shift_rated = [r for r in rated_recordings if (r.participant_id, r.shift_date) == key]
        sessions.extend((s.participant_id, s.shift_date, s.start, s.duration_min,
                         *(s.location_minutes[c] for c in _CATEGORY_ORDER)) for s in shift_sessions)
        sf = per_shift_features(shift_sessions, shift_rated, timelines[key], config.arousal_threshold)
        features.append(_shift_feature_bits(sf))
        by_pid.setdefault(key[0], []).append(sf)
    owners = np.array(decoded(cohort.profiles, cohort.physiology.participant), object)
    vectors = [participant_vector(cohort.profiles[pid], by_pid[pid], cohort.physiology.select(owners == pid))
               for pid in sorted(by_pid)]  # min_days is 1: every participant with a shift
    matrix = _bits(build_feature_matrix(vectors)[0]) if vectors else []
    return rated, weights, sessions, features, matrix


def _drawn_cohorts(min_days: tuple[int, ...] = (1,)):
    """A hypothesis strategy of (cohort, config): up to four speakers, their
    recordings interleaved in the table, and config.min_days one of min_days."""
    from hypothesis import strategies as st

    # few distinct values so medians, pools and scores tie often
    value = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 3.0, 62.5])
    pitch = st.one_of(st.just(math.nan), st.sampled_from([-0.0, 0.0, 4.5, 4.7, 5.0]),
                      st.floats(4.0, 6.0))
    prob = st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0])
    # runs of consecutive minutes, the 60-minute block edges, the shift's
    # last minute and minutes outside the window
    minute = st.one_of(st.integers(0, 12), st.sampled_from([58, 59, 60, 61, 119, 120, 659, 660, 718, 719]),
                       st.sampled_from([-1, SHIFT_MINUTES]))
    hubs = {h.hub_id: h for h in (HubRecord("h_pat", HubCategory.PATIENT_ROOM),
                                  HubRecord("h_ns", HubCategory.NURSING_STATION),
                                  HubRecord("h_lounge", HubCategory.LOUNGE),
                                  HubRecord("h_med", HubCategory.MEDICINE_ROOM))}

    @st.composite
    def recordings(draw, pid: str, mute: bool):
        n = draw(st.integers(1, 9))

        def column(elements):
            return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=float)

        log_pitch = np.full(n, math.nan) if mute or draw(st.booleans()) and n < 4 else column(pitch)
        labels = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=n, max_size=n)))
        block = FrameBlock(log_pitch, column(value), column(value), column(prob),
                           np.ones(n, bool) if labels is None else np.array(labels, dtype=bool))
        day = D0 + timedelta(days=draw(st.integers(0, 2)))  # several shifts per participant
        return RecordingSegment(pid, day, draw(minute), block, labels is not None)

    @st.composite
    def rssi(draw, recs):
        """A few rows at or next to each recording's minute; rssi 140 is
        below the floor, and equal values across hubs tie. Some rows fall on
        a date after every recording's, a shift that is not extracted."""
        rows = []
        for rec in recs:
            for _ in range(draw(st.integers(0, 2))):
                rows.append((rec.participant_id, rec.shift_date,
                             rec.minute_index + draw(st.integers(0, 1)),
                             draw(st.sampled_from(sorted(hubs))), draw(st.sampled_from([140, 150, 160]))))
            if draw(st.integers(0, 3)) == 0:
                rows.append((rec.participant_id, D0 + timedelta(days=5), rec.minute_index, "h_ns", 160))
        return rows

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
        walk, sleep = st.sampled_from([0.0, 0.4, 1.0]), st.sampled_from([0.0, 7.5])
        days = draw(st.permutations([(code, D0, draw(walk), draw(sleep))  # physiology rows, interleaved
                                     for code in range(len(profiles)) for _ in range(draw(st.integers(0, 3)))]))
        config = ExtractionConfig(
            foreground=ForegroundFilter(draw(st.sampled_from(list(FilterKind))),
                                        draw(st.sampled_from([0.0, 0.5, 0.7]))),
            min_frames=draw(st.integers(1, 4)),
            min_days=draw(st.sampled_from(min_days)),
            arousal_threshold=draw(st.sampled_from([0.0, 0.25, 0.5])),
        )
        cohort = Cohort(profiles, hubs, rssi=rssi_table(draw(rssi(recs)), profiles, hubs),
                        physiology=PhysiologyTable(*zip(*days)))
        return with_recordings(cohort, recs), config

    return cohorts()


def _assert_matches_reference(cohort: Cohort, config: ExtractionConfig, run_on: Cohort | None = None) -> None:
    """run_extraction of run_on (the cohort itself by default), bit for bit
    the per-recording chain of the cohort."""
    rated, weights, sessions, features, matrix = reference_extraction(cohort, config)
    result = run_extraction(cohort if run_on is None else run_on, config)
    table = result.rated
    p = _bits(np.column_stack([table.p_pitch, table.p_intensity, table.p_hflf]))
    assert list(zip(table.participant_id.tolist(), table.shift_date.tolist(), table.minute_index.tolist(),
                    p, _bits(table.fused))) == rated
    assert {pid: (_bits(w.w), _bits(w.r), w.fallback) for pid, w in result.weights.items()} == weights
    assert list(zip(*(getattr(result.sessions, name).tolist() for name in SessionTable.columns()))) == sessions
    assert [_shift_feature_bits(sf) for sf in reference.shift_features(result, cohort.profiles)] == features
    assert _bits(result.matrix) == matrix


def test_run_extraction_matches_per_recording_chain():
    import hypothesis

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(_drawn_cohorts())
    def check(drawn) -> None:
        _assert_matches_reference(*drawn)

    check()


def test_run_extraction_of_a_written_cohort_matches_per_recording_chain(tmp_path, monkeypatch):
    """The cohort written to frames.bin, speakers interleaved, and parsed
    back: the pass over the file's map, walked in windows of 3 frames that
    cut across recordings, gives what the chain gives in memory."""
    import hypothesis

    from shifttalk import model
    from shifttalk.ingest import parse_cohort, write_cohort

    monkeypatch.setattr(model, "FRAME_WINDOW", 3)

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(_drawn_cohorts())
    def check(drawn) -> None:
        cohort, config = drawn
        write_cohort(cohort, tmp_path)
        _assert_matches_reference(cohort, config, run_on=parse_cohort(tmp_path))

    check()


def _without_drops(cohort: Cohort, min_days: int) -> tuple[Cohort, dict[str, int]]:
    """The cohort with the rows that the filters drop removed by hand, and the
    counts of the rows outside the shift window: the recordings and RSSI
    rows outside the window go, and so does every row and the profile of a
    participant whose recordings inside it fall on fewer than min_days
    dates. The kept participants are coded among themselves."""
    recs = [r for r in segments(cohort) if 0 <= r.minute_index < SHIFT_MINUTES]
    dates: dict[str, set] = {}
    for r in recs:
        dates.setdefault(r.participant_id, set()).add(r.shift_date)
    profiles = {pid: p for pid, p in cohort.profiles.items() if len(dates.get(pid, ())) >= min_days}
    rssi, physiology = cohort.rssi, cohort.physiology
    rows = list(zip(decoded(cohort.profiles, rssi.participant), rssi.shift_date.tolist(), rssi.minute_index.tolist(),
                    decoded(cohort.hubs, rssi.hub), rssi.rssi.tolist()))
    inside = [row for row in rows if 0 <= row[2] < SHIFT_MINUTES]
    days = [row for row in zip(decoded(cohort.profiles, physiology.participant), physiology.shift_date.tolist(),
                               physiology.walk_ratio.tolist(), physiology.sleep_hours.tolist()) if row[0] in profiles]
    pids, *columns = zip(*days) if days else ((),) * 4
    without = Cohort(profiles, cohort.hubs, rssi=rssi_table([row for row in inside if row[0] in profiles], profiles,
                                                            cohort.hubs),
                     physiology=PhysiologyTable(coded(profiles, pids), *columns))
    dropped = {"recordings_dropped": len(cohort.recordings) - len(recs), "rssi_dropped": len(rows) - len(inside)}
    return with_recordings(without, [r for r in recs if r.participant_id in profiles]), dropped


def _column_bits(table) -> dict[str, list]:
    """Each column's values, floats as bits."""
    columns = {name: getattr(table, name) for name in table.columns()}
    return {name: _bits(c) if c.dtype.kind == "f" else c.tolist() for name, c in columns.items()}


def test_run_extraction_of_a_cohort_with_drops_equals_that_of_the_cohort_without_them():
    """The filters' masks read the parsed cohort in place: with recordings and
    RSSI rows outside the shift window and participants under min_days (1,
    2 or 3), every output equals that of the cohort with those rows removed
    and its participants coded among the kept, bit for bit."""
    import hypothesis

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(_drawn_cohorts(min_days=(1, 2, 3)))
    def check(drawn) -> None:
        cohort, config = drawn
        without, dropped = _without_drops(cohort, config.min_days)
        got, want = run_extraction(cohort, config), run_extraction(without, config)
        for name in ("sessions", "rated", "blocks"):
            assert _column_bits(getattr(got, name)) == _column_bits(getattr(want, name)), name
        assert {pid: (_bits(w.w), _bits(w.r), w.fallback) for pid, w in got.weights.items()} == {
            pid: (_bits(w.w), _bits(w.r), w.fallback) for pid, w in want.weights.items()}
        assert [_shift_feature_bits(sf) for sf in reference.shift_features(got, cohort.profiles)] == [
            _shift_feature_bits(sf) for sf in reference.shift_features(want, without.profiles)]
        assert _bits(got.matrix) == _bits(want.matrix) and got.participant_ids == want.participant_ids
        assert got.dropped == dropped and want.dropped == {"recordings_dropped": 0, "rssi_dropped": 0}

    check()


def test_run_extraction_selects_the_recordings_only_when_one_drops_and_never_a_frame(monkeypatch):
    selected, original = [], ColumnTable.select

    def select(table, mask):
        selected.append(type(table).__name__)
        return original(table, mask)

    monkeypatch.setattr(ColumnTable, "select", select)
    cohort = tiny_cohort("p2")  # p2 has no recording
    run_extraction(cohort, ExtractionConfig(min_frames=1, min_days=2))
    assert selected == []
    late = with_recordings(cohort, [*segments(cohort), recording("p1", minute=SHIFT_MINUTES)])
    result = run_extraction(late, ExtractionConfig(min_frames=1, min_days=2))
    assert selected == ["RecordingTable"] and result.dropped["recordings_dropped"] == 1
    selected.clear()
    run_extraction(cohort, ExtractionConfig(min_frames=1, min_days=3))  # p1 has two dates
    assert selected == ["RecordingTable"]


def test_rating_pass_peaks_below_a_quarter_of_the_frame_bytes(tmp_path):
    """The arousal pass's temporaries span one speaker's frames, not the
    cohort's; tracemalloc counts numpy's allocations, so the peak repeats."""
    import tracemalloc

    from shifttalk.pipeline import _rate_cohort
    from shifttalk.simulate import CohortSpec, generate

    # the frames_heavy benchmark workload's shape: 12 speakers, ~1.5 k recordings of 400 frames
    cohort, _ = generate(CohortSpec(n_per_cell=3, n_shifts=1, frames_per_recording=400, seed=11), tmp_path)
    frame_bytes = sum(column.nbytes for column in vars(cohort.frames).values())
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        valid, *_ = _rate_cohort(cohort, np.ones(len(cohort.recordings), bool),
                                 ExtractionConfig(min_frames=100, min_days=1))
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert len(valid) > 1000
    assert peak < 0.25 * frame_bytes


def test_no_object_per_recording_from_simulate_to_write(tmp_path, monkeypatch):
    from shifttalk.ingest import parse_cohort, write_cohort
    from shifttalk.simulate import CohortSpec, generate

    built = {FrameBlock: 0, RecordingSegment: 0}
    for cls in built:
        def counted(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
            built[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    def run(n_per_cell: int) -> tuple[int, int, dict]:
        before = dict(built)
        root = tmp_path / str(n_per_cell)
        generate(CohortSpec(n_per_cell=n_per_cell, n_shifts=2, frames_per_recording=4, seed=5), root / "data")
        cohort = parse_cohort(root / "data")
        result = run_extraction(cohort, ExtractionConfig(min_frames=2, min_days=2))
        write_cohort(cohort, root / "again")
        shifts = len(set(zip(cohort.recordings.participant.tolist(), cohort.recordings.shift_date.tolist())))
        return len(cohort.recordings), shifts, {cls.__name__: built[cls] - before[cls] for cls in built}

    (few, few_shifts, few_built), (many, many_shifts, many_built) = run(1), run(3)
    assert many - few > 2 * (many_shifts - few_shifts) > 0
    # the simulator draws each shift's frames as one FrameBlock; nothing is built per recording
    assert many_built == {"FrameBlock": few_built["FrameBlock"] + many_shifts - few_shifts,
                          "RecordingSegment": few_built["RecordingSegment"]}
