"""The integer shift keys of model.py, held to a tuple oracle, and the cohort
filter that renumbers the participant codes of the rows it keeps."""

from __future__ import annotations

from dataclasses import replace
from datetime import date

import numpy as np

from shifttalk.ingest import parse_cohort, write_cohort
from shifttalk.model import shift_codes, shift_parts
from shifttalk.pipeline import ExtractionConfig, run_extraction
from shifttalk.simulate import CohortSpec, generate

from conftest import assert_cohorts_equal, coded, decoded


def test_shift_codes_order_and_inverse_match_sorted_tuples():
    import hypothesis
    from hypothesis import strategies as st

    # ids differing only by a trailing NUL, non-ASCII characters and a quote
    ident = st.text(st.sampled_from(["a", "b", "\0", '"', "é", "☃", "𝄞"]), max_size=4)
    day = st.one_of(st.sampled_from([date(1, 1, 1), date(9999, 12, 31), date(2022, 3, 1)]), st.dates())

    @st.composite
    def cohorts(draw):
        profiles = draw(st.lists(ident, unique=True, max_size=6))
        rows = st.lists(st.tuples(st.sampled_from(profiles), day), max_size=40) if profiles else st.just([])
        return profiles, draw(rows)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cohorts())
    def check(drawn) -> None:
        profiles, rows = drawn
        days = np.array([d for _, d in rows], "datetime64[D]")
        keys, inverse = np.unique(shift_codes(coded(profiles, [pid for pid, _ in rows]), days), return_inverse=True)
        owners, key_days = shift_parts(keys)
        assert key_days.dtype == np.dtype("datetime64[D]")
        oracle = sorted(set(rows))
        assert owners.tolist() == [sorted(profiles).index(pid) for pid, _ in oracle]
        assert key_days.tolist() == [d for _, d in oracle]
        assert inverse.tolist() == [oracle.index(row) for row in rows]

    check()


def test_dropping_a_participant_between_two_kept_ones_renumbers_the_codes(tmp_path):
    """filter_min_days drops p002, whose id sorts between p001 and p003, for
    its one shift date; every output of run_extraction, and the kept cohort,
    equals that of the same cohort written without p002. The kept rows of
    each table, physiology's among them, name p003 and p004 by codes one lower."""
    generate(CohortSpec(n_per_cell=1, n_shifts=2, frames_per_recording=40, seed=4), tmp_path / "all")
    cohort = parse_cohort(tmp_path / "all")
    ids = sorted(cohort.profiles)
    assert ids == ["p001", "p002", "p003", "p004"]
    recordings, rssi, physiology = cohort.recordings, cohort.rssi, cohort.physiology
    code = ids.index("p002")

    # p002 keeps the recordings of its first date only: too few dates for min_days=2
    late = (recordings.participant == code) & (recordings.shift_date > recordings.shift_date.min())
    one_date = replace(cohort, recordings=recordings.select(~late),
                       frames=cohort.frames.select(np.repeat(~late, recordings.n_frames)))

    # the cohort without p002, its later codes one lower, as written and read again
    mine = recordings.participant == code
    kept_recordings, kept_rssi = recordings.select(~mine), rssi.select(rssi.participant != code)
    kept_physiology = physiology.select(physiology.participant != code)
    for table in (kept_recordings, kept_rssi, kept_physiology):
        table.participant = table.participant - (table.participant > code)
    without = replace(cohort, profiles={pid: p for pid, p in cohort.profiles.items() if pid != "p002"},
                      recordings=kept_recordings, frames=cohort.frames.select(np.repeat(~mine, recordings.n_frames)),
                      rssi=kept_rssi, physiology=kept_physiology)
    write_cohort(without, tmp_path / "without")

    config = ExtractionConfig(min_frames=6, min_days=2)
    got, want = run_extraction(one_date, config), run_extraction(parse_cohort(tmp_path / "without"), config)
    assert "p002" not in got.cohort.profiles and got.participant_ids == ["p001", "p003", "p004"]
    assert sorted(set(got.cohort.physiology.participant.tolist())) == [0, 1, 2]
    assert decoded(got.cohort.profiles, got.cohort.physiology.participant) == [
        pid for pid in decoded(ids, physiology.participant) if pid != "p002"]
    assert_cohorts_equal(got.cohort, want.cohort)
    for name in ("sessions", "rated", "blocks"):
        a, b = getattr(got, name), getattr(want, name)
        for column in a.columns():
            assert getattr(a, column).tolist() == getattr(b, column).tolist(), (name, column)
    assert got.weights == want.weights and got.shift_keys.tolist() == want.shift_keys.tolist()
    assert got.matrix.tobytes() == want.matrix.tobytes() and got.feature_names == want.feature_names
    assert got.dropped == want.dropped
