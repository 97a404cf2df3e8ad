"""The integer participant and shift keys of model.py, held to tuple oracles,
and the cohort filter that keys rows by them."""

from __future__ import annotations

from dataclasses import replace
from datetime import date

import numpy as np

from shifttalk.ingest import filter_min_days
from shifttalk.model import Cohort, participant_codes, shift_codes, shift_parts

from conftest import profile, recording, rssi_rows, with_recordings


def test_shift_codes_order_and_inverse_match_sorted_tuples():
    import hypothesis
    from hypothesis import strategies as st

    # ids differing only by a trailing NUL, non-ASCII characters and a quote
    ident = st.text(st.sampled_from(["a", "b", "\0", '"', "é", "☃", "𝄞"]), max_size=4)
    day = st.one_of(st.sampled_from([date(1, 1, 1), date(9999, 12, 31), date(2022, 3, 1)]), st.dates())

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(ident, unique=True, max_size=6), st.lists(st.tuples(ident, day), max_size=40))
    def check(profiles, rows) -> None:
        ids, days = [pid for pid, _ in rows], np.array([d for _, d in rows], "datetime64[D]")
        participant = participant_codes(profiles, ids)
        known = [pid in profiles for pid in ids]
        assert participant.dtype == np.int64 and len(participant) == len(ids)
        assert [code for code, k in zip(participant.tolist(), known) if not k] == [-1] * known.count(False)
        ranked = sorted(profiles)
        assert [ranked[code] for code, k in zip(participant.tolist(), known) if k] == [
            pid for pid, k in zip(ids, known) if k]

        keys, inverse = np.unique(shift_codes(participant, days), return_inverse=True)
        owners, key_days = shift_parts(keys)
        assert key_days.dtype == np.dtype("datetime64[D]")
        # an id without a profile keys as (-1, date): those keys sort first
        oracle = sorted({(pid, d) for pid, d in rows if pid in profiles})
        loose = sorted({d for pid, d in rows if pid not in profiles})
        assert owners.tolist() == [-1] * len(loose) + [ranked.index(pid) for pid, _ in oracle]
        assert key_days.tolist() == loose + [d for _, d in oracle]
        assert inverse.tolist() == [oracle.index((pid, d)) + len(loose) if pid in profiles else loose.index(d)
                                    for pid, d in rows]

    check()


def test_filter_min_days_drops_rows_of_an_id_without_a_profile():
    cohort = Cohort(profiles={"p1": profile("p1")}, rssi=rssi_rows(("ghost", 0, "h_ns", 160), ("p1", 1, "h_ns", 160)))
    cohort = with_recordings(cohort, [recording("ghost", minute=0, n_frames=2), recording("p1", minute=1, n_frames=3)])
    kept = filter_min_days(cohort, 1)
    assert kept.recordings.participant_id.tolist() == ["p1"] and len(kept.frames) == 3
    assert kept.rssi.participant_id.tolist() == ["p1"]
    assert list(kept.profiles) == ["p1"]
    # the same with every row's id known keeps every row
    known = replace(cohort, profiles={**cohort.profiles, "ghost": profile("ghost")})
    kept = filter_min_days(known, 1)
    assert kept.recordings is known.recordings and kept.rssi is known.rssi
