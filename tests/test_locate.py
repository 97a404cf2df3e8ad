from __future__ import annotations

from datetime import date, timedelta

import numpy as np
import pytest

from shifttalk.locate import RSSI_FLOOR, LocationTimeline, empty_timeline
from shifttalk.model import HUB_TO_LOCATION, SHIFT_MINUTES, LocationCategory, RssiTable

from conftest import D0, listed_timelines, rssi_rows, rssi_table


def one_shift(hubs, *rows: tuple[str, int, str, int]):
    """The timeline of shift (p1, D0) from (pid, minute, hub, rssi) rows."""
    return LocationTimeline("p1", D0, listed_timelines(rssi_rows(*rows, hubs=hubs), hubs, [("p1", D0)])[0])


def test_max_rssi_hub_wins_across_hubs(hub_table):
    # two hubs hear the same minute at 154 and 162; the stronger one decides
    timeline = one_shift(hub_table, ("p1", 10, "h_ns", 154), ("p1", 10, "h_pat", 162))
    assert timeline.category(10) is LocationCategory.PATIENT_ROOM


def test_below_floor_observation_dropped(hub_table):
    timeline = one_shift(hub_table, ("p1", 5, "h_ns", 149))
    assert timeline.category(5) is LocationCategory.OUTSIDE_UNIT


def test_at_floor_observation_kept(hub_table):
    timeline = one_shift(hub_table, ("p1", 5, "h_ns", 150))
    assert timeline.category(5) is LocationCategory.NURSING_STATION


def test_minute_without_observations_is_outside(hub_table):
    timeline = one_shift(hub_table, ("p1", 5, "h_ns", 160))
    assert timeline.category(17) is LocationCategory.OUTSIDE_UNIT


def test_lounge_and_medicine_room_merge(hub_table):
    timeline = one_shift(hub_table, ("p1", 1, "h_lounge", 160), ("p1", 2, "h_med", 160))
    assert timeline.category(1) is LocationCategory.LOUNGE_MED
    assert timeline.category(2) is LocationCategory.LOUNGE_MED


def test_rssi_tie_resolves_by_category_precedence(hub_table):
    # patient room beats nursing station beats lounge+med on exact ties
    timeline = one_shift(hub_table, ("p1", 3, "h_ns", 160), ("p1", 3, "h_pat", 160), ("p1", 3, "h_med", 160))
    assert timeline.category(3) is LocationCategory.PATIENT_ROOM
    timeline = one_shift(hub_table, ("p1", 4, "h_med", 171), ("p1", 4, "h_ns", 171))
    assert timeline.category(4) is LocationCategory.NURSING_STATION


def test_empty_timeline_is_all_outside():
    timeline = empty_timeline("p1", D0)
    assert all(timeline.category(m) is LocationCategory.OUTSIDE_UNIT for m in range(0, 720, 37))


def test_rows_of_other_shifts_never_leak(hub_table):
    # each listed shift sees only its own rows; a shift without rows is all
    # outside, and rows of an unlisted shift are ignored
    d1 = date(2022, 3, 9)
    profiles = ("p1", "p2", "p3")
    table = rssi_table([("p1", D0, 0, "h_ns", 160), ("p1", d1, 1, "h_pat", 160), ("p2", D0, 2, "h_med", 160),
                        ("p3", D0, 3, "h_pat", 160)], profiles, hub_table)
    shifts = [("p2", D0), ("p1", d1), ("p1", D0), ("p9", D0)]
    slots_of = listed_timelines(table, hub_table, shifts, profiles=profiles)
    assert slots_of.shape == (len(shifts), SHIFT_MINUTES) and slots_of.dtype == np.uint8
    outside = int(LocationCategory.OUTSIDE_UNIT)
    expected = {
        ("p1", D0): {0: LocationCategory.NURSING_STATION},
        ("p1", d1): {1: LocationCategory.PATIENT_ROOM},
        ("p2", D0): {2: LocationCategory.LOUNGE_MED},
        ("p9", D0): {},
    }
    for key, occupied in expected.items():
        slots = np.full(SHIFT_MINUTES, outside)
        for minute, cat in occupied.items():
            slots[minute] = int(cat)
        np.testing.assert_array_equal(slots_of[shifts.index(key)], slots)


def test_empty_table_and_no_shifts(hub_table):
    assert listed_timelines(RssiTable(), hub_table, []).shape == (0, SHIFT_MINUTES)
    timeline = one_shift(hub_table)
    assert (timeline.slots == int(LocationCategory.OUTSIDE_UNIT)).all()


def test_raising_one_observation_dominates(hub_table):
    rng = np.random.default_rng(11)
    hubs = list(hub_table)
    for _ in range(50):
        minute = int(rng.integers(0, SHIFT_MINUTES))
        rows = [(hubs[int(rng.integers(len(hubs)))], int(rng.integers(150, 190))) for _ in range(5)]
        chosen = int(rng.integers(5))
        boosted = [("p1", minute, hub, 193 if i == chosen else min(rssi, 180)) for i, (hub, rssi) in enumerate(rows)]
        timeline = one_shift(hub_table, *boosted)
        expected = HUB_TO_LOCATION[hub_table[rows[chosen][0]].location_category]
        assert timeline.category(minute) is expected


def test_observation_order_never_matters(hub_table):
    rng = np.random.default_rng(7)
    hubs = list(hub_table)
    rows = [
        ("p1", int(rng.integers(0, 30)), hubs[int(rng.integers(len(hubs)))], int(rng.integers(136, 194)))
        for _ in range(60)
    ]
    baseline = one_shift(hub_table, *rows)
    for _ in range(10):
        shuffled = [rows[i] for i in rng.permutation(len(rows))]
        np.testing.assert_array_equal(one_shift(hub_table, *shuffled).slots, baseline.slots)


def test_no_outside_when_all_observations_strong(hub_table):
    rng = np.random.default_rng(3)
    hubs = list(hub_table)
    rows = [("p1", minute, hubs[int(rng.integers(len(hubs)))], int(rng.integers(150, 194))) for minute in range(100)]
    timeline = one_shift(hub_table, *rows)
    assert all(timeline.category(m) is not LocationCategory.OUTSIDE_UNIT for m in range(100))


def oracle_timeline(rows, hubs, floor: int) -> np.ndarray:
    """Per minute: the maximum RSSI at or above the floor, then the lowest category."""
    slots = np.full(SHIFT_MINUTES, int(LocationCategory.OUTSIDE_UNIT), dtype=np.uint8)
    for minute in range(SHIFT_MINUTES):
        heard = [(rssi, int(HUB_TO_LOCATION[hubs[hub].location_category]))
                 for m, hub, rssi in rows if m == minute and rssi >= floor]
        if heard:
            top = max(rssi for rssi, _ in heard)
            slots[minute] = min(cat for rssi, cat in heard if rssi == top)
    return slots


def test_estimate_timeline_matches_brute_force_oracle(hub_table):
    import hypothesis
    from hypothesis import strategies as st

    shift_keys = [(pid, D0 + timedelta(days=d)) for pid in ("p1", "p2") for d in range(2)]
    # few distinct minutes and values so ties and repeats are common; some
    # minutes fall outside [0, 720) and some values below the floor
    row = st.tuples(
        st.sampled_from(shift_keys),
        st.one_of(st.sampled_from([-1, 0, 1, 2, 719, 720]), st.integers(-5, 730)),
        st.sampled_from(sorted(hub_table)),
        st.one_of(st.sampled_from([RSSI_FLOOR - 1, RSSI_FLOOR, 160, 193]), st.integers(136, 193)),
    )

    @hypothesis.settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(row, max_size=40), st.lists(st.sampled_from(shift_keys), unique=True),
                      st.sampled_from([RSSI_FLOOR, 136, 170]))
    def check(rows, shifts, floor) -> None:
        table = rssi_table([(pid, day, m, hub, rssi) for (pid, day), m, hub, rssi in rows], ("p1", "p2"), hub_table)
        slots = listed_timelines(table, hub_table, shifts, floor, ("p1", "p2"))
        assert slots.shape == (len(shifts), SHIFT_MINUTES)
        for key, got in zip(shifts, slots):
            own = [(m, hub, rssi) for k, m, hub, rssi in rows if k == key]
            np.testing.assert_array_equal(got, oracle_timeline(own, hub_table, floor))

    check()
