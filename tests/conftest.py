from __future__ import annotations

import os
from dataclasses import replace
from datetime import date
from typing import Iterable

import numpy as np
import pytest

from shifttalk.locate import RSSI_FLOOR, estimate_timeline
from shifttalk.model import (
    Cohort,
    FrameBlock,
    HubCategory,
    HubRecord,
    ParticipantProfile,
    PhysiologyTable,
    RecordingSegment,
    RecordingTable,
    RssiTable,
    ShiftType,
    UnitType,
)

D0 = date(2022, 3, 1)
_INT64 = np.iinfo(np.int64)


@pytest.fixture(autouse=True)
def no_child_left_unreaped():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process was left {'running' if pid == 0 else f'unreaped (pid {pid})'}")


def frames(
    n: int,
    foreground_prob: float = 1.0,
    log_pitch: float = 4.7,
    intensity: float = 60.0,
    hf_lf: float = 0.8,
    foreground: list[bool] | None = None,
) -> FrameBlock:
    """n equal frames; with no foreground labels given, every label byte is 1."""
    return FrameBlock(
        log_pitch=np.full(n, log_pitch),
        intensity=np.full(n, intensity),
        hf_lf_ratio=np.full(n, hf_lf),
        foreground_prob=np.full(n, foreground_prob),
        foreground=np.ones(n, bool) if foreground is None else np.asarray(foreground, dtype=bool),
    )


def recording(pid: str = "p1", minute: int = 0, n_frames: int = 5, shift_date: date = D0, **kw) -> RecordingSegment:
    """A recording of frames(n_frames, **kw), labelled when given foreground labels."""
    return RecordingSegment(pid, shift_date, minute, frames(n_frames, **kw), kw.get("foreground") is not None)


def with_recordings(cohort: Cohort, recordings: list[RecordingSegment]) -> Cohort:
    """The cohort with these per-recording segments as its recording table,
    each participant_id coded among the cohort's profiles, and frames (a
    minute beyond 64 bits becomes the nearest 64-bit value, as in the parse).
    An unlabelled recording's label bytes are 1, which no pass may use."""
    table = RecordingTable(
        coded(cohort.profiles, [r.participant_id for r in recordings]), [r.shift_date for r in recordings],
        [min(max(r.minute_index, _INT64.min), _INT64.max) for r in recordings],
        [len(r.frames) for r in recordings], [r.labelled for r in recordings])
    blocks = [r.frames if r.labelled else replace(r.frames, foreground=np.ones(len(r.frames), bool))
              for r in recordings]
    return replace(cohort, recordings=table, frames=FrameBlock.concat(blocks))


def segments(cohort: Cohort) -> list[RecordingSegment]:
    """The cohort's recordings, one segment each, named by participant_id;
    their frame columns are views of cohort.frames."""
    table, block = cohort.recordings, cohort.frames
    ends = np.cumsum(table.n_frames).tolist()
    return [
        RecordingSegment(pid, day, minute, FrameBlock(*(getattr(block, name)[start:end] for name in block.columns())),
                         labelled)
        for pid, day, minute, labelled, start, end in zip(
            decoded(cohort.profiles, table.participant), table.shift_date.tolist(), table.minute_index.tolist(),
            table.labelled.tolist(), [0] + ends[:-1], ends)
    ]


def coded(ids: Iterable[str], values: Iterable[str]) -> np.ndarray:
    """The code of each value, one of ids: its place among the sorted ids."""
    rank = {key: i for i, key in enumerate(sorted(ids))}
    return np.array([rank[value] for value in values], np.int64)


def decoded(ids: Iterable[str], codes: np.ndarray) -> list[str]:
    """The id of each code: its place among the sorted ids."""
    return np.array(sorted(ids) + [None], object)[codes].tolist()


def assert_cohorts_equal(a: Cohort, b: Cohort) -> None:
    """Two cohorts hold the same values: every table column with its dtype,
    and every frame column bit for bit, foreground labels included."""
    assert (a.profiles, a.hubs, a.warnings) == (b.profiles, b.hubs, b.warnings)
    for x, y in ((a.rssi, b.rssi), (a.recordings, b.recordings), (a.physiology, b.physiology)):
        for name in x.columns():
            got, want = getattr(x, name), getattr(y, name)
            assert got.dtype == want.dtype and got.tolist() == want.tolist(), name
    for name in FrameBlock.columns():
        got, want = getattr(a.frames, name), getattr(b.frames, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def profile(pid: str = "p1", shift: ShiftType = ShiftType.DAY, unit: UnitType = UnitType.ICU) -> ParticipantProfile:
    return ParticipantProfile(pid, shift, unit, pos_affect=30, neg_affect=25, life_satisfaction=4.2)


@pytest.fixture
def hub_table() -> dict[str, HubRecord]:
    return {
        "h_ns": HubRecord("h_ns", HubCategory.NURSING_STATION),
        "h_pat": HubRecord("h_pat", HubCategory.PATIENT_ROOM),
        "h_lounge": HubRecord("h_lounge", HubCategory.LOUNGE),
        "h_med": HubRecord("h_med", HubCategory.MEDICINE_ROOM),
    }


def rssi_table(rows: Iterable[tuple[str, date, int, str, int]], profiles: Iterable[str],
               hubs: Iterable[str]) -> RssiTable:
    """Table of (pid, date, minute, hub, rssi) rows, each id coded among the
    profile or hub ids."""
    pids, days, minutes, hub_ids, values = zip(*rows) if rows else ((),) * 5
    return RssiTable(coded(profiles, pids), days, minutes, coded(hubs, hub_ids), values)


def rssi_rows(*rows: tuple[str, int, str, int], hubs: Iterable[str], profiles: Iterable[str] = ("p1",),
              shift_date: date = D0) -> RssiTable:
    """rssi_table of (pid, minute, hub, rssi) rows, all on shift_date."""
    return rssi_table([(pid, shift_date, minute, hub, value) for pid, minute, hub, value in rows], profiles, hubs)


def listed_timelines(rssi: RssiTable, hubs: dict[str, HubRecord], shifts: list[tuple[str, date]],
                     floor: int = RSSI_FLOOR, profiles: Iterable[str] = ("p1",)) -> np.ndarray:
    """estimate_timeline's slots of the listed (participant id, date) shifts,
    a row each in list order, each RSSI row placed in its shift by a tuple
    lookup of its decoded participant."""
    index = {key: i for i, key in enumerate(shifts)}
    keys = zip(decoded(profiles, rssi.participant), rssi.shift_date.tolist())
    return estimate_timeline(rssi, np.array([index.get(key, -1) for key in keys], np.int64), len(shifts), hubs, floor)


def tiny_cohort(*others: str) -> Cohort:
    """One participant, one hub, a few recordings on two dates; the others
    are profiles with no row."""
    profiles = {pid: profile(pid) for pid in ("p1", *others)}
    hubs = {"h_ns": HubRecord("h_ns", HubCategory.NURSING_STATION)}
    recs = [
        recording("p1", minute=0, n_frames=3),
        recording("p1", minute=1, n_frames=3),
        recording("p1", minute=4, n_frames=3, shift_date=date(2022, 3, 2)),
    ]
    rssi = rssi_rows(("p1", 0, "h_ns", 160), ("p1", 1, "h_ns", 155), hubs=hubs, profiles=profiles)
    physiology = PhysiologyTable(coded(profiles, ["p1"]), [D0], [0.4], [7.0])
    return with_recordings(Cohort(profiles, hubs, rssi=rssi, physiology=physiology), recs)
