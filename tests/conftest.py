from __future__ import annotations

import os
from datetime import date

import numpy as np
import pytest

from shifttalk.model import (
    Cohort,
    DailyPhysiology,
    FrameBlock,
    HubCategory,
    HubRecord,
    ParticipantProfile,
    RecordingSegment,
    RssiTable,
    ShiftType,
    UnitType,
)

D0 = date(2022, 3, 1)


@pytest.fixture(autouse=True)
def no_child_left_unreaped():
    """Fail a test that leaves a child process running or unreaped, such as
    a parse worker lost on some path."""
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
    return FrameBlock(
        log_pitch=np.full(n, log_pitch),
        intensity=np.full(n, intensity),
        hf_lf_ratio=np.full(n, hf_lf),
        foreground_prob=np.full(n, foreground_prob),
        foreground=None if foreground is None else np.asarray(foreground, dtype=bool),
    )


def recording(pid: str = "p1", minute: int = 0, n_frames: int = 5, shift_date: date = D0, **kw) -> RecordingSegment:
    return RecordingSegment(pid, shift_date, minute, frames(n_frames, **kw))


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


def rssi_rows(*rows: tuple[str, int, str, int], shift_date: date = D0) -> RssiTable:
    """Table of (pid, minute, hub, rssi) rows, all on shift_date."""
    pids, minutes, hubs, values = zip(*rows) if rows else ((),) * 4
    return RssiTable(pids, [shift_date] * len(rows), minutes, hubs, values)


def tiny_cohort() -> Cohort:
    """One participant, one hub, a few recordings on two dates."""
    profiles = {"p1": profile("p1")}
    hubs = {"h_ns": HubRecord("h_ns", HubCategory.NURSING_STATION)}
    recs = [
        recording("p1", minute=0, n_frames=3),
        recording("p1", minute=1, n_frames=3),
        recording("p1", minute=4, n_frames=3, shift_date=date(2022, 3, 2)),
    ]
    rssi = rssi_rows(("p1", 0, "h_ns", 160), ("p1", 1, "h_ns", 155))
    physiology = [DailyPhysiology("p1", D0, 0.4, 7.0)]
    return Cohort(profiles, hubs, recs, rssi, physiology)
