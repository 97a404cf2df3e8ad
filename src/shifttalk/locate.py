"""Per-minute location estimation from hub RSSI rows.

For each minute of a shift: rows with RSSI below the floor (150) are dropped
as too noisy; if none survive the slot is OutsideUnit, otherwise the slot
takes the category of the hub with the highest surviving RSSI. Lounge and
medicine-room hubs both map to the merged LoungeMed category.

Ties across categories resolve by LocationCategory order
(PatientRoom < NursingStation < LoungeMed), which keeps timelines
deterministic; ties within one category are immaterial.

estimate_timeline applies the rule to every shift of a cohort in one pass
over the RssiTable: each kept row scores ``rssi * 4 + (3 - category)`` and
``np.maximum.at`` keeps the best score per (shift, minute), so the highest
RSSI wins and, on equal RSSI, the lowest category. It returns one
(shifts, 720) slots array; a LocationTimeline holds one shift's row for the
per-shift references (sessions.build_sessions).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from itertools import repeat

import numpy as np

from .model import (
    HUB_TO_LOCATION,
    SHIFT_MINUTES,
    HubRecord,
    LocationCategory,
    RssiTable,
)

RSSI_FLOOR = 150  # keep rssi >= 150, drop below

_OUTSIDE = int(LocationCategory.OUTSIDE_UNIT)
_NO_ROW = np.iinfo(np.int64).min


@dataclass
class LocationTimeline:
    """720 per-minute location categories for one (participant, shift_date)."""

    participant_id: str
    shift_date: date
    slots: np.ndarray  # uint8 LocationCategory values, length 720

    def __post_init__(self) -> None:
        if len(self.slots) != SHIFT_MINUTES:
            raise ValueError(f"timeline must have {SHIFT_MINUTES} slots")

    def category(self, minute_index: int) -> LocationCategory:
        return LocationCategory(int(self.slots[minute_index]))


def empty_timeline(participant_id: str, shift_date: date) -> LocationTimeline:
    slots = np.full(SHIFT_MINUTES, _OUTSIDE, dtype=np.uint8)
    return LocationTimeline(participant_id, shift_date, slots)


def estimate_timeline(
    rssi: RssiTable,
    hubs: dict[str, HubRecord],
    shifts: list[tuple[str, date]],
    rssi_floor: int = RSSI_FLOOR,
) -> np.ndarray:
    """The (len(shifts), 720) uint8 LocationCategory slots of every listed
    (participant, shift_date), a row each in list order.

    Rows of unlisted shifts, rows below the floor and minutes outside
    [0, 720) are ignored; a shift with no row left is all OutsideUnit. Every
    hub_id of a kept row must be in ``hubs``.
    """
    # each row's position in shifts (-1 if unlisted), looked up by (participant, date) code;
    # ids are coded by dict lookups, which keep the exact strings and need no string sort
    pid_code: dict[str, int] = {}
    for pid, _ in shifts:
        pid_code.setdefault(pid, len(pid_code))
    days, day_of_row = np.unique(rssi.shift_date, return_inverse=True)
    day_code = {d: j for j, d in enumerate(days.tolist())}
    position = np.full((len(pid_code) + 1, len(days)), -1, dtype=np.int64)  # last row: unlisted ids
    for k, (pid, day) in enumerate(shifts):
        if day in day_code:
            position[pid_code[pid], day_code[day]] = k
    pid_of_row = np.fromiter(map(pid_code.get, rssi.participant_id, repeat(len(pid_code))), np.int64, len(rssi))
    row_shift = position[pid_of_row, day_of_row]
    m = rssi.minute_index
    keep = np.flatnonzero((row_shift >= 0) & (rssi.rssi >= rssi_floor) & (m >= 0) & (m < SHIFT_MINUTES))
    rank = {h: 3 - int(HUB_TO_LOCATION[hub.location_category]) for h, hub in hubs.items()}
    hub_rank = np.fromiter(map(rank.__getitem__, rssi.hub_id[keep]), np.int64, len(keep))
    best = np.full(len(shifts) * SHIFT_MINUTES, _NO_ROW)
    np.maximum.at(best, row_shift[keep] * SHIFT_MINUTES + m[keep], rssi.rssi[keep] * 4 + hub_rank)
    return np.where(best == _NO_ROW, _OUTSIDE, 3 - best % 4).astype(np.uint8).reshape(-1, SHIFT_MINUTES)
