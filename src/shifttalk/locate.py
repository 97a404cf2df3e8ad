"""Per-minute location estimation from hub RSSI rows.

For each minute of a shift: rows with RSSI below the floor (150) are dropped
as too noisy; if none survive the slot is OutsideUnit, otherwise the slot
takes the category of the hub with the highest surviving RSSI. Lounge and
medicine-room hubs both map to the merged LoungeMed category.

Ties across categories resolve by LocationCategory order
(PatientRoom < NursingStation < LoungeMed), which keeps timelines
deterministic; ties within one category are immaterial.

estimate_timeline applies the rule to every shift of a cohort in one pass
over the RssiTable, given each row's shift as an index: it knows nothing of
participant ids or dates, and a hub's category is read by its code. Each
kept row scores ``rssi * 4 + (3 - category)``
and ``np.maximum.at`` keeps the best score per (shift, minute), so the
highest RSSI wins and, on equal RSSI, the lowest category. It returns one
(shifts, 720) slots array; a LocationTimeline holds one shift's row for the
per-shift references (sessions.build_sessions).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

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
_NO_ROW = np.iinfo(np.int16).min


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
    return LocationTimeline(participant_id, shift_date, np.full(SHIFT_MINUTES, _OUTSIDE, dtype=np.uint8))


def estimate_timeline(
    rssi: RssiTable,
    shift: np.ndarray,
    n: int,
    hubs: dict[str, HubRecord],
    rssi_floor: int = RSSI_FLOOR,
) -> np.ndarray:
    """The (n, 720) uint8 LocationCategory slots of n shifts, where RSSI row
    i belongs to shift ``shift[i]`` (-1: to none of them).

    Rows of no shift, rows below the floor and minutes outside [0, 720) are
    ignored; a shift with no row left is all OutsideUnit. A row's hub is a
    code, its id's rank among the sorted ids of ``hubs``, and every kept
    rssi lies within [RSSI_MIN, RSSI_MAX], as the parse clamps it.
    """
    m = rssi.minute_index
    keep = (shift >= 0) & (rssi.rssi >= rssi_floor) & (m >= 0) & (m < SHIFT_MINUTES)
    rank = np.array([3 - HUB_TO_LOCATION[hubs[h].location_category] for h in sorted(hubs)], np.int16)  # by hub code
    # each temporary over the kept rows is as narrow as its values: a score fits int16 and a slot int32
    score = rssi.rssi[keep].astype(np.int16)
    score *= 4
    score += rank[rssi.hub[keep]]
    slot = shift[keep].astype(np.int32 if n * SHIFT_MINUTES <= np.iinfo(np.int32).max else np.int64)
    slot *= SHIFT_MINUTES
    slot += m[keep].astype(slot.dtype)
    best = np.full(n * SHIFT_MINUTES, _NO_ROW, np.int16)
    np.maximum.at(best, slot, score)
    return np.where(best == _NO_ROW, _OUTSIDE, 3 - best % 4).astype(np.uint8).reshape(-1, SHIFT_MINUTES)
