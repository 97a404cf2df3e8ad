"""Group valid recordings into speech sessions and compute session features.

A speech session is a maximal run of recordings whose minute indices are
consecutive (gap of one minute between recordings). A recording occupies
exactly its one-minute slot, so a session's duration is last - first + 1
and every session minute carries a recording.

cohort_sessions finds the sessions of every shift of a cohort in one pass;
build_sessions states the same rule for one shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import EmptyInput
from .locate import LocationTimeline
from .model import SHIFT_MINUTES, ColumnTable, LocationCategory, RecordingSegment, distinct


@dataclass
class SpeechSession:
    participant_id: str
    shift_date: date
    minute_indices: list[int]  # sorted, consecutive
    location_minutes: dict[LocationCategory, int]

    @property
    def start(self) -> int:
        return self.minute_indices[0]

    @property
    def last(self) -> int:
        return self.minute_indices[-1]

    @property
    def duration_min(self) -> int:
        return self.last - self.start + 1


# the category order of SessionTable's minute columns
SESSION_CATEGORIES = (LocationCategory.NURSING_STATION, LocationCategory.PATIENT_ROOM,
                      LocationCategory.LOUNGE_MED, LocationCategory.OUTSIDE_UNIT)


@dataclass(eq=False)
class SessionTable(ColumnTable):
    """Speech sessions by (participant, shift_date, start): sessions.csv's rows."""

    participant_id: np.ndarray = ()  # object
    shift_date: np.ndarray = ()  # datetime64[D]
    start: np.ndarray = ()  # int64 minute
    duration_min: np.ndarray = ()  # int64
    ns_min: np.ndarray = ()  # int64 session minutes per SESSION_CATEGORIES entry
    pat_min: np.ndarray = ()
    loungemed_min: np.ndarray = ()
    outside_min: np.ndarray = ()

    DTYPES = (object, "datetime64[D]") + (np.int64,) * 6


def cohort_sessions(
    shift: np.ndarray, minute: np.ndarray, slots: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sessions of every shift at once, by (shift, start).

    ``shift`` and ``minute`` give each valid recording's row of ``slots``
    (the stacked 720-minute timelines) and its minute in [0, 720); duplicate
    minutes collapse. Returns each session's shift, start minute, duration
    and its minutes per LocationCategory value as a (sessions, 4) array.
    """
    slot = distinct(shift * SHIFT_MINUTES + minute)
    slot_shift, slot_minute = np.divmod(slot, SHIFT_MINUTES)
    # a session starts after a skipped minute and at a shift's minute 0, which
    # directly follows the previous shift's minute 719 in slot numbering
    first = np.ones(len(slot), dtype=bool)
    first[1:] = (np.diff(slot) != 1) | (slot_minute[1:] == 0)
    starts = np.flatnonzero(first)
    session = np.cumsum(first) - 1
    n_cats = len(LocationCategory)
    category = slots[slot_shift, slot_minute]
    minutes = np.bincount(session * n_cats + category, minlength=len(starts) * n_cats).reshape(-1, n_cats)
    return slot_shift[starts], slot_minute[starts], np.diff(starts, append=len(slot)), minutes


def build_sessions(
    valid_recordings: list[RecordingSegment],
    timeline: LocationTimeline,
) -> list[SpeechSession]:
    """Sessions for one (participant, shift), sorted by start minute.

    Duplicate minute indices collapse; each session minute is attributed to
    the timeline's category for that minute.
    """
    if not valid_recordings:
        return []
    pid = valid_recordings[0].participant_id
    shift_date = valid_recordings[0].shift_date
    minutes = sorted({r.minute_index for r in valid_recordings})
    slots = timeline.slots.tolist()  # plain ints: no enum object per minute
    cats = [slots[m] for m in minutes]
    starts = [0] + [i for i in range(1, len(minutes)) if minutes[i] - minutes[i - 1] > 1]
    ends = starts[1:] + [len(minutes)]
    sessions = []
    for lo, hi in zip(starts, ends):
        run_cats = cats[lo:hi]
        loc_minutes = {cat: run_cats.count(cat) for cat in LocationCategory}
        sessions.append(SpeechSession(pid, shift_date, minutes[lo:hi], loc_minutes))
    return sessions


def inter_session_times(sessions: list[SpeechSession]) -> list[int]:
    """Gaps in minutes between consecutive sessions (end of one to start of next)."""
    ordered = sorted(sessions, key=lambda s: s.start)
    return [nxt.start - (prev.last + 1) for prev, nxt in zip(ordered, ordered[1:])]


def gt1min_session_ratio(sessions: list[SpeechSession]) -> float:
    """Fraction of sessions longer than one minute (duration >= 2)."""
    if not sessions:
        raise EmptyInput("no sessions")
    return sum(1 for s in sessions if s.duration_min >= 2) / len(sessions)


def session_occurrence_rate(sessions: list[SpeechSession], category: LocationCategory) -> float:
    """Share of total session time spent at the given location category."""
    total = sum(s.duration_min for s in sessions)
    if total == 0:
        raise EmptyInput("no session time")
    at_category = sum(s.location_minutes.get(category, 0) for s in sessions)
    return at_category / total
