"""Core domain types shared across the pipeline.

Time is modeled as (shift_date, minute_index since shift start); minute 0 is
the start of the 12-hour shift regardless of whether it is a day or night
schedule, so the analytic code never touches wall clocks.

RSSI rows, which outnumber every other input, live in one RssiTable of
parallel numpy columns from parse to location timeline; filters select rows
with boolean masks. Extraction's session and rated-recording rows are
ColumnTables of the same kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from datetime import date
from enum import Enum, IntEnum

import numpy as np

SHIFT_MINUTES = 720  # 12-hour shift at one-minute resolution
RSSI_MIN = 136
RSSI_MAX = 193
_TEXT_BATCH_ROWS = 1 << 14


class ShiftType(str, Enum):
    DAY = "day"
    NIGHT = "night"


class UnitType(str, Enum):
    ICU = "icu"
    NON_ICU = "non_icu"


class HubCategory(str, Enum):
    """Room category a Bluetooth hub is installed in."""

    NURSING_STATION = "ns"
    PATIENT_ROOM = "pat"
    LOUNGE = "lounge"
    MEDICINE_ROOM = "med"


class LocationCategory(IntEnum):
    """Per-minute location estimate.

    Integer order doubles as the tie-break precedence when two hubs report
    the same maximal RSSI in a minute (lower value wins).
    """

    PATIENT_ROOM = 0
    NURSING_STATION = 1
    LOUNGE_MED = 2
    OUTSIDE_UNIT = 3

    @property
    def code(self) -> str:
        return _LOCATION_CODES[self]


_LOCATION_CODES = {
    LocationCategory.PATIENT_ROOM: "pat",
    LocationCategory.NURSING_STATION: "ns",
    LocationCategory.LOUNGE_MED: "lounge_med",
    LocationCategory.OUTSIDE_UNIT: "outside",
}

HUB_TO_LOCATION = {
    HubCategory.NURSING_STATION: LocationCategory.NURSING_STATION,
    HubCategory.PATIENT_ROOM: LocationCategory.PATIENT_ROOM,
    HubCategory.LOUNGE: LocationCategory.LOUNGE_MED,
    HubCategory.MEDICINE_ROOM: LocationCategory.LOUNGE_MED,
}


@dataclass(frozen=True)
class ParticipantProfile:
    participant_id: str
    shift_type: ShiftType
    unit_type: UnitType
    pos_affect: int  # 10-item sum, 10..50
    neg_affect: int  # 10-item sum, 10..50
    life_satisfaction: float  # 5-item average, 1..7


@dataclass(frozen=True)
class HubRecord:
    hub_id: str
    location_category: HubCategory


class ColumnTable:
    """Rows as parallel numpy columns of one length; T() is empty.

    A subclass is a dataclass whose fields are its columns and whose DTYPES
    holds their dtypes in field order. Columns may be given as any sequences
    and are stored as numpy arrays.
    """

    DTYPES: tuple = ()

    def __post_init__(self) -> None:
        names = self.columns()
        for name, dtype in zip(names, self.DTYPES):
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if len({len(getattr(self, name)) for name in names}) != 1:
            raise ValueError(f"{type(self).__name__} columns must have equal length")

    @classmethod
    def columns(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    @classmethod
    def concat(cls, parts: list) -> "ColumnTable":
        """The rows of every part, in order."""
        if not parts:
            return cls()
        return cls(*(np.concatenate([getattr(t, name) for t in parts]) for name in cls.columns()))

    def __len__(self) -> int:
        return len(getattr(self, self.columns()[0]))

    def select(self, mask: np.ndarray) -> "ColumnTable":
        """New table holding only the rows where mask is True (order kept)."""
        return type(self)(*(getattr(self, name)[mask] for name in self.columns()))

    def text_rows(self):
        """The rows as tuples of Python values for csv, dates as YYYY-MM-DD
        text (csv writes a float as its repr); made _TEXT_BATCH_ROWS rows at
        a time, which bounds the Python objects held at once."""
        for i in range(0, len(self), _TEXT_BATCH_ROWS):
            part = self.select(slice(i, i + _TEXT_BATCH_ROWS))
            columns = [getattr(part, name) for name in self.columns()]
            yield from zip(*(np.datetime_as_string(c).tolist() if c.dtype.kind == "M" else c.tolist()
                             for c in columns))


@dataclass(eq=False)
class RssiTable(ColumnTable):
    """RSSI rows in file order."""

    participant_id: np.ndarray = ()  # object (str kept exactly; numpy str drops trailing NULs)
    shift_date: np.ndarray = ()  # datetime64[D]
    minute_index: np.ndarray = ()  # int64
    hub_id: np.ndarray = ()  # object, as participant_id
    rssi: np.ndarray = ()  # int64, clamped to [RSSI_MIN, RSSI_MAX] at parse time

    DTYPES = (object, "datetime64[D]", np.int64, object, np.int64)


@dataclass(frozen=True)
class DailyPhysiology:
    participant_id: str
    shift_date: date
    walk_ratio: float  # in [0, 1]
    sleep_hours: float  # in [0, 24]


@dataclass
class FrameBlock:
    """Columnar storage for the frames of one recording.

    Recordings routinely hold thousands of frames, so frames live in parallel
    numpy arrays rather than object lists. ``foreground`` is None when the
    input carried no external own-speech labels.
    """

    log_pitch: np.ndarray  # float64, NaN = unvoiced
    intensity: np.ndarray
    hf_lf_ratio: np.ndarray
    foreground_prob: np.ndarray
    foreground: np.ndarray | None = None  # bool, optional external labels

    def __post_init__(self) -> None:
        n = len(self.log_pitch)
        if not (len(self.intensity) == len(self.hf_lf_ratio) == len(self.foreground_prob) == n):
            raise ValueError("frame columns must have equal length")
        if self.foreground is not None and len(self.foreground) != n:
            raise ValueError("foreground column length mismatch")

    def __len__(self) -> int:
        return len(self.log_pitch)

    def select(self, mask: np.ndarray) -> "FrameBlock":
        """New block holding only the frames where mask is True (order kept)."""
        return FrameBlock(
            log_pitch=self.log_pitch[mask],
            intensity=self.intensity[mask],
            hf_lf_ratio=self.hf_lf_ratio[mask],
            foreground_prob=self.foreground_prob[mask],
            foreground=None if self.foreground is None else self.foreground[mask],
        )


@dataclass
class RecordingSegment:
    """One VAD-triggered ~20 s capture anchored to a shift minute."""

    participant_id: str
    shift_date: date
    minute_index: int
    frames: FrameBlock


@dataclass
class Cohort:
    """Everything parsed from one canonical input directory."""

    profiles: dict[str, ParticipantProfile] = field(default_factory=dict)
    hubs: dict[str, HubRecord] = field(default_factory=dict)
    recordings: list[RecordingSegment] = field(default_factory=list)
    rssi: RssiTable = field(default_factory=RssiTable)
    physiology: list[DailyPhysiology] = field(default_factory=list)
    warnings: dict[str, int] = field(default_factory=dict)

    @property
    def counts(self) -> dict[str, int]:
        """Rows held per input file."""
        return {
            "participants": len(self.profiles),
            "hubs": len(self.hubs),
            "rssi": len(self.rssi),
            "recordings": len(self.recordings),
            "physiology": len(self.physiology),
        }

    def participant_ids(self) -> list[str]:
        return sorted(self.profiles)
