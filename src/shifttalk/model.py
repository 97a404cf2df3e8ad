"""Core domain types shared across the pipeline.

Time is modeled as (shift_date, minute_index since shift start); minute 0 is
the start of the 12-hour shift regardless of whether it is a day or night
schedule, so the analytic code never touches wall clocks.

RSSI rows and recordings, which outnumber every other input, live in
parallel numpy columns from parse to features: one RssiTable, and one
RecordingTable with one FrameBlock holding every recording's frames end to
end. Filters select rows with boolean masks. Every CSV output table is a
ColumnTable of that kind.

The one CSV rule of the package lives here. csv_rows reads a file under an
exact header, one field per column, and a bad row raises MalformedRow naming
file:line. write_csv is the one writer: it takes parallel columns and builds
the text column by column, in batches of rows. A cell is typed by its
column: floats as their repr with NaN as an empty field, booleans as 0/1,
dates as YYYY-MM-DD only (parse_date), text quoted as the csv module's
excel dialect quotes it. read_columns is the one reader: one loop over the
rows csv_rows yields reads each cell with its column's rule in _CELLS, so
the first bad row or field in file order raises. ColumnTable.write_csv and
read_csv apply the rule to a table, write_csv and read_columns to loose
columns.
"""

from __future__ import annotations

import csv
import math
import mmap
import re
from dataclasses import dataclass, field, fields
from datetime import date
from enum import Enum, IntEnum
from itertools import islice
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import MalformedRow

SHIFT_MINUTES = 720  # 12-hour shift at one-minute resolution
RSSI_MIN = 136
RSSI_MAX = 193
_TEXT_BATCH_ROWS = 1 << 12


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


def parse_date(text: str, file: str, line: int) -> date:
    """YYYY-MM-DD only; date.fromisoformat alone also takes 20220301 and 2022-W09-2."""
    try:
        return _date_cell(text)
    except (TypeError, ValueError):
        raise MalformedRow(file, line, f"bad shift_date {text!r}") from None


def csv_rows(path: Path, header: Sequence[str]):
    """(line number, fields) of each non-blank row of a csv file whose
    header is exactly ``header`` and whose rows have one field per column.
    The text is decoded 8 KB ahead of the rows; after a byte that is not
    UTF-8, the rows past those read are read again a line at a time, so the
    row that holds it raises MalformedRow in its turn."""
    expected = list(header)
    lineno, lines = 0, None  # the rows read so far (the header is row 1); the lines read again
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        while True:
            try:
                for lineno, row in enumerate(reader, start=lineno + 1):
                    if lineno == 1:
                        if row != expected:
                            raise MalformedRow(path.name, 1, f"bad header {row!r}, expected {expected!r}")
                    elif row:
                        if len(row) != len(expected):
                            raise MalformedRow(path.name, lineno, f"expected {len(expected)} fields, got {len(row)}")
                        yield lineno, row
                break
            except UnicodeDecodeError:
                if lines is not None:
                    raise MalformedRow(path.name, lineno + 1, "not UTF-8 text") from None
                fh.buffer.seek(0)
                lines = (piece.decode("utf-8") for raw in fh.buffer for piece in raw.splitlines(keepends=True))
                reader = islice(csv.reader(lines), lineno, None)  # past the rows read
    if lineno == 0:
        raise MalformedRow(path.name, 1, "missing header")


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """The header, then one row per position of the parallel numpy ``columns``.

    The text is built column by column, _TEXT_BATCH_ROWS rows at a time,
    which bounds the Python strings held at once. Each cell is written as
    csv's excel dialect writes its value: floats as their repr with NaN as
    an empty field, booleans as 0/1, dates as YYYY-MM-DD, a text cell that
    holds a comma, a double quote, CR or LF in quotes with its quotes
    doubled; rows end in CRLF.
    """
    width = len(header)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_quoted(list(header), width)) + "\r\n")
        for i in range(0, len(columns[0]) if columns else 0, _TEXT_BATCH_ROWS):
            cells = [_cells(column[i:i + _TEXT_BATCH_ROWS], width) for column in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _cells(column: np.ndarray, width: int) -> list[str]:
    """The csv text of each value of a column of a ``width``-column table."""
    kind = column.dtype.kind
    if kind == "M":  # each distinct date is formatted once; a table holds few
        days, code = np.unique(column, return_inverse=True)
        return list(map(np.datetime_as_string(days).tolist().__getitem__, code.tolist()))
    if kind == "b":
        return np.where(column, "1", "0").tolist()
    if kind == "f":
        cells, blank = list(map(float.__repr__, column.tolist())), _quoted([""], width)[0]
        for i in np.flatnonzero(np.isnan(column)).tolist():
            cells[i] = blank
        return cells
    if kind in "iu":
        return list(map(int.__repr__, column.tolist()))
    return _quoted(list(map(str, column.tolist())), width)


def _quoted(cells: list[str], width: int) -> list[str]:
    """Text cells as csv's QUOTE_MINIMAL writes them. The only field of a
    row is quoted when empty, so that the row is not blank."""
    if width == 1 or _SPECIAL.search("".join(cells)):
        cells = ['"' + c.replace('"', '""') + '"' if _SPECIAL.search(c) or width == 1 and not c else c
                 for c in cells]
    return cells


_SPECIAL = re.compile('[,"\r\n]')  # what makes csv quote a field


def read_columns(path: str | Path, header: Sequence[str], dtypes: Sequence) -> list:
    """The columns (one list each) of a csv file under ``header``, each cell
    read back by _CELLS as write_csv writes a value of its column's dtype.
    The rows are read in file order, so the first bad row or field raises
    MalformedRow naming file:line."""
    path = Path(path)
    parsers = [_CELLS[np.dtype(dtype).kind] for dtype in dtypes]
    columns = [[] for _ in parsers]
    for line, row in csv_rows(path, header):
        for column, parse, name, text in zip(columns, parsers, header, row):
            try:
                column.append(parse(text))
            except (KeyError, ValueError):
                raise MalformedRow(path.name, line, f"bad {name} {text!r}") from None
    return columns


def _date_cell(text: str) -> date:
    if len(text) != 10 or text[4] != "-" or text[7] != "-":
        raise ValueError(text)
    return date.fromisoformat(text)


# A number cell as the writers write it: ASCII digits, an optional leading
# "-" and, for a float, "." and an exponent. int and float alone also take
# surrounding spaces, a leading "+", "_" separators and non-ASCII digits.
_INT_CELL, _FLOAT_CELL = re.compile("-?[0-9]+"), re.compile("-?[0-9.]+(?:[eE][-+]?[0-9]+)?")
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
_BOOLS = {"0": False, "1": True}


def _int_cell(text: str) -> int:
    """An integer of any size, written as the writers write one."""
    if not (text.isascii() and text.isdigit()) and not _INT_CELL.fullmatch(text):
        raise ValueError(text)
    return int(text)


def _float_cell(text: str) -> float:
    """A finite number, written as the writers write one."""
    if not _FLOAT_CELL.fullmatch(text):
        raise ValueError(text)
    value = float(text)
    if math.isinf(value):
        raise ValueError(text)
    return value


def _int64_cell(text: str) -> int:
    value = _int_cell(text)
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise ValueError(text)
    return value


def _nan_or_float_cell(text: str) -> float:
    """A table's float cell: an empty field is NaN."""
    return _float_cell(text) if text else math.nan


# each dtype kind's cell reader; a bad cell raises KeyError or ValueError
_CELLS = {"O": str, "M": _date_cell, "i": _int64_cell, "f": _nan_or_float_cell, "b": _BOOLS.__getitem__}


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

    def write_csv(self, path: str | Path) -> None:
        """One csv row per table row, under the column names."""
        write_csv(path, self.columns(), [getattr(self, name) for name in self.columns()])

    @classmethod
    def read_csv(cls, path: str | Path) -> "ColumnTable":
        """The table that write_csv wrote to path."""
        return cls(*read_columns(path, cls.columns(), cls.DTYPES))


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
    """Columnar storage for frames: a cohort's, or one recording's.

    Recordings routinely hold thousands of frames, so frames live in parallel
    numpy arrays rather than object lists. ``foreground`` is None when the
    frames carry no external own-speech labels.
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


FRAME_FIELDS = tuple(f.name for f in fields(FrameBlock))


@dataclass(eq=False)
class RecordingTable(ColumnTable):
    """Recordings in file order; the cohort's FrameBlock holds their frames
    end to end in this order. Only a labelled recording's foreground is read."""

    participant_id: np.ndarray = ()  # object, as RssiTable's
    shift_date: np.ndarray = ()  # datetime64[D]
    minute_index: np.ndarray = ()  # int64
    n_frames: np.ndarray = ()  # int64
    labelled: np.ndarray = ()  # bool: the input carried foreground labels

    DTYPES = (object, "datetime64[D]", np.int64, np.int64, bool)


def paged(values, dtype=np.float64) -> np.ndarray:
    """values copied into memory mapped for them alone, which goes back to the
    system when the copy is dropped; malloc keeps freed blocks this small resident."""
    out = np.frombuffer(mmap.mmap(-1, max(len(values) * np.dtype(dtype).itemsize, 1)), dtype, len(values))
    out[...] = values
    return out


def join_recordings(parts: list[tuple[RecordingTable, dict[str, np.ndarray]]]) -> tuple[RecordingTable, FrameBlock]:
    """The rows of every part and their frames, end to end. A part is a table
    and a FrameBlock field -> paged column dict; each frame column's parts are
    dropped as it is joined, so at most one column is ever held twice."""
    if not parts:
        return RecordingTable(), FrameBlock(*np.empty((4, 0)), np.empty(0, bool))
    frames = FrameBlock(**{name: np.concatenate([f.pop(name) for _, f in parts]) for name in FRAME_FIELDS})
    return RecordingTable.concat([t for t, _ in parts]), frames


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
    recordings: RecordingTable = field(default_factory=RecordingTable)
    frames: FrameBlock = field(default_factory=lambda: join_recordings([])[1])  # every recording's, in table order
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
