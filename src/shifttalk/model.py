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
file:line; write_csv writes one. A cell is typed by its column: floats as
their repr with NaN as an empty field, booleans as 0/1, dates as YYYY-MM-DD
only (parse_date). ColumnTable.write_csv and read_csv apply the rule to a
table, text_rows and read_columns to loose columns.
"""

from __future__ import annotations

import csv
import math
import mmap
import re
from dataclasses import dataclass, field, fields
from datetime import date
from enum import Enum, IntEnum
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import MalformedRow

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
    header is exactly ``header`` and whose rows have one field per column."""
    expected = list(header)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            found = next(reader)
        except StopIteration:
            raise MalformedRow(path.name, 1, "missing header") from None
        if found != expected:
            raise MalformedRow(path.name, 1, f"bad header {found!r}, expected {expected!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected):
                raise MalformedRow(path.name, lineno, f"expected {len(expected)} fields, got {len(row)}")
            yield lineno, row


def write_csv(path: str | Path, header: Sequence[str], rows) -> None:
    """The header, then each row; csv writes a float as its repr and None as
    an empty field."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def text_rows(columns: Sequence[np.ndarray]):
    """The rows of parallel columns as tuples of csv cells (dates as
    YYYY-MM-DD text, booleans as 0/1, NaN as None); made _TEXT_BATCH_ROWS
    rows at a time, which bounds the Python objects held at once."""
    for i in range(0, len(columns[0]), _TEXT_BATCH_ROWS):
        yield from zip(*(_cells(c[i:i + _TEXT_BATCH_ROWS]) for c in columns))


def _cells(column: np.ndarray) -> list:
    if column.dtype.kind == "M":
        return np.datetime_as_string(column).tolist()
    if column.dtype.kind == "b":
        return column.astype(np.int64).tolist()
    if column.dtype.kind == "f" and np.isnan(column).any():
        column = np.where(np.isnan(column), None, column)
    return column.tolist()


def read_columns(path: str | Path, header: Sequence[str], dtypes: Sequence) -> list:
    """The columns (lists or arrays) of a csv file under ``header``, each
    cell read back as text_rows writes a value of its column's dtype. The
    first bad field in file order raises MalformedRow naming file:line.

    Each column is read in one pass (_column); only when a pass refuses, or
    a row has the wrong number of fields, are the rows before that read
    again cell by cell to name the first bad field.
    """
    path = Path(path)
    kinds = [np.dtype(dtype).kind for dtype in dtypes]
    rows: list = []
    refused = None
    try:
        rows.extend(csv_rows(path, header))
    except MalformedRow as exc:  # a bad cell on an earlier line comes first
        refused = exc
    if refused is None:
        texts = list(zip(*(row for _, row in rows))) or [()] * len(kinds)
        try:
            return [_column(kind, column) for kind, column in zip(kinds, texts)]
        except (KeyError, ValueError):
            pass
    parsers = [_CELLS[kind] for kind in kinds]
    columns = [[] for _ in parsers]
    for line, row in rows:
        for column, parse, name, text in zip(columns, parsers, header, row):
            try:
                column.append(parse(text))
            except (KeyError, ValueError):
                raise MalformedRow(path.name, line, f"bad {name} {text!r}") from None
    if refused is not None:
        raise refused
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


def _column(kind: str, texts: Sequence[str]):
    """A column of one dtype kind, each cell read as _CELLS[kind] reads it;
    a number column maps the cell's pattern and conversion over its cells."""
    if kind == "M":  # each distinct text is read once; a file holds few
        days = {text: code for code, text in enumerate(set(texts))}
        values = np.array([_date_cell(text) for text in days], dtype="datetime64[D]")
        return values[np.fromiter(map(days.__getitem__, texts), np.intp, len(texts))]
    if kind == "i":
        if not all(map(_INT_CELL.fullmatch, texts)):
            raise ValueError("bad integer cell")
        values = list(map(int, texts))
        if values and not (_INT64_MIN <= min(values) and max(values) <= _INT64_MAX):
            raise ValueError("integer outside int64")
        return values
    if kind == "f":
        if not all(map(_FLOAT_CELL.fullmatch, filter(None, texts))):
            raise ValueError("bad number cell")
        cells = map(float, texts) if all(texts) else (float(t) if t else math.nan for t in texts)
        values = np.fromiter(cells, np.float64, len(texts))
        if np.isinf(values).any():
            raise ValueError("non-finite number cell")
        return values
    return list(map(_CELLS[kind], texts))


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
        write_csv(path, self.columns(), text_rows([getattr(self, name) for name in self.columns()]))

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
