"""Core domain types shared across the pipeline.

Time is modeled as (shift_date, minute_index since shift start); minute 0 is
the start of the 12-hour shift regardless of whether it is a day or night
schedule, so the analytic code never touches wall clocks.

The input rows live in parallel numpy columns from parse to features: one
RssiTable, one RecordingTable with one FrameBlock holding every recording's
frames end to end, and one PhysiologyTable. A parsed FrameBlock is the five
arrays of frames.bin as read-only views of one map of the file; a pass over
whole frame columns walks them FRAME_WINDOW frames at a time
(frame_windows) and releases the map's pages after each window (release).
The cohort filters return boolean masks, over the recordings and over the
participant codes; the parsed tables are read in place, and no frame is
copied. Every CSV output table is a ColumnTable. The row tables name a
participant, and an RSSI row its hub, by an integer code from the parse
on, which keeps its meaning to the features: a participant's code is its
id's rank among the sorted profile ids, a hub's its id's rank among the
sorted hub ids. A shift's key is one int64, made here alone, that sorts as
its (participant code, date) pair. Id strings live only in the profiles,
the hubs and the outputs.

The one CSV rule of the package lives here. csv_rows reads a file under an
exact header, one field per column, and a bad row raises MalformedRow naming
file:line. csv_blocks reads the same rows a block of lines at a time, as
byte offsets into the block for column-wise checks (_int_cells reads
integer cells as _int_cell does). write_csv is the one writer: it takes
parallel columns and builds the text column by column, in batches of rows.
A cell is typed by its column: floats as their repr with NaN as an empty
field, booleans as 0/1, dates as YYYY-MM-DD only (parse_date), text quoted
as the csv module's excel dialect quotes it. read_columns is the one
reader: one loop over the rows csv_rows yields reads each cell with its
column's rule in _CELLS, so the first bad row or field in file order
raises. ColumnTable.write_csv and read_csv apply the rule to a table,
write_csv and read_columns to loose columns. read_json reads a JSON file,
whose bad text or missing key raises MalformedRow naming file:line too.
"""

from __future__ import annotations

import csv
import json
import math
import mmap
import re
from dataclasses import dataclass, field, fields
from datetime import date
from enum import Enum, IntEnum
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    header is exactly ``header`` and whose rows have one field per column;
    a row's number is the physical line it starts on. A byte that is not
    UTF-8 is read as its lone surrogate (errors="surrogateescape"), so the
    row that holds one raises MalformedRow as not UTF-8 text, before its
    other checks; only a row that is not ASCII is searched for one."""
    expected = list(header)
    rows = 0  # the rows read so far, the header's among them
    with path.open(newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        line = 1  # where the next row starts
        try:
            for row in reader:
                rows += 1
                text = "".join(row)
                if not text.isascii() and _ESCAPED.search(text):
                    raise MalformedRow(path.name, line, "not UTF-8 text")
                if rows == 1:
                    if row != expected:
                        raise MalformedRow(path.name, line, f"bad header {row!r}, expected {expected!r}")
                elif row:
                    if len(row) != len(expected):
                        raise MalformedRow(path.name, line, f"expected {len(expected)} fields, got {len(row)}")
                    yield line, row
                line = reader.line_num + 1
        except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
            raise MalformedRow(path.name, line, str(exc)) from None
    if rows == 0:
        raise MalformedRow(path.name, 1, "missing header")


_ESCAPED = re.compile("[\udc80-\udcff]")  # a byte that is not UTF-8, as surrogateescape reads it


def line_blocks(fh: BinaryIO, batch_rows: int,
                read_bytes: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """Blocks of at most batch_rows whole lines of a file opened in binary
    mode, read read_bytes at a time, lines counted as text mode counts them
    ("\\n", "\\r\\n" and a lone "\\r" each end one): the block's bytes, where
    each line starts in them and where its text stops (before its line
    end), and the number of the block's first line."""
    tail, lineno = b"", 1
    while True:
        chunk = fh.read(read_bytes)
        data = tail + chunk
        if not data:
            return
        a = np.frombuffer(data, np.uint8)
        stop = np.flatnonzero((a == 10) | (a == 13))
        stop = stop[(a[stop] == 13) | (a[stop - 1] != 13) | (stop == 0)]  # the LF of a CRLF ends no line itself
        after = stop + 1 + ((a[stop] == 13) & (a[np.minimum(stop + 1, len(a) - 1)] == 10))
        if chunk and a[-1] == 13:  # a CR that ends the bytes read may begin a CRLF
            stop, after = stop[:-1], after[:-1]
        if not chunk and (not len(after) or after[-1] < len(a)):  # the last line has no line end
            stop, after = np.append(stop, len(a)), np.append(after, len(a))
        begin = np.concatenate(([0], after[:-1]))
        for i in range(0, len(stop), batch_rows):
            j = min(i + batch_rows, len(stop))
            base = begin[i]
            yield a[base:after[j - 1]], begin[i:j] - base, stop[i:j] - base, lineno + i
        if not chunk:
            return
        lineno += len(stop)
        tail = data[after[-1]:] if len(after) else data


def csv_blocks(path: Path, header: Sequence[str], batch_rows: int, read_bytes: int) -> Iterator[tuple]:
    """The rows csv_rows reads from a file, a block of at most batch_rows at
    a time (line_blocks), each block as (bytes, field starts, field ends,
    lines, refusal): row i's field k is bytes[start[i, k]:end[i, k]], and
    refusal, if not None, is the MalformedRow of the row that ended the
    block, to raise once its rows have been checked. A block of lines that
    holds no quote and no line longer than csv's field limit is split at
    line ends and commas by numpy (_plain_rows); from the first block that
    does, csv_rows splits the rest of the file (_quoted_rows). Both feed
    the same checks; the first way is kept because csv_rows alone takes
    about as long on a quote-free file as splitting and checking it so."""
    rows = csv_rows(path, header)
    try:
        next(rows, None)  # csv_rows refuses a bad header (and a first row it cannot split)
    finally:
        rows.close()
    with path.open("rb") as fh:
        for a, begin, stop, first in line_blocks(fh, batch_rows, read_bytes):
            if (a == ord('"')).any() or (stop - begin).max() > csv.field_size_limit():
                yield from _quoted_rows(path, header, first, batch_rows)
                return
            yield a, *_plain_rows(a, begin, stop, first, path.name, len(header))


def _plain_rows(a: np.ndarray, begin: np.ndarray, stop: np.ndarray, first: int, name: str, width: int) -> tuple:
    """The rows of a block of csv lines with no quote (see csv_blocks), each
    line one row of comma-separated fields, up to the first line that is
    not UTF-8 text or has other than width fields. Blank lines, and the
    header on line 1, are no rows."""
    cut, refusal = len(begin), None
    if a.max() > 127:
        try:
            str(a, "utf-8")
        except UnicodeDecodeError as exc:
            cut = int(np.searchsorted(stop, exc.start, side="right"))
            refusal = MalformedRow(name, first + cut, "not UTF-8 text")
    commas = np.flatnonzero(a == ord(","))
    fields = np.searchsorted(commas, stop) - np.searchsorted(commas, begin) + 1
    row = np.flatnonzero(stop[:cut] > begin[:cut])
    if first == 1:
        row = row[row > 0]
    wrong = row[fields[row] != width]
    if len(wrong):
        row = row[row < wrong[0]]
        refusal = MalformedRow(name, first + int(wrong[0]), f"expected {width} fields, got {fields[wrong[0]]}")
    comma = commas[np.searchsorted(commas, begin[row])[:, None] + np.arange(width - 1)]
    return np.column_stack((begin[row], comma + 1)), np.column_stack((comma, stop[row])), row + first, refusal


def _quoted_rows(path: Path, header: Sequence[str], first: int, batch_rows: int) -> Iterator[tuple]:
    """The rows csv_rows reads from a file on and after line first, in
    csv_blocks' form: blocks of at most batch_rows rows, the one that
    csv_rows refuses ending the last."""
    rows = ((line, row) for line, row in csv_rows(path, header) if line >= first)
    refusal = None
    while refusal is None:
        block = []
        try:
            for item in rows:
                block.append(item)
                if len(block) == batch_rows:
                    break
        except MalformedRow as exc:
            refusal = exc
        cells = [cell.encode() for _, row in block for cell in row]
        size = np.fromiter(map(len, cells), np.int64, len(cells)).reshape(-1, len(header))
        end = np.cumsum(size + 1).reshape(-1, len(header)) - 1  # each field followed by one byte
        yield (np.frombuffer(b",".join(cells) + b",", np.uint8), end - size, end,
               np.array([line for line, _ in block], np.int64), refusal)
        if len(block) < batch_rows:
            return


def read_json(path: str | Path, keys: Sequence[str]) -> dict:
    """The JSON object in a file, which must hold each of keys; a byte that
    is not UTF-8 text raises MalformedRow at its line, text that is not JSON
    at the line json names, and a missing key at line 1. Lines are counted
    as text mode counts them."""
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRow(path.name, _newlines(data[:exc.start].decode()).count("\n") + 1, "not UTF-8 text") from None
    try:
        payload = json.loads(_newlines(text))
    except json.JSONDecodeError as exc:
        raise MalformedRow(path.name, exc.lineno, f"invalid JSON: {exc.msg}") from None
    for key in keys:
        if not isinstance(payload, dict) or key not in payload:
            raise MalformedRow(path.name, 1, f"missing key {key!r}")
    return payload


def _newlines(text: str) -> str:
    """text with each "\\r\\n" and lone "\\r" read as "\\n", as text mode reads it."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


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
    if type(text) is not str or len(text) != 10 or text[4] != "-" or text[7] != "-":  # a JSON value may be no str
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


def _int_cells(a: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each field a[start:end] of a csv_blocks block as an integer, one
    beyond the 64-bit range as the nearest 64-bit value, and where a field
    is no integer as _int_cell reads one: an optional "-", then ASCII
    digits, within the digit limit of Python's int."""
    negative = (end > start) & (a[np.minimum(start, len(a) - 1)] == ord("-"))
    first = start + negative
    size = end - first
    value, bad = np.zeros(len(start), np.int64), size == 0
    for digits in distinct(size[size > 0]).tolist():
        rows = np.flatnonzero(size == digits)
        cells = sliding_window_view(a, digits)[first[rows]] - np.uint8(ord("0"))
        bad[rows] = (cells > 9).any(axis=1)
        if digits <= 18:  # exact in 64 bits
            number = np.zeros(len(rows), np.int64)
            for column in cells.T:
                number = number * 10 + column
            value[rows] = np.where(negative[rows], -number, number)
            continue
        for i in rows[~bad[rows]].tolist():
            try:
                value[i] = min(max(int(a[start[i]:end[i]].tobytes()), _INT64_MIN), _INT64_MAX)
            except ValueError:  # past int's digit limit
                bad[i] = True
    return value, bad


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
        for name, dtype in zip(names, self.DTYPES, strict=True):
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

    participant: np.ndarray = ()  # int64 code: the id's rank among the sorted profile ids
    shift_date: np.ndarray = ()  # datetime64[D]
    minute_index: np.ndarray = ()  # int64
    hub: np.ndarray = ()  # int64 code: the id's rank among the sorted hub ids
    rssi: np.ndarray = ()  # int64, clamped to [RSSI_MIN, RSSI_MAX] at parse time

    DTYPES = (np.int64, "datetime64[D]", np.int64, np.int64, np.int64)


@dataclass(eq=False)
class PhysiologyTable(ColumnTable):
    """Daily physiology rows in file order."""

    participant: np.ndarray = ()  # int64 code, as RssiTable's
    shift_date: np.ndarray = ()  # datetime64[D]
    walk_ratio: np.ndarray = ()  # float64 in [0, 1]
    sleep_hours: np.ndarray = ()  # float64 in [0, 24]

    DTYPES = (np.int64, "datetime64[D]", np.float64, np.float64)


@dataclass(eq=False)
class FrameBlock(ColumnTable):
    """Frames, a cohort's or one recording's, one row per frame.

    Recordings routinely hold thousands of frames, so frames live in parallel
    numpy arrays rather than object lists. Every frame carries a label byte
    in ``foreground``, but a recording's labels count only where it is
    labelled (RecordingTable.labelled, RecordingSegment.labelled; see
    ForegroundFilter.mask). A parsed block is frames.bin's five arrays,
    read-only views of its map.
    """

    log_pitch: np.ndarray = ()  # float64, NaN = unvoiced
    intensity: np.ndarray = ()  # float64
    hf_lf_ratio: np.ndarray = ()  # float64
    foreground_prob: np.ndarray = ()  # float64
    foreground: np.ndarray = ()  # bool: the external own-speech label

    DTYPES = (np.float64,) * 4 + (bool,)


@dataclass(eq=False)
class RecordingTable(ColumnTable):
    """Recordings in file order; the cohort's FrameBlock holds their frames
    end to end in this order. Only a labelled recording's foreground labels
    are used, by the rating pass (ForegroundFilter.mask)."""

    participant: np.ndarray = ()  # int64 code, as RssiTable's
    shift_date: np.ndarray = ()  # datetime64[D]
    minute_index: np.ndarray = ()  # int64
    n_frames: np.ndarray = ()  # int64
    labelled: np.ndarray = ()  # bool: the input carried foreground labels

    DTYPES = (np.int64, "datetime64[D]", np.int64, np.int64, bool)


_DAY_ONE = np.datetime64("0001-01-01", "D")


def shift_codes(participants: np.ndarray, days: np.ndarray) -> np.ndarray:
    """One int64 per (participant code, shift date), ordered as those pairs are."""
    return participants << 32 | (days - _DAY_ONE).astype(np.int64)


def shift_parts(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The participant codes and shift dates of shift codes."""
    return codes >> 32, _DAY_ONE + (codes & 0xFFFFFFFF)


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values, as ``np.unique(values)`` gives them (NaNs
    as one, last); that call imports numpy.ma on first use (13 ms, about 2 MB)."""
    values = np.sort(values)  # NaNs last
    first = np.ones(len(values), dtype=bool)
    first[1:] = (values[1:] != values[:-1]) & ~np.isnan(values[:-1])
    return values[first]


def median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-D float array, bit for bit: the same
    partition, then the mean of its middle value or two, or its last value
    if that is NaN. np.median imports numpy.ma for that last check."""
    middle = [len(values) // 2 - 1, len(values) // 2] if len(values) % 2 == 0 else [len(values) // 2]
    part = np.partition(values, middle + [-1])
    return float(part[-1] if np.isnan(part[-1]) else part[middle].mean())


def mapped(n: int, dtype=np.float64) -> np.ndarray:
    """n zero values in memory mapped for them alone, which goes back to the
    system when the array is dropped; malloc keeps freed blocks this small resident.
    The row columns of a parse are gathered into such memory; frames are
    never copied into it (frames.bin is mapped read-only instead, see release).
    The mapping is private: a shared anonymous one is backed by shmem, whose
    pages cost more to fault in."""
    return np.frombuffer(mmap.mmap(-1, max(n * np.dtype(dtype).itemsize, 1), flags=mmap.MAP_PRIVATE), dtype, n)


FRAME_WINDOW = 1 << 16  # frames that a pass over whole frame columns takes at once


def frame_windows(n: int) -> Iterator[slice]:
    """Slices of at most FRAME_WINDOW frames, in order, that cover n frames."""
    return (slice(a, min(a + FRAME_WINDOW, n)) for a in range(0, n, FRAME_WINDOW))


_DONTNEED = getattr(mmap, "MADV_DONTNEED", None)


def release(*columns: np.ndarray) -> None:
    """Drop from this process the resident pages of each read-only file map
    that a column is a view of; they are read again from the page cache
    when next touched, so a pass that releases after each window holds one
    window of the file. An array of other memory is left alone (dropping
    the pages of a writable map would lose its values), and so is every
    array where the system has no MADV_DONTNEED."""
    maps = {}
    for base in columns:
        while isinstance(base, np.ndarray):
            base = base.base
        if isinstance(base, memoryview) and base.readonly and isinstance(base.obj, mmap.mmap):
            maps[id(base.obj)] = base.obj
    if _DONTNEED is not None:
        for file_map in maps.values():
            file_map.madvise(_DONTNEED)


@dataclass
class RecordingSegment:
    """One VAD-triggered ~20 s capture anchored to a shift minute."""

    participant_id: str
    shift_date: date
    minute_index: int
    frames: FrameBlock
    labelled: bool  # the input carried foreground labels (frames.foreground)


@dataclass
class Cohort:
    """Everything parsed from one canonical input directory, as parsed: the
    extraction reads it through the filters' masks and never rebuilds it."""

    profiles: dict[str, ParticipantProfile] = field(default_factory=dict)
    hubs: dict[str, HubRecord] = field(default_factory=dict)
    recordings: RecordingTable = field(default_factory=RecordingTable)
    frames: FrameBlock = field(default_factory=FrameBlock)  # every recording's, in table order
    rssi: RssiTable = field(default_factory=RssiTable)
    physiology: PhysiologyTable = field(default_factory=PhysiologyTable)
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
