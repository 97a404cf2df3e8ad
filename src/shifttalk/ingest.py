"""Parse, validate and write the canonical input directory, plus cohort filters.

Canonical files (all UTF-8):

- participants.csv: participant_id,shift_type{day|night},unit_type{icu|non_icu},
  pos_affect,neg_affect,life_satisfaction
- hubs.csv: hub_id,location_category{ns|pat|lounge|med}
- rssi.csv: participant_id,shift_date,minute_index,hub_id,rssi
- recordings.jsonl: one JSON object per recording,
  {participant_id, shift_date, minute_index, frames}, where frames takes one
  of two layouts:

  - columnar (what write_cohort emits), one array per frame feature:
    {"log_pitch": [number|null, ...], "intensity": [...], "hf_lf_ratio": [...],
     "foreground_prob": [...][, "foreground": [true|false, ...]]}
  - row-of-dicts, one object per frame:
    [{"log_pitch": number|null, "intensity", "hf_lf_ratio", "foreground_prob"
      [, "foreground": true|false]}, ...]; "foreground" is read when the
    first frame carries it and is then required on every frame.

  Both layouts go through the same validator, so they accept and reject
  exactly the same recordings. Unknown frame keys are ignored.
- physiology.csv: participant_id,shift_date,walk_ratio,sleep_hours

Validation is strict (typed fields, range checks, referenced ids must exist)
except for RSSI values, which are clamped into [136, 193] with a warning
count, and minute indices, which may fall outside the shift window here and
are dropped later by filter_shift_window. In recordings.jsonl this means:

- participant_id is a JSON string and shift_date a YYYY-MM-DD string (as in
  every file); minute_index is a JSON integer (true and false are not
  integers);
- frame features are JSON numbers; numeric strings and booleans are
  rejected, and so are the literals NaN, Infinity and -Infinity anywhere on
  the line, and numbers that overflow to infinity;
- null is the only unvoiced marker and is allowed for log_pitch alone;
- foreground_prob lies in [0, 1] and hf_lf_ratio is non-negative;
- foreground, when present, holds JSON booleans only;
- every frame column has the same non-zero length.

Each violation raises MalformedRow with the file name and line number. The
csv files are read and written through model's one CSV rule (csv_rows,
write_csv, parse_date, ColumnTable.write_csv); the checks above are ingest's
own.

rssi.csv becomes one RssiTable, checked one row at a time, so the first bad
row in file order raises. recordings.jsonl becomes one RecordingTable, a row
per recording, and one FrameBlock holding every recording's frames end to
end. In either file a minute_index beyond the 64-bit integer range is stored
as the nearest 64-bit value, so filter_shift_window still drops it.
An integer or number cell must be written as the writers write one (model's
_int_cell and _float_cell): no surrounding spaces, leading "+", "_"
separators or non-ASCII digits.

_read_recordings is the one reader of recordings.jsonl: one structure check
per line (_recording), and the frame value rules (_frame_values) over about
_PARSE_BATCH_FRAMES frames at once, run again one recording at a time only
when they refuse, to find the first bad line. Where _split_offset allows, a
forked worker parses rssi.csv and the tail of recordings.jsonl while this
process parses the head (_parse_split); if either side refuses anything,
both files are parsed again in this process, so an rssi.csv error comes
first and a recordings.jsonl error names its line in the whole file.

write_cohort writes recordings.jsonl in batches sliced from the cohort's
frame columns. It refuses non-finite values (naming the first recording
that holds one) and builds a column's text in one array pass where every
value lies on the 1e-4 grid (_grid_text), else with one repr per value, so
the bytes are always those of json.dumps; _recording_json is that
per-value reference. The simulator rounds every frame value to the grid.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import threading
from collections import Counter
from dataclasses import replace
from itertools import islice
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import DuplicateParticipant, MalformedRow, UnknownHub
from .model import (
    RSSI_MAX,
    RSSI_MIN,
    SHIFT_MINUTES,
    Cohort,
    FRAME_FIELDS,
    DailyPhysiology,
    FrameBlock,
    HubCategory,
    HubRecord,
    ParticipantProfile,
    RecordingSegment,
    RecordingTable,
    RssiTable,
    ShiftType,
    UnitType,
    _float_cell,
    _int_cell,
    csv_rows,
    join_recordings,
    paged,
    parse_date,
    write_csv,
)

PARTICIPANTS_FILE = "participants.csv"
HUBS_FILE = "hubs.csv"
RSSI_FILE = "rssi.csv"
RECORDINGS_FILE = "recordings.jsonl"
PHYSIOLOGY_FILE = "physiology.csv"

CANONICAL_FILES = (PARTICIPANTS_FILE, HUBS_FILE, RSSI_FILE, RECORDINGS_FILE, PHYSIOLOGY_FILE)

MIN_DAYS = 5  # distinct shift dates a participant needs to stay in the cohort

PARTICIPANTS_HEADER = ["participant_id", "shift_type", "unit_type", "pos_affect", "neg_affect", "life_satisfaction"]
HUBS_HEADER = ["hub_id", "location_category"]
PHYSIOLOGY_HEADER = ["participant_id", "shift_date", "walk_ratio", "sleep_hours"]
_INT64 = np.iinfo(np.int64)
_BATCH_ROWS = 1 << 14  # rssi rows held as Python objects at once, which bounds peak memory
# a smaller recordings.jsonl is parsed in this process alone: on 2 CPUs a split
# of about 400 kB or less cost as much as it saved (fork, pipe and pickle)
_SPLIT_MIN_BYTES = 1 << 19
_RSSI_BYTE_COST = 3  # an rssi.csv byte takes about as long to parse as this many recordings.jsonl bytes
_PARSE_BATCH_FRAMES = 1 << 13  # frames _read_recordings holds as Python objects at once, which bounds peak memory


def _parse_int(text: str, field: str, file: str, line: int) -> int:
    try:
        return _int_cell(text)
    except ValueError:
        raise MalformedRow(file, line, f"bad integer for {field}: {text!r}") from None


def _parse_float(text: str, field: str, file: str, line: int) -> float:
    try:
        return _float_cell(text)
    except ValueError:
        raise MalformedRow(file, line, f"bad number for {field}: {text!r}") from None


def parse_participants(path: Path) -> dict[str, ParticipantProfile]:
    profiles: dict[str, ParticipantProfile] = {}
    for lineno, row in csv_rows(path, PARTICIPANTS_HEADER):
        pid, shift_raw, unit_raw, pos_raw, neg_raw, swls_raw = row
        if pid in profiles:
            raise DuplicateParticipant(pid)
        try:
            shift = ShiftType(shift_raw)
        except ValueError:
            raise MalformedRow(path.name, lineno, f"bad shift_type {shift_raw!r}") from None
        try:
            unit = UnitType(unit_raw)
        except ValueError:
            raise MalformedRow(path.name, lineno, f"bad unit_type {unit_raw!r}") from None
        pos = _parse_int(pos_raw, "pos_affect", path.name, lineno)
        neg = _parse_int(neg_raw, "neg_affect", path.name, lineno)
        swls = _parse_float(swls_raw, "life_satisfaction", path.name, lineno)
        if not 10 <= pos <= 50:
            raise MalformedRow(path.name, lineno, f"pos_affect {pos} outside [10, 50]")
        if not 10 <= neg <= 50:
            raise MalformedRow(path.name, lineno, f"neg_affect {neg} outside [10, 50]")
        if not 1.0 <= swls <= 7.0:
            raise MalformedRow(path.name, lineno, f"life_satisfaction {swls} outside [1, 7]")
        profiles[pid] = ParticipantProfile(pid, shift, unit, pos, neg, swls)
    return profiles


def parse_hubs(path: Path) -> dict[str, HubRecord]:
    hubs: dict[str, HubRecord] = {}
    for lineno, row in csv_rows(path, HUBS_HEADER):
        hub_id, cat_raw = row
        if hub_id in hubs:
            raise MalformedRow(path.name, lineno, f"duplicate hub_id {hub_id!r}")
        try:
            cat = HubCategory(cat_raw)
        except ValueError:
            raise MalformedRow(path.name, lineno, f"bad location_category {cat_raw!r}") from None
        hubs[hub_id] = HubRecord(hub_id, cat)
    return hubs


def parse_rssi(
    path: Path,
    hubs: dict[str, HubRecord],
    profiles: dict[str, ParticipantProfile],
    warnings: dict[str, int],
) -> RssiTable:
    """Read rssi.csv into an RssiTable, clamping rssi into [RSSI_MIN, RSSI_MAX].

    Each row is checked once, in file order (a date text only until it has
    parsed once), and its values appended to the columns, which become
    arrays every _BATCH_ROWS rows. The id columns hold the profiles' and
    hubs' own id strings. A minute_index beyond the 64-bit range is stored
    as the nearest 64-bit value, which lies outside the shift window like
    the original.
    """
    name = path.name
    parts: list[RssiTable] = []
    columns: tuple[list, ...] = ([], [], [], [], [])
    pids, dates, minutes, hub_ids, values = columns
    good_dates: set[str] = set()  # a file holds few distinct dates; only parsed ones are kept
    clamped = 0
    for lineno, row in csv_rows(path, RssiTable.columns()):
        pid, date_raw, minute_raw, hub_id, rssi_raw = row
        profile = profiles.get(pid)
        if profile is None:
            raise MalformedRow(name, lineno, f"unknown participant_id {pid!r}")
        hub = hubs.get(hub_id)
        if hub is None:
            raise UnknownHub(hub_id)
        if date_raw not in good_dates:
            parse_date(date_raw, name, lineno)
            good_dates.add(date_raw)
        minute = _parse_int(minute_raw, "minute_index", name, lineno)
        rssi = _parse_int(rssi_raw, "rssi", name, lineno)
        if rssi < RSSI_MIN or rssi > RSSI_MAX:
            clamped += 1
            rssi = min(max(rssi, RSSI_MIN), RSSI_MAX)
        pids.append(profile.participant_id)  # equal to pid; one string object per participant, not per row
        dates.append(date_raw)
        minutes.append(min(max(minute, _INT64.min), _INT64.max))
        hub_ids.append(hub.hub_id)
        values.append(rssi)
        if len(values) >= _BATCH_ROWS:
            parts.append(RssiTable(*columns))
            for column in columns:
                column.clear()
    parts.append(RssiTable(*columns))
    if clamped:
        warnings["rssi_clamped"] = warnings.get("rssi_clamped", 0) + clamped
    return RssiTable.concat(parts)


def parse_physiology(path: Path, profiles: dict[str, ParticipantProfile]) -> list[DailyPhysiology]:
    rows: list[DailyPhysiology] = []
    for lineno, row in csv_rows(path, PHYSIOLOGY_HEADER):
        pid, date_raw, walk_raw, sleep_raw = row
        if pid not in profiles:
            raise MalformedRow(path.name, lineno, f"unknown participant_id {pid!r}")
        shift_date = parse_date(date_raw, path.name, lineno)
        walk = _parse_float(walk_raw, "walk_ratio", path.name, lineno)
        sleep = _parse_float(sleep_raw, "sleep_hours", path.name, lineno)
        if not 0.0 <= walk <= 1.0:
            raise MalformedRow(path.name, lineno, f"walk_ratio {walk} outside [0, 1]")
        if not 0.0 <= sleep <= 24.0:
            raise MalformedRow(path.name, lineno, f"sleep_hours {sleep} outside [0, 24]")
        rows.append(DailyPhysiology(pid, shift_date, walk, sleep))
    return rows


def _reject_constant(name: str) -> NoReturn:
    raise ValueError(f"{name} is not a JSON number (null is the only unvoiced marker)")


# json.loads(line, parse_constant=_reject_constant), built once instead of per line.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)

FRAME_COLUMNS = ("log_pitch", "intensity", "hf_lf_ratio", "foreground_prob")
_NUMBER = frozenset({int, float})
_COLUMN_TYPES = {
    "log_pitch": (_NUMBER | {type(None)}, "a number or null"),
    "intensity": (_NUMBER, "a number"),
    "hf_lf_ratio": (_NUMBER, "a number"),
    "foreground_prob": (_NUMBER, "a number"),
    "foreground": (frozenset({bool}), "true or false"),
}


def _frame_values(columns: list[list]) -> list[np.ndarray]:
    """The frame value rules over frame lists (FRAME_COLUMNS, then optionally
    foreground, each of any length): the four feature columns as paged float
    arrays, or ValueError with the reason for the first rule broken. A
    "frame" index counts from the start of the lists."""
    for (name, (allowed, expected)), values in zip(_COLUMN_TYPES.items(), columns):
        if not set(map(type, values)) <= allowed:
            bad = next(i for i, v in enumerate(values) if type(v) not in allowed)
            raise ValueError(f"frame {bad}: {name} must be {expected}, got {values[bad]!r}")
    try:
        feats = [paged(values) for values in columns[:4]]
    except OverflowError:
        raise ValueError("frame value too large for a float") from None
    # Only a null pitch becomes NaN (no other column admits null), so this
    # leaves overflowed numbers such as 1e999 as the one non-finite case.
    if any(np.isinf(column).any() for column in feats):
        raise ValueError("non-finite frame value")
    _, _, hf_lf, fg_prob = feats
    if fg_prob.min(initial=0.0) < 0.0 or fg_prob.max(initial=1.0) > 1.0:
        bad = int(np.argmax((fg_prob < 0.0) | (fg_prob > 1.0)))
        raise ValueError(f"frame {bad}: foreground_prob outside [0, 1]")
    if hf_lf.min(initial=0.0) < 0.0:
        raise ValueError(f"frame {int(np.argmax(hf_lf < 0.0))}: hf_lf_ratio negative")
    return feats


def _recording(line: str | bytes, profiles: dict[str, ParticipantProfile], days: dict[str, np.datetime64],
               name: str, lineno: int) -> tuple:
    """The participant, date, minute and frame lists (FRAME_COLUMNS, then
    foreground when given) of one stripped recordings.jsonl line, after its
    structure checks; MalformedRow on the first one it fails. A line that
    is not UTF-8 comes as bytes. The frame values are left to
    _frame_values."""
    if type(line) is bytes:
        raise MalformedRow(name, lineno, "not UTF-8 text")
    try:
        obj = _DECODER.decode(line)
    except json.JSONDecodeError as exc:
        raise MalformedRow(name, lineno, f"invalid JSON: {exc.msg}") from None
    except ValueError as exc:
        raise MalformedRow(name, lineno, str(exc)) from None
    except RecursionError:
        raise MalformedRow(name, lineno, "invalid JSON: nested too deeply") from None
    try:
        pid, date_raw, minute, frames = obj["participant_id"], obj["shift_date"], obj["minute_index"], obj["frames"]
    except (KeyError, TypeError) as exc:
        raise MalformedRow(name, lineno, f"missing field: {exc}") from None
    profile = profiles.get(pid) if type(pid) is str else None
    if profile is None:
        raise MalformedRow(name, lineno, f"unknown participant_id {pid!r}")
    if type(minute) is not int:
        raise MalformedRow(name, lineno, f"minute_index must be an integer, got {minute!r}")
    shift_date = days.get(date_raw) if type(date_raw) is str else None
    if shift_date is None:
        shift_date = days[date_raw] = np.datetime64(parse_date(date_raw, name, lineno), "D")
    if type(frames) is list:  # one object per frame; "foreground" is read when the first frame holds it
        keys = FRAME_COLUMNS
        if frames and type(frames[0]) is dict and "foreground" in frames[0]:
            keys += ("foreground",)
        try:
            frames = {key: [row[key] for row in frames] for key in keys}
        except (KeyError, TypeError) as exc:
            raise MalformedRow(name, lineno, f"bad frame: {exc!r}") from None
    elif type(frames) is not dict:
        raise MalformedRow(name, lineno, "frames must be an object of arrays or a list of frames")
    names = FRAME_COLUMNS + (("foreground",) if "foreground" in frames else ())
    columns = [frames.get(column) for column in names]
    n = len(columns[0]) if type(columns[0]) is list else 0
    if not n or any(type(column) is not list or len(column) != n for column in columns):
        for column, values in zip(names, columns):
            if type(values) is not list:
                raise MalformedRow(name, lineno, f"frames need a {column} array")
        uneven = any(len(values) != n for values in columns)
        raise MalformedRow(name, lineno, "frame columns differ in length" if uneven else "frames must be non-empty")
    # the profile's own id string, one object per participant as in parse_rssi
    return profile.participant_id, shift_date, min(max(minute, _INT64.min), _INT64.max), columns


def _read_recordings(path: Path, profiles: dict[str, ParticipantProfile], start: int, stop: float) -> list[tuple]:
    """The recordings on the lines of recordings.jsonl that start at a byte
    in [start, stop), as join_recordings parts of about _PARSE_BATCH_FRAMES
    frames (see _checked_part); start must be a line start.

    Lines are counted as text mode counts them ("\n", "\r\n" and a lone
    "\r" each end one), the line at start being line 1. The first line that
    breaks a rule raises MalformedRow with its number and reason.
    """
    name = path.name
    days: dict[str, np.datetime64] = {}
    parts: list[tuple] = []
    # RecordingTable columns and the line number, an item per recording; FRAME_COLUMNS + foreground, an item per frame
    heads, values = tuple([] for _ in range(6)), tuple([] for _ in range(5))
    lineno = 0
    at = start  # the byte where the next raw line begins
    with path.open("rb") as fh:
        fh.seek(start)
        for raw in fh:
            if at >= stop:
                break
            at += len(raw)
            for piece in raw.splitlines() if b"\r" in raw else (raw,):  # bytes split at "\n", "\r\n" and "\r" only
                lineno += 1
                try:
                    line = piece.decode("utf-8").strip()
                except UnicodeDecodeError:  # _recording refuses it in its turn
                    line = piece
                if not line:
                    continue
                try:
                    pid, shift_date, minute, columns = _recording(line, profiles, days, name, lineno)
                except MalformedRow:
                    _checked_part(name, heads, values)  # an earlier line of the part may break a value rule
                    raise
                for store, column in zip(values, columns):
                    store.extend(column)
                n = len(columns[0])
                for store, value in zip(heads, (pid, shift_date, minute, n, len(columns) > 4, lineno)):
                    store.append(value)
                if len(values[0]) >= _PARSE_BATCH_FRAMES:
                    parts.append(_checked_part(name, heads, values))
                    for store in heads + values:
                        store.clear()
    if heads[0]:
        parts.append(_checked_part(name, heads, values))
    return parts


def _checked_part(name: str, heads: tuple[list, ...], values: tuple[list, ...]) -> tuple[RecordingTable, dict]:
    """The recordings gathered so far as a join_recordings part, after
    _frame_values over all their frames at once. Should that refuse, it runs
    over one recording at a time, and the first one it refuses raises
    MalformedRow at its line."""
    try:
        feats = _frame_values(list(values))
    except ValueError:
        frames = [iter(column) for column in values]
        for n, labelled, lineno in zip(*heads[3:]):
            try:
                _frame_values([list(islice(column, n)) for column in frames[:4 + labelled]])
            except ValueError as exc:
                raise MalformedRow(name, lineno, str(exc)) from None
        raise
    table = RecordingTable(*heads[:5])
    foreground = paged(np.zeros(len(feats[0]), bool), bool)
    foreground[np.repeat(table.labelled, table.n_frames)] = values[4]
    return table, dict(zip(FRAME_FIELDS, (*feats, foreground)))


def _split_offset(root: Path) -> int | None:
    """The byte of recordings.jsonl from which a forked worker parses it, or
    None for a serial parse.

    The parse is split when this process may run on two CPUs, can fork, runs
    no other Python thread (a fork copies only the calling one) and the file holds
    at least _SPLIT_MIN_BYTES. The worker also parses rssi.csv, so the
    offset weighs each of its bytes as _RSSI_BYTE_COST recordings bytes.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return None
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    size = (root / RECORDINGS_FILE).stat().st_size
    if cpus < 2 or size < _SPLIT_MIN_BYTES:
        return None
    return min(size, (size + _RSSI_BYTE_COST * (root / RSSI_FILE).stat().st_size) // 2)


def _line_start(path: Path, offset: int) -> int:
    """The first byte at or after offset that starts a line (or the end)."""
    if offset <= 0:
        return 0
    with path.open("rb") as fh:
        fh.seek(offset - 1)
        return offset - 1 + len(fh.readline())


def _pin(cpus: set[int]) -> None:
    """Run this process on cpus only, where the platform allows that."""
    if cpus and hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:  # a CPU this process may not use: stay as it is
            pass


def _parse_split(root: Path, hubs: dict[str, HubRecord], profiles: dict[str, ParticipantProfile],
                 warnings: dict[str, int], offset: int) -> tuple[RssiTable, list[tuple]] | None:
    """rssi.csv and recordings.jsonl, parsed by two processes.

    A forked worker parses rssi.csv (parse_rssi) and the lines of
    recordings.jsonl from the first line start at or after offset; this
    process parses the lines before it meanwhile. With exactly two CPUs this
    process is pinned to one and the worker to the other. Both read lines
    through _read_recordings; the result is the RSSI table and both sides'
    join_recordings parts, in file order. The worker sends back tables,
    arrays and strings through a pipe and leaves through os._exit whatever
    happens. None when either side refused anything or the worker did not
    return a result; the worker is reaped in every case.
    """
    path = root / RECORDINGS_FILE
    cut = _line_start(path, offset)
    # Left free on a 2-CPU machine, the scheduler often kept a fresh fork on
    # its parent's CPU, where the two sides took turns; so there each side
    # gets a CPU of its own. Other CPU counts were not measured and are left
    # to the scheduler.
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    parent_cpus = {min(cpus)} if len(cpus) == 2 else cpus
    read, write = os.pipe()
    _pin(parent_cpus)
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        _pin(cpus)
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        code = 1
        try:
            _pin(cpus - parent_cpus)
            os.close(read)
            tail_warnings: dict[str, int] = {}
            rssi = parse_rssi(root / RSSI_FILE, hubs, profiles, tail_warnings)
            tail = _read_recordings(path, profiles, cut, math.inf)
            with os.fdopen(write, "wb") as fh:
                pickle.dump((rssi, tail_warnings, tail), fh, protocol=pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    result = None
    try:
        with os.fdopen(read, "rb") as fh:
            head = _read_recordings(path, profiles, 0, cut)
            result = pickle.load(fh)  # only this program's worker writes to the pipe
    except Exception:  # the serial parse that follows raises it with its file and line
        pass
    finally:
        _pin(cpus)
        if result is None:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    if result is None or os.waitstatus_to_exitcode(status) != 0:
        return None
    rssi, tail_warnings, tail = result
    warnings.update(tail_warnings)
    return rssi, head + tail


def parse_cohort(dir_path: str | Path) -> Cohort:
    """Parse the five canonical files into a validated Cohort.

    Row counts are cohort.counts; clamp events land in cohort.warnings.
    rssi.csv and recordings.jsonl are parsed by two processes where
    _split_offset allows, else in this one, where _read_recordings reads
    recordings.jsonl once and raises the first refusal with its line. When
    the split refuses anything, the serial parse runs and raises it.
    """
    root = Path(dir_path)
    for name in CANONICAL_FILES:
        if not (root / name).is_file():
            raise FileNotFoundError(root / name)
    warnings: dict[str, int] = {}
    profiles = parse_participants(root / PARTICIPANTS_FILE)
    hubs = parse_hubs(root / HUBS_FILE)
    offset = _split_offset(root)
    parsed = None if offset is None else _parse_split(root, hubs, profiles, warnings, offset)
    if parsed is None:
        rssi = parse_rssi(root / RSSI_FILE, hubs, profiles, warnings)
        parsed = rssi, _read_recordings(root / RECORDINGS_FILE, profiles, 0, math.inf)
    rssi, parts = parsed
    recordings, frames = join_recordings(parts)
    physiology = parse_physiology(root / PHYSIOLOGY_FILE, profiles)
    return Cohort(profiles, hubs, recordings, frames, rssi, physiology, warnings)


# --- writers (shared by the simulator and round-trip tests) ---

# Frame values on this decimal grid get their JSON text from whole-array
# digit arithmetic instead of one repr per value; the simulator rounds to it.
# At most 4: repr switches to exponent notation below 1e-4.
GRID_DECIMALS = 4
_GRID_SCALE = 10.0 ** GRID_DECIMALS
# bound on |v| that keeps k = rint(|v| * scale) below 1e15 (at most 15 digits)
_GRID_LIMIT = 10.0 ** (15 - GRID_DECIMALS)
_BATCH_FRAMES = 1 << 16  # frames whose text is built in one array pass


def _text_tables() -> tuple[np.ndarray, ...]:
    """Digit tables for _grid_text; a NUL byte marks a cell the text drops.

    Indexed by a 4-digit group q (a fraction f): the group's digits as one
    uint32 word in full, with leading zeros dropped, and the same with 0
    written "0" (the units group); "." + the fraction's digits with trailing
    zeros dropped (one kept) + ",", as one uint64 word.
    """
    digits = (np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")).copy()  # row q: q's 4 digits
    lead = digits * np.logical_or.accumulate(digits != ord("0"), axis=1)
    units = lead.copy()
    units[0, 3] = ord("0")
    d = GRID_DECIMALS
    fraction = digits[:10 ** d, 4 - d:]
    kept = np.logical_or.accumulate(fraction[:, ::-1] != ord("0"), axis=1)[:, ::-1]
    kept[:, 0] = True
    frac = np.zeros((10 ** d, 8), np.uint8)
    frac[:, 0] = ord(".")
    frac[:, 1:d + 1] = fraction * kept
    frac[:, d + 1] = ord(",")
    return (digits.view(np.uint32).ravel(), lead.view(np.uint32).ravel(),
            units.view(np.uint32).ravel(), frac.view(np.uint64).ravel())


_FULL, _LEAD, _UNITS, _FRAC = _text_tables()
_MINUS, _NULL = np.frombuffer(b"\0\0\0-null", np.uint32)
_NULL_TAIL = np.frombuffer(b",\0\0\0\0\0\0\0", np.uint64)[0]


def write_cohort(cohort: Cohort, dir_path: str | Path) -> None:
    """Write a cohort back out in the canonical formats (deterministic bytes).

    Each file is first written to a temporary sibling; the canonical names
    are replaced only once every file has been written, so a refused write
    (a non-finite frame value) leaves the directory as it was.
    """
    root = Path(dir_path)
    root.mkdir(parents=True, exist_ok=True)
    temporary = {name: root / f"{name}.tmp" for name in CANONICAL_FILES}
    try:
        write_csv(temporary[PARTICIPANTS_FILE], PARTICIPANTS_HEADER, _columns(
            [(p.participant_id, p.shift_type.value, p.unit_type.value, p.pos_affect, p.neg_affect, p.life_satisfaction)
             for _, p in sorted(cohort.profiles.items())], (object, object, object, np.int64, np.int64, np.float64)))
        write_csv(temporary[HUBS_FILE], HUBS_HEADER, _columns(
            [(hub_id, h.location_category.value) for hub_id, h in sorted(cohort.hubs.items())], (object, object)))
        cohort.rssi.write_csv(temporary[RSSI_FILE])
        with temporary[RECORDINGS_FILE].open("wb") as fh:
            offsets = np.concatenate(([0], np.cumsum(cohort.recordings.n_frames)))  # each recording's first frame
            starts = np.flatnonzero(np.diff(offsets[:-1] // _BATCH_FRAMES, prepend=-1)).tolist()
            for lo, hi in zip(starts, starts[1:] + [len(cohort.recordings)]):
                fh.write(_batch_lines(cohort.recordings, cohort.frames, offsets, lo, hi))
        write_csv(temporary[PHYSIOLOGY_FILE], PHYSIOLOGY_HEADER, _columns(
            [(d.participant_id, d.shift_date, d.walk_ratio, d.sleep_hours) for d in cohort.physiology],
            (object, "datetime64[D]", np.float64, np.float64)))
    except BaseException:
        for path in temporary.values():
            path.unlink(missing_ok=True)
        raise
    for name, path in temporary.items():
        os.replace(path, root / name)


def _columns(rows: list[tuple], dtypes: tuple) -> list[np.ndarray]:
    """Row tuples as one numpy column per dtype."""
    return [np.array(column, dtype) for column, dtype in zip(list(zip(*rows)) or [()] * len(dtypes), dtypes)]


def _grid_text(values: np.ndarray) -> tuple[bytes, np.ndarray] | None:
    """JSON text of a float column with each value followed by ",", and the
    end offset of each value's text; None when a value is off the grid.

    A non-NaN value v is on the grid when k = rint(|v| * 1e4) gives
    k / 1e4 == |v| and |v| < 1e11 (so |v| is 0 or at least 1e-4). Then
    repr(v) is exactly the fixed-point text of k with trailing fraction
    zeros cut (one kept): k has at most 15 digits, two decimals of at most
    15 significant digits never round to the same double, and repr writes
    exponents -4..15 in fixed notation. NaN is written as null; infinities
    must be refused before this is called.

    Each value gets one row of a byte matrix (sign, integer digit groups,
    ".", fraction, ","), filled from _text_tables with NUL in every cell the
    text leaves out; one bytes.translate drops the NULs.
    """
    null = np.isnan(values)
    mag = np.abs(values)
    on = mag < _GRID_LIMIT  # False for NaN; never scales a huge value, so no overflow
    k = np.rint(np.where(on, mag, 0.0) * _GRID_SCALE)
    on &= k / _GRID_SCALE == mag
    if not (on | null).all():
        return None
    whole, frac = np.divmod(k.astype(np.int64), 10 ** GRID_DECIMALS)
    groups = 3 if whole.max(initial=0) >= 10_000 else 1  # 4-digit integer groups (k < 1e15)
    rows = np.empty((len(values), groups + 3), np.uint32)  # words of 4 bytes
    rows[:, 0] = np.where(np.signbit(values) & ~null, _MINUS, 0)
    seen = np.zeros(len(values), bool)  # a higher integer group is non-zero
    for g in range(groups):
        q = whole // 10 ** (4 * (groups - 1 - g)) % 10_000
        word = (_UNITS if g == groups - 1 else _LEAD)[q]
        rows[:, 1 + g] = np.where(seen, _FULL[q], word)
        seen |= q != 0
    rows[:, groups] = np.where(null, _NULL, rows[:, groups])
    rows[:, groups + 1:] = np.where(null, _NULL_TAIL, _FRAC[frac]).view(np.uint32).reshape(-1, 2)
    text = rows.tobytes().translate(None, b"\0")
    return text, np.flatnonzero(np.frombuffer(text, np.uint8) == ord(",")) + 1


def _column_spans(values: np.ndarray, offsets: np.ndarray) -> list:
    """Per-recording JSON array bodies of one frame column of a batch.

    offsets[i]:offsets[i + 1] are recording i's frames. A column with any
    value off the grid falls back to one repr per value (NaN, which only
    pitch may hold here, written as null).
    """
    grid = _grid_text(values)
    if grid is None:
        return [_json_floats(values[a:b]).replace("nan", "null").encode()
                for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist())]
    text, ends = grid
    bounds = np.concatenate(([0], ends))[offsets]  # each recording's first byte, and the end
    lo = bounds[:-1]
    hi = np.maximum(bounds[1:] - 1, lo)  # drop the last value's ","
    view = memoryview(text)
    return [view[a:b] for a, b in zip(lo.tolist(), hi.tolist())]


def _batch_lines(recordings: RecordingTable, frames: FrameBlock, offsets: np.ndarray, lo: int, hi: int) -> bytes:
    """The recordings.jsonl lines of recordings lo..hi-1, one pass per frame column.

    offsets[i] is recording i's first frame in frames. Same bytes as joining
    _recording_json over those recordings. A value JSON cannot carry (an
    infinite pitch, or a non-finite value in any other column) raises
    ValueError naming the first recording that holds one.
    """
    first, last = offsets[lo], offsets[hi]
    bounds = offsets[lo:hi + 1] - first
    # float64 whatever the frames hold: repr writes a float32 value widened exactly
    columns = [getattr(frames, name)[first:last].astype(np.float64, copy=False) for name in FRAME_COLUMNS]
    bad = np.isinf(columns[0])
    for values in columns[1:]:
        bad |= ~np.isfinite(values)
    days = np.datetime_as_string(recordings.shift_date[lo:hi]).tolist()
    pids, minutes = recordings.participant_id[lo:hi].tolist(), recordings.minute_index[lo:hi].tolist()
    if bad.any():
        i = int(np.searchsorted(bounds, np.argmax(bad), side="right")) - 1
        raise _non_finite(pids[i], days[i], minutes[i])
    spans = [_column_spans(values, bounds) for values in columns]
    keys = [f'"{name}":['.encode() for name in FRAME_COLUMNS]
    heads: dict[tuple[str, str], bytes] = {}
    parts: list = []
    for i, (pid, day, minute, labelled) in enumerate(zip(pids, days, minutes, recordings.labelled[lo:hi].tolist())):
        head = heads.get((pid, day))
        if head is None:
            head = heads[pid, day] = (f'{{"participant_id":{json.dumps(pid)},'
                                      f'"shift_date":"{day}","minute_index":').encode()
        parts += (head, b"%d" % minute, b',"frames":{', keys[0], spans[0][i], b"],",
                  keys[1], spans[1][i], b"],", keys[2], spans[2][i], b"],", keys[3], spans[3][i], b"]")
        if labelled:
            parts.append(_foreground_json(frames.foreground[first + bounds[i]:first + bounds[i + 1]]).encode())
        parts.append(b"}}\n")
    return b"".join(parts)


def _json_floats(values: np.ndarray) -> str:
    return ",".join(map(repr, values.tolist()))


def _foreground_json(labels: np.ndarray) -> str:
    return ',"foreground":[' + ",".join("true" if x else "false" for x in labels.tolist()) + "]"


def _non_finite(participant_id: str, shift_date: str, minute_index: int) -> ValueError:
    return ValueError(f"non-finite frame value in recording {participant_id} {shift_date} minute {minute_index}")


def _recording_json(rec: RecordingSegment) -> str:
    """One recordings.jsonl line from one repr per value: the reference that
    write_cohort's batch writer must match byte for byte.

    Each frame column is one array, so the line carries each key once rather
    than once per frame; NaN pitch is written as null. A value JSON cannot
    carry raises ValueError, since the reader would reject the line.
    """
    fb = rec.frames
    pitch = _json_floats(fb.log_pitch).replace("nan", "null")
    intensity, hf_lf, prob = (_json_floats(c) for c in (fb.intensity, fb.hf_lf_ratio, fb.foreground_prob))
    # a finite float's repr has no "n"; "nan", "inf" and "-inf" do
    if "inf" in pitch or "n" in intensity or "n" in hf_lf or "n" in prob:
        raise _non_finite(rec.participant_id, rec.shift_date.isoformat(), rec.minute_index)
    fg = "" if fb.foreground is None else _foreground_json(fb.foreground)
    head = json.dumps(rec.participant_id)
    return (
        f'{{"participant_id":{head},"shift_date":"{rec.shift_date.isoformat()}",'
        f'"minute_index":{rec.minute_index},"frames":{{'
        f'"log_pitch":[{pitch}],"intensity":[{intensity}],'
        f'"hf_lf_ratio":[{hf_lf}],"foreground_prob":[{prob}]{fg}}}}}'
    )


# --- cohort filters ---


def filter_shift_window(cohort: Cohort) -> tuple[Cohort, dict[str, int]]:
    """Keep only events inside the 12-hour shift window [0, 720).

    minute_index 0 is the shift start for both day and night schedules. The
    returned dict counts the dropped events; drops are never fatal.
    """
    recordings, rssi = cohort.recordings.minute_index, cohort.rssi.minute_index
    kept = _select(cohort, (recordings >= 0) & (recordings < SHIFT_MINUTES), (rssi >= 0) & (rssi < SHIFT_MINUTES))
    dropped = {
        "recordings_dropped": len(cohort.recordings) - len(kept.recordings),
        "rssi_dropped": len(cohort.rssi) - len(kept.rssi),
    }
    return kept, dropped


def _select(cohort: Cohort, recordings: np.ndarray, rssi: np.ndarray, **changes) -> Cohort:
    """The cohort with the changes and only the recordings (with their frames)
    and RSSI rows where the masks are True. A table that loses no row is
    kept as it is, not copied, and so are the frames."""
    if not recordings.all():
        changes.update(recordings=cohort.recordings.select(recordings),
                       frames=cohort.frames.select(np.repeat(recordings, cohort.recordings.n_frames)))
    return replace(cohort, rssi=cohort.rssi if rssi.all() else cohort.rssi.select(rssi), **changes)


def filter_min_days(cohort: Cohort, min_days: int = MIN_DAYS) -> Cohort:
    """Keep participants with recordings on at least min_days distinct shift dates."""
    if min_days < 1:
        raise ValueError("min_days must be >= 1")
    table = cohort.recordings
    days = Counter(pid for pid, _ in set(zip(table.participant_id.tolist(), table.shift_date.tolist())))
    keep = {pid for pid, n in days.items() if n >= min_days}

    def kept(ids: np.ndarray) -> np.ndarray:
        return np.fromiter(map(keep.__contains__, ids), bool, len(ids))

    return _select(cohort, kept(table.participant_id), kept(cohort.rssi.participant_id),
                   profiles={pid: p for pid, p in cohort.profiles.items() if pid in keep}, hubs=dict(cohort.hubs),
                   physiology=[d for d in cohort.physiology if d.participant_id in keep],
                   warnings=dict(cohort.warnings))
