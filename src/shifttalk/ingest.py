"""Parse, validate and write the canonical input directory, plus cohort filters.

Canonical files (all UTF-8):

- participants.csv: participant_id,shift_type{day|night},unit_type{icu|non_icu},
  pos_affect,neg_affect,life_satisfaction
- hubs.csv: hub_id,location_category{ns|pat|lounge|med}
- rssi.csv: participant_id,shift_date,minute_index,hub_id,rssi
- recordings.jsonl: one JSON object per line and recording, its head:
  {"participant_id", "shift_date", "minute_index", "n_frames": a positive
  integer[, "labelled": true|false]}. Other keys are ignored, except
  "frames": a line that holds its frames inline is refused.
- physiology.csv: participant_id,shift_date,walk_ratio,sleep_hours
- frames.bin (binary): the frames of every recording, in line order, as five
  NEP 1 .npy arrays back to back, each over all frames: log_pitch, intensity,
  hf_lf_ratio and foreground_prob as little-endian float64, then foreground
  as bool (read only for a recording whose head says "labelled": true).

All six files are required; a missing one raises FileNotFoundError naming it.

The frames.bin reader builds no Python object from the file. It refuses a
bad magic, any dtype but that exact one, a shape other than 1-D with the
n_frames' sum, an array the file ends inside, a label byte other than 0 and
1, and any byte after the last array, each as MalformedRow("frames.bin", k,
reason) with the array's number k (1-5) in place of a line. It walks the
five headers, then maps the file once, read-only: the four value columns of
the parsed FrameBlock are views of that map, and foreground is a copy of
its own (model.mapped). The label bytes and the frame values are checked a
window of frames at a time (model.frame_windows), and the map's pages are
released after each window (model.release), so the frames resident at once
are one window's whatever the file's size. FrameWriter writes frames.bin a
chunk of recordings at a time (simulate appends each shift's frames as it
draws them), through one temporary file per array.

Validation is strict (typed fields, range checks, referenced ids must exist)
except for RSSI values, which are clamped into [136, 193] with a warning
count, and minute indices, which may fall outside the shift window here and
are dropped later by filter_shift_window. In recordings.jsonl this means
that participant_id is a JSON string, shift_date a YYYY-MM-DD string (as in
every file), and minute_index and n_frames JSON integers (true and false
are not integers, and neither are the literals NaN and Infinity).

The frame value rules (_value_refusal) are: finite values, with NaN only as
an unvoiced log_pitch; foreground_prob in [0, 1]; hf_lf_ratio non-negative.
Every line of recordings.jsonl is checked before any frame value; a
frames.bin value that breaks a rule raises MalformedRow at its recording's
line of recordings.jsonl, naming frames.bin and the recording's
participant, date and minute.

Each violation raises MalformedRow (UnknownHub and DuplicateParticipant
among them) with the file name and line number. The csv files are read and
written through model's one CSV rule (csv_rows, csv_blocks, write_csv,
parse_date); the checks above are ingest's own.

rssi.csv becomes one RssiTable, checked block by block, first bad row in
file order: model.csv_blocks splits a block of lines into fields, and each
rule is one mask over a column. recordings.jsonl is read a block of lines
at a time too (model.line_blocks), with one JSON scan per line. With
frames.bin it becomes one RecordingTable, a row per recording, and one
FrameBlock of every recording's frames end to end. physiology.csv, a
row per participant and day, is read a row at a time into one
PhysiologyTable. The three tables name a participant, and an RSSI row its
hub, by a code (model), its id's rank among the sorted ids (_ranks);
write_cohort writes the ids again. In an RSSI row or a recording, a
minute_index beyond the 64-bit integer range is stored as the nearest
64-bit value, so filter_shift_window still drops it. An integer or number cell must be written as the writers write one
(model's _int_cell, _int_cells and _float_cell): no surrounding spaces,
leading "+", "_" separators or non-ASCII digits.
"""

from __future__ import annotations

import json
import mmap
import os
import shutil
from dataclasses import replace
from itertools import repeat
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np
from numpy.lib import format as npy
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DuplicateParticipant, MalformedRow, UnknownHub
from .model import (
    RSSI_MAX,
    RSSI_MIN,
    SHIFT_MINUTES,
    Cohort,
    FRAME_COLUMNS,
    FRAME_FIELDS,
    FrameBlock,
    HubCategory,
    HubRecord,
    ParticipantProfile,
    PhysiologyTable,
    RecordingTable,
    RssiTable,
    ShiftType,
    UnitType,
    _INT64_MAX,
    _INT64_MIN,
    _float_cell,
    _int_cell,
    _int_cells,
    csv_blocks,
    csv_rows,
    distinct,
    frame_windows,
    line_blocks,
    mapped,
    parse_date,
    release,
    shift_codes,
    shift_parts,
    window_repeat,
    write_csv,
)

PARTICIPANTS_FILE = "participants.csv"
HUBS_FILE = "hubs.csv"
RSSI_FILE = "rssi.csv"
RECORDINGS_FILE = "recordings.jsonl"
PHYSIOLOGY_FILE = "physiology.csv"
FRAMES_FILE = "frames.bin"

CANONICAL_FILES = (PARTICIPANTS_FILE, HUBS_FILE, RSSI_FILE, RECORDINGS_FILE, PHYSIOLOGY_FILE)

MIN_DAYS = 5  # distinct shift dates a participant needs to stay in the cohort

PARTICIPANTS_HEADER = ["participant_id", "shift_type", "unit_type", "pos_affect", "neg_affect", "life_satisfaction"]
HUBS_HEADER = ["hub_id", "location_category"]
RSSI_HEADER = ["participant_id", "shift_date", "minute_index", "hub_id", "rssi"]
PHYSIOLOGY_HEADER = ["participant_id", "shift_date", "walk_ratio", "sleep_hours"]
_BATCH_ROWS = 1 << 12  # lines of rssi.csv or recordings.jsonl checked at once, which bounds peak memory
_READ_BYTES = 1 << 17  # bytes read at once; a block may hold fewer lines than _BATCH_ROWS
# the fewest bytes a valid row or head line takes, line end included, which bounds the rows of a file
_RSSI_ROW_BYTES = len(",2022-03-01,0,,1\n")
_HEAD_LINE_BYTES = len('{"participant_id":"","shift_date":"2022-03-01","minute_index":0,"n_frames":1}\n')


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


def _ranks(ids: Iterable[str]) -> dict[str, int]:
    """Each id's code: its rank among the sorted ids."""
    return {key: i for i, key in enumerate(sorted(ids))}


def parse_participants(path: Path) -> dict[str, ParticipantProfile]:
    profiles: dict[str, ParticipantProfile] = {}
    for lineno, row in csv_rows(path, PARTICIPANTS_HEADER):
        pid, shift_raw, unit_raw, pos_raw, neg_raw, swls_raw = row
        if pid in profiles:
            raise DuplicateParticipant(path.name, lineno, pid)
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

    The rows are read a block of lines at a time (model.csv_blocks) and
    checked by column (_rssi_rows); the first bad row in file order raises.
    A row's participant and hub are codes, their ids' ranks among the
    sorted profile ids and the sorted hub ids, and each distinct date text
    of the file is parsed once. A minute_index beyond the 64-bit range is
    stored as the nearest 64-bit value, which lies outside the shift window
    like the original.
    """
    ranks = (_ranks(profiles), _ranks(hubs))
    days: dict[bytes, np.datetime64 | str] = {}  # each date text of the file: its day, or why it is refused
    blocks = csv_blocks(path, RSSI_HEADER, _BATCH_ROWS, _READ_BYTES)
    participant, day, minute, hub, rssi = _gathered(
        (_rssi_rows(*block, path.name, ranks, days) for block in blocks),
        path.stat().st_size // _RSSI_ROW_BYTES + 1, (np.int64, "datetime64[D]", np.int64, np.int64, np.int64))
    clamped = int(np.count_nonzero((rssi < RSSI_MIN) | (rssi > RSSI_MAX)))
    if clamped:
        warnings["rssi_clamped"] = warnings.get("rssi_clamped", 0) + clamped
    np.clip(rssi, RSSI_MIN, RSSI_MAX, out=rssi)
    return RssiTable(participant, day, minute, hub, rssi)


def _gathered(blocks: Iterator[tuple[np.ndarray, ...]], capacity: int, dtypes: tuple) -> list[np.ndarray]:
    """The columns of every block end to end, each written into memory mapped
    for capacity values (model.mapped): no copy of a block is left on the
    heap, where freed blocks would stay resident."""
    columns = [mapped(capacity, dtype) for dtype in dtypes]
    n = 0
    for block in blocks:
        for column, values in zip(columns, block):
            column[n:n + len(values)] = values
        n += len(block[0])
    return [column[:n] for column in columns]


def _rssi_rows(a: np.ndarray, start: np.ndarray, end: np.ndarray, lines: np.ndarray, refusal: MalformedRow | None,
               name: str, ranks: tuple[dict[str, int], dict[str, int]], days: dict) -> tuple[np.ndarray, ...]:
    """The columns of one block of rssi.csv (model.csv_blocks): each row's
    participant and hub as its rank in ranks, its shift_date, and its
    minute_index and rssi (model._int_cells, not yet clamped). Each rule is
    one mask over a column: a known participant_id, a known hub_id, a YYYY-MM-DD shift_date, and
    integer minute_index and rssi cells. The first row that breaks a rule
    raises its refusal, naming the first rule it breaks; if none does, the
    block's own refusal is raised."""
    participant, participant_text = _coded(a, start[:, 0], end[:, 0])
    day, day_text = _coded(a, start[:, 1], end[:, 1])
    hub, hub_text = _coded(a, start[:, 3], end[:, 3])
    minute, bad_minute = _int_cells(a, start[:, 2], end[:, 2])
    rssi, bad_rssi = _int_cells(a, start[:, 4], end[:, 4])
    for text in set(day_text).difference(days):
        try:
            days[text] = np.datetime64(parse_date(text.decode(), name, 0), "D")
        except MalformedRow as exc:
            days[text] = exc.reason
    participant, hub = (np.array([rank.get(text.decode(), -1) for text in texts] + [-1], np.int64)[codes]
                        for rank, codes, texts in zip(ranks, (participant, hub), (participant_text, hub_text)))
    dates = [days[text] for text in day_text]
    broken = np.array([
        participant < 0,
        hub < 0,
        np.array([type(d) is str for d in dates] + [False])[day],
        bad_minute,
        bad_rssi,
    ])
    if broken.any():
        i = int(np.argmax(broken.any(axis=0)))
        rule = int(np.argmax(broken[:, i]))
        k = (0, 3, 1, 2, 4)[rule]  # the rule's field
        text, line = a[start[i, k]:end[i, k]].tobytes().decode(), int(lines[i])
        if rule == 1:
            raise UnknownHub(name, line, text)
        reasons = (f"unknown participant_id {text!r}", "", dates[day[i]] if rule == 2 else "",
                   f"bad integer for minute_index: {text!r}", f"bad integer for rssi: {text!r}")
        raise MalformedRow(name, line, reasons[rule])
    if refusal is not None:
        raise refusal
    return participant, np.array(dates + [np.datetime64("NaT")], "datetime64[D]")[day], minute, hub, rssi


def _coded(a: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, list[bytes]]:
    """A code for each field a[start:end], equal where the bytes are, and
    the bytes of each code. The fields of one length are compared as rows
    of 64-bit words."""
    length = end - start
    codes = np.empty(len(length), np.int64)
    firsts: list[np.ndarray] = []
    for size in distinct(length).tolist():
        rows = np.flatnonzero(length == size)
        words = np.zeros((len(rows), max(-(-size // 8), 1) * 8), np.uint8)
        words[:, :size] = sliding_window_view(a, size)[start[rows]]
        words = words.view(np.uint64).T
        order = np.lexsort(words)
        ranked = words[:, order]
        new = np.ones(len(rows), bool)
        new[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
        codes[rows[order]] = np.cumsum(new) - 1 + sum(map(len, firsts))
        firsts.append(rows[order[new]])
    first = np.concatenate(firsts) if firsts else np.empty(0, np.int64)
    return codes, [a[i:j].tobytes() for i, j in zip(start[first].tolist(), end[first].tolist())]


def parse_physiology(path: Path, profiles: dict[str, ParticipantProfile]) -> PhysiologyTable:
    """Read physiology.csv into a PhysiologyTable, a row at a time; a row's
    participant is a code, its id's rank among the sorted profile ids."""
    rank = _ranks(profiles)
    rows: list[tuple] = []
    for lineno, row in csv_rows(path, PHYSIOLOGY_HEADER):
        pid, date_raw, walk_raw, sleep_raw = row
        if pid not in rank:
            raise MalformedRow(path.name, lineno, f"unknown participant_id {pid!r}")
        shift_date = parse_date(date_raw, path.name, lineno)
        walk = _parse_float(walk_raw, "walk_ratio", path.name, lineno)
        sleep = _parse_float(sleep_raw, "sleep_hours", path.name, lineno)
        if not 0.0 <= walk <= 1.0:
            raise MalformedRow(path.name, lineno, f"walk_ratio {walk} outside [0, 1]")
        if not 0.0 <= sleep <= 24.0:
            raise MalformedRow(path.name, lineno, f"sleep_hours {sleep} outside [0, 24]")
        rows.append((rank[pid], shift_date, walk, sleep))
    return PhysiologyTable(*_columns(rows, PhysiologyTable.DTYPES))


# frames.bin's arrays, one per FrameBlock field in field order
_FRAME_DTYPES = (np.dtype("<f8"),) * len(FRAME_COLUMNS) + (np.dtype(bool),)


def _value_refusal(feats: list[np.ndarray]) -> tuple[int, str] | None:
    """The first frame (an index into the FRAME_COLUMNS arrays feats) that
    breaks a frame value rule, with the first rule it breaks; None when every
    frame keeps them. Values are finite, except NaN as an unvoiced pitch;
    foreground_prob lies in [0, 1] and hf_lf_ratio is non-negative. The
    columns are walked a window of frames at a time (model.frame_windows),
    the pages of a mapped frames.bin released after each (model.release)."""
    for window in frame_windows(len(feats[0])):
        refusal = _window_refusal([feat[window] for feat in feats])
        release(*feats)
        if refusal is not None:
            return window.start + refusal[0], refusal[1]
    return None


def _window_refusal(feats: list[np.ndarray]) -> tuple[int, str] | None:
    """_value_refusal of one window of frames."""
    pitch, intensity, hf_lf, fg_prob = feats
    # reductions first, which need no array as large as the window; NaN spoils a min or max (fmin and fmax skip it)
    ends = np.array([np.fmin.reduce(pitch, initial=0.0), np.fmax.reduce(pitch, initial=0.0),
                     intensity.min(initial=0.0), intensity.max(initial=0.0), hf_lf.max(initial=0.0)])
    if (np.isfinite(ends).all() and hf_lf.min(initial=0.0) >= 0.0
            and fg_prob.min(initial=0.0) >= 0.0 and fg_prob.max(initial=1.0) <= 1.0):
        return None
    non_finite = np.isinf(pitch) | ~(np.isfinite(intensity) & np.isfinite(hf_lf) & np.isfinite(fg_prob))
    rules = (
        ("non-finite frame value", non_finite),
        ("foreground_prob outside [0, 1]", (fg_prob < 0.0) | (fg_prob > 1.0)),
        ("hf_lf_ratio negative", hf_lf < 0.0),
    )
    frame = int(np.argmax(rules[0][1] | rules[1][1] | rules[2][1]))
    return frame, next(reason for reason, broken in rules if broken[frame])


def _refused_recording(recordings: RecordingTable, ids: list[str], refusal: tuple[int, str]) -> tuple[int, str]:
    """The index of the recording that holds a _value_refusal frame, and the
    refusal with that recording named by its participant's id, ids[code]."""
    frame, reason = refusal
    i = int(np.searchsorted(np.cumsum(recordings.n_frames), frame, side="right"))
    pid, day = ids[recordings.participant[i]], np.datetime_as_string(recordings.shift_date[i])
    return i, f"{reason} in recording {pid} {day} minute {recordings.minute_index[i]}"


def parse_recordings(path: Path, profiles: dict[str, ParticipantProfile]) -> tuple[RecordingTable, FrameBlock]:
    """The recordings of recordings.jsonl (_read_heads) and their frames,
    from the frames.bin beside it (_read_frames)."""
    recordings, lines = _read_heads(path, profiles)
    return recordings, _read_frames(path.with_name(FRAMES_FILE), recordings, profiles, lines)


def _read_heads(path: Path, profiles: dict[str, ParticipantProfile]) -> tuple[RecordingTable, np.ndarray]:
    """The recordings of recordings.jsonl, and the line of each, read a block
    of lines at a time (model.line_blocks): each non-blank line takes one
    JSON scan (_decoded), then each rule is one mask over a column
    (_head_rows).
    The first line in file order that breaks a rule raises MalformedRow
    with its number and reason. A recording's participant is a code, its
    id's rank among the sorted profile ids."""
    rank = _ranks(profiles)
    days: dict[str, np.datetime64 | None] = {}  # each date text of the file: its day, or None if refused
    with path.open("rb") as fh:
        *columns, lines = _gathered(
            (_head_rows(*_decoded(a.tobytes(), stop, first, path.name), rank, days, path.name)
             for a, _, stop, first in line_blocks(fh, _BATCH_ROWS, _READ_BYTES)),
            path.stat().st_size // _HEAD_LINE_BYTES + 1,
            (np.int64, "datetime64[D]", np.int64, np.int64, bool, np.int64))
    return RecordingTable(*columns), lines


_SCAN = json.JSONDecoder().scan_once
_BOM = "Unexpected UTF-8 BOM (decode using utf-8-sig)"


def _decoded(data: bytes, stop: np.ndarray, first: int, name: str) -> tuple[list, np.ndarray, MalformedRow | None]:
    """The JSON value and the line of each non-blank line (after
    str.strip) of a block of recordings.jsonl lines, up to the first line
    that is not UTF-8 text or not one JSON value, with that line's refusal.
    A line is read as json.loads reads it, by one call of its scanner."""
    lines = data.splitlines()  # at "\n", "\r\n" and "\r", as line_blocks
    cut, refusal = len(lines), None
    if not data.isascii():
        try:
            data.decode()
        except UnicodeDecodeError as exc:
            cut = int(np.searchsorted(stop, exc.start, side="right"))
            refusal = MalformedRow(name, first + cut, "not UTF-8 text")
    heads, where = [], []
    for i, text in enumerate(map(str.strip, map(bytes.decode, lines[:cut]))):
        if not text:
            continue
        try:
            head, end = _SCAN(text, 0)  # the JSON value that starts the line, and where it ends
        except StopIteration:  # no value starts the line; json.loads names a byte order mark first
            reason = "invalid JSON: " + (_BOM if text[0] == "\ufeff" else "Expecting value")
        except json.JSONDecodeError as exc:
            reason = f"invalid JSON: {exc.msg}"
        except ValueError as exc:  # an integer past int's digit limit
            reason = str(exc)
        except RecursionError:
            reason = "invalid JSON: nested too deeply"
        else:
            if end == len(text):
                heads.append(head)
                where.append(first + i)
                continue
            reason = "invalid JSON: Extra data"
        refusal = MalformedRow(name, first + i, reason)
        break
    return heads, np.array(where, np.int64), refusal


_MISSING = object()


def _head_rows(heads: list, lines: np.ndarray, refusal: MalformedRow | None, rank: dict[str, int], days: dict,
               name: str) -> tuple[np.ndarray, ...]:
    """The columns of the JSON values of one block of recordings.jsonl lines
    (_decoded): each recording's participant as its rank in rank, its
    shift_date, minute_index, n_frames and labelled flag, and its line.
    Each rule is one mask over a column, in this order: an object with
    participant_id, shift_date and minute_index; a known participant_id
    string; an integer minute_index; a YYYY-MM-DD shift_date string; no
    inline frames; n_frames a positive 64-bit integer; labelled true or
    false (false if absent). The first line that breaks a rule raises its
    refusal, naming the first rule it breaks; if none does, the block's own
    refusal is raised."""
    objects = [head if type(head) is dict else {} for head in heads]
    pid, day, minute = (list(map(dict.get, objects, repeat(key), repeat(_MISSING)))
                        for key in ("participant_id", "shift_date", "minute_index"))
    n_frames, labelled = (list(map(dict.get, objects, repeat(key), repeat(default)))
                          for key, default in (("n_frames", None), ("labelled", False)))
    for text in {d for d in day if type(d) is str}.difference(days):
        try:
            days[text] = np.datetime64(parse_date(text, name, 0), "D")
        except MalformedRow:
            days[text] = None
    participants = [rank.get(p, -1) if type(p) is str else -1 for p in pid]
    dates = [days[d] if type(d) is str else None for d in day]
    broken = np.array([
        [p is _MISSING or d is _MISSING or m is _MISSING for p, d, m in zip(pid, day, minute)],
        [p < 0 for p in participants],
        [type(m) is not int for m in minute],
        [d is None for d in dates],
        ["frames" in o for o in objects],
        [type(n) is not int or not 0 < n <= _INT64_MAX for n in n_frames],
        [type(flag) is not bool for flag in labelled],
    ], bool)
    if broken.any():
        i = int(np.argmax(broken.any(axis=0)))
        rule, line = int(np.argmax(broken[:, i])), int(lines[i])
        if rule == 0:
            try:
                heads[i]["participant_id"], heads[i]["shift_date"], heads[i]["minute_index"]
            except (KeyError, TypeError) as exc:
                raise MalformedRow(name, line, f"missing field: {exc}") from None
        if rule == 3:
            parse_date(day[i], name, line)  # raises: the text was refused
        raise MalformedRow(name, line, (
            "", f"unknown participant_id {pid[i]!r}", f"minute_index must be an integer, got {minute[i]!r}", "",
            f"inline frames are no longer read; a recording's frames go in {FRAMES_FILE}",
            f"n_frames must be a positive integer, got {n_frames[i]!r}",
            f"labelled must be true or false, got {labelled[i]!r}")[rule])
    if refusal is not None:
        raise refusal
    try:
        minutes = np.array(minute, np.int64)
    except OverflowError:  # a minute_index beyond 64 bits: the nearest 64-bit value
        minutes = np.array([min(max(m, _INT64_MIN), _INT64_MAX) for m in minute], np.int64)
    return (np.array(participants, np.int64), np.array(dates, "datetime64[D]"), minutes, np.array(n_frames, np.int64),
            np.array(labelled, bool), lines)


def _read_frames(path: Path, recordings: RecordingTable, profiles: dict, lines: np.ndarray) -> FrameBlock:
    """frames.bin's arrays as _frame_block holds them, once the file has
    passed its checks: the walk of the five headers (_array_start), the
    label bytes, and the frame values (_value_refusal), which raise
    MalformedRow at a bad value's recording's line of recordings.jsonl. The
    label bytes are walked a window at a time as the values are, the
    pages of the map released after each (model.release)."""
    n = sum(recordings.n_frames.tolist())
    with path.open("rb") as fh:
        starts = [_array_start(fh, path.name, k, name, dtype, n)
                  for k, (name, dtype) in enumerate(zip(FRAME_FIELDS, _FRAME_DTYPES), start=1)]
        after = os.fstat(fh.fileno()).st_size > fh.tell()
        columns = _map_arrays(fh, starts, n)
    labels = columns[-1].view(np.uint8)
    for window in frame_windows(n):
        bad = labels[window].max() > 1
        release(labels)
        if bad:
            raise MalformedRow(path.name, len(columns), f"{FRAME_FIELDS[-1]} holds a byte other than 0 and 1")
    if after:
        raise MalformedRow(path.name, len(columns), "bytes after the last array")
    refusal = _value_refusal(columns[:4])
    if refusal is not None:
        i, reason = _refused_recording(recordings, sorted(profiles), refusal)
        raise MalformedRow(RECORDINGS_FILE, int(lines[i]), f"{path.name}: {reason}")
    return _frame_block(columns, recordings)


def _array_start(fh: BinaryIO, file: str, k: int, name: str, dtype: np.dtype, n: int) -> int:
    """Where the values of array k (1-based) of frames.bin, the frame column
    name, start, the file read past them: a version 1.0 NEP 1 .npy array of
    exactly n values of exactly dtype, whose header is read as a literal; a
    refusal raises MalformedRow with k as its line."""
    try:
        if npy.read_magic(fh) != (1, 0):  # what np.save writes for these arrays
            raise ValueError("not a version 1.0 .npy array")
        shape, _, found = npy.read_array_header_1_0(fh)
    except ValueError as exc:
        raise MalformedRow(file, k, f"{name}: {exc}") from None
    if found != dtype or len(shape) != 1:
        raise MalformedRow(file, k, f"{name} must be a 1-D {dtype.str} array, got {found.str} of shape {shape}")
    if shape[0] != n:
        raise MalformedRow(file, k, f"{name} holds {shape[0]} frames, but the n_frames of {RECORDINGS_FILE} sum to {n}")
    start = fh.tell()
    if os.fstat(fh.fileno()).st_size - start < n * dtype.itemsize:
        raise MalformedRow(file, k, f"{name}: the file ends inside the array")
    fh.seek(n * dtype.itemsize, os.SEEK_CUR)
    return start


def _map_arrays(fh: BinaryIO, starts: list[int], n: int) -> list[np.ndarray]:
    """The five arrays of n values of the frames.bin open as fh, starting at
    starts, as views of one read-only map of the file, which stays open
    with them; no page is read until a view is touched."""
    file_map = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    return [np.frombuffer(file_map, dtype, n, start) for dtype, start in zip(_FRAME_DTYPES, starts)]


def _frame_block(columns: list[np.ndarray], recordings: RecordingTable) -> FrameBlock:
    """The FrameBlock of frames.bin's mapped arrays (_map_arrays) for the
    rows of recordings: the four value columns as they are, and foreground
    in memory of its own (model.mapped), the file's labels where a
    recording is labelled and False elsewhere. Only the windows that hold a
    labelled recording's frames are read."""
    *values, labels = columns
    foreground = mapped(len(labels), bool)
    if recordings.labelled.any():
        ends = np.cumsum(recordings.n_frames)
        for window in frame_windows(len(labels)):
            labelled = window_repeat(recordings.labelled, ends, window)
            if labelled.any():
                np.logical_and(labels[window], labelled, out=foreground[window])
                release(labels)
    return FrameBlock(*values, foreground)


def parse_cohort(dir_path: str | Path) -> Cohort:
    """Parse the five canonical files and frames.bin into a validated
    Cohort. Row counts are cohort.counts; clamp events land in
    cohort.warnings."""
    root = Path(dir_path)
    for name in CANONICAL_FILES + (FRAMES_FILE,):
        if not (root / name).is_file():
            raise FileNotFoundError(root / name)
    warnings: dict[str, int] = {}
    profiles = parse_participants(root / PARTICIPANTS_FILE)
    hubs = parse_hubs(root / HUBS_FILE)
    rssi = parse_rssi(root / RSSI_FILE, hubs, profiles, warnings)
    recordings, frames = parse_recordings(root / RECORDINGS_FILE, profiles)
    physiology = parse_physiology(root / PHYSIOLOGY_FILE, profiles)
    return Cohort(profiles, hubs, recordings, frames, rssi, physiology, warnings)


# --- writer (shared by the simulator and round-trip tests) ---


class FrameWriter:
    """frames.bin written a chunk of recordings at a time, its memory that of
    one chunk: append puts each chunk's five columns at the end of one
    temporary sibling file per FrameBlock field, and assemble writes
    frames.bin from them (each field's .npy header, then its file). Used as
    a context manager, it removes its files on exit, whatever happened.

    A chunk with a frame value that the reader would refuse (_value_refusal)
    raises ValueError naming the first recording that holds one, by its
    participant's id ids[code], before any of the chunk is written; the
    directory is made, and the files opened, for the first chunk written."""

    def __init__(self, root: str | Path, ids: list[str]) -> None:
        self.root, self.ids, self.n = Path(root), ids, 0
        self.parts = {name: self.root / f"{FRAMES_FILE}.{name}.tmp" for name in FRAME_FIELDS}
        self.files: list[BinaryIO] = []

    def __enter__(self) -> "FrameWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        for fh in self.files:
            fh.close()
        for path in self.parts.values():
            path.unlink(missing_ok=True)

    def append(self, recordings: RecordingTable, columns: list[np.ndarray]) -> None:
        """Write the frames of the rows of recordings, given by FrameBlock
        field in field order, after those appended before."""
        refusal = _value_refusal(columns[:4])
        if refusal is not None:
            raise ValueError(_refused_recording(recordings, self.ids, refusal)[1])
        if not self.files:
            self.root.mkdir(parents=True, exist_ok=True)
            self.files = [path.open("wb") for path in self.parts.values()]
        for window in frame_windows(len(columns[0])):
            for fh, column, dtype in zip(self.files, columns, _FRAME_DTYPES):
                fh.write(np.ascontiguousarray(column[window], dtype).data)
            release(*columns)
        self.n += len(columns[0])

    def assemble(self, path: Path) -> list[int]:
        """Write frames.bin to path; return where each array's values start."""
        for fh in self.files:
            fh.flush()
        starts = []
        with path.open("wb") as out:
            for name, dtype in zip(FRAME_FIELDS, _FRAME_DTYPES):
                npy.write_array_header_1_0(out, {"descr": npy.dtype_to_descr(dtype), "fortran_order": False,
                                                 "shape": (self.n,)})  # as np.save writes it
                starts.append(out.tell())
                if self.files:
                    with self.parts[name].open("rb") as part:
                        shutil.copyfileobj(part, out, _COPY_BYTES)
        return starts


_COPY_BYTES = 1 << 20  # bytes of a part file that FrameWriter.assemble copies at once


def write_cohort(cohort: Cohort, dir_path: str | Path, frames: FrameWriter | None = None) -> FrameBlock:
    """Write a cohort back out as the five canonical files and frames.bin
    (deterministic bytes), and return the frames as written (_frame_block
    of a map of frames.bin).

    The frames are those appended to frames, a FrameWriter of the
    directory, when it is given (cohort.frames is then not read), else
    cohort.frames, appended as one chunk. A frame value its reader would
    refuse (see _value_refusal) raises ValueError naming the first recording
    that holds one, before any file is written. Each file is first written
    to a temporary sibling; the canonical names are replaced only once every
    file has been written, so a failed write leaves the directory as it was.
    """
    if frames is None:
        with FrameWriter(dir_path, sorted(cohort.profiles)) as frames:
            frames.append(cohort.recordings, [getattr(cohort.frames, name) for name in FRAME_FIELDS])
            return write_cohort(cohort, dir_path, frames)
    recordings = cohort.recordings
    root = Path(dir_path)
    root.mkdir(parents=True, exist_ok=True)
    temporary = {name: root / f"{name}.tmp" for name in CANONICAL_FILES + (FRAMES_FILE,)}
    ids, hubs = np.array(sorted(cohort.profiles), object), np.array(sorted(cohort.hubs), object)  # by code
    try:
        write_csv(temporary[PARTICIPANTS_FILE], PARTICIPANTS_HEADER, _columns(
            [(p.participant_id, p.shift_type.value, p.unit_type.value, p.pos_affect, p.neg_affect, p.life_satisfaction)
             for _, p in sorted(cohort.profiles.items())], (object, object, object, np.int64, np.int64, np.float64)))
        write_csv(temporary[HUBS_FILE], HUBS_HEADER, _columns(
            [(hub_id, h.location_category.value) for hub_id, h in sorted(cohort.hubs.items())], (object, object)))
        rssi = cohort.rssi
        write_csv(temporary[RSSI_FILE], RSSI_HEADER,
                  [ids[rssi.participant], rssi.shift_date, rssi.minute_index, hubs[rssi.hub], rssi.rssi])
        _write_heads(temporary[RECORDINGS_FILE], recordings, ids)
        starts = frames.assemble(temporary[FRAMES_FILE])
        physiology = cohort.physiology
        write_csv(temporary[PHYSIOLOGY_FILE], PHYSIOLOGY_HEADER,
                  [ids[physiology.participant], physiology.shift_date, physiology.walk_ratio, physiology.sleep_hours])
    except BaseException:
        for path in temporary.values():
            path.unlink(missing_ok=True)
        raise
    for name, path in temporary.items():
        os.replace(path, root / name)
    with (root / FRAMES_FILE).open("rb") as fh:
        return _frame_block(_map_arrays(fh, starts, frames.n), recordings)


def _columns(rows: list[tuple], dtypes: tuple) -> list[np.ndarray]:
    """Row tuples as one numpy column per dtype."""
    return [np.array(column, dtype) for column, dtype in zip(list(zip(*rows)) or [()] * len(dtypes), dtypes)]


def _write_heads(path: Path, recordings: RecordingTable, ids: np.ndarray) -> None:
    """recordings.jsonl: one head line per recording, its participant named by ids[code]."""
    names = [json.dumps(pid) for pid in ids.tolist()]  # escapes every non-ASCII character
    labels = ("", ',"labelled":true')
    with path.open("w", encoding="ascii", newline="") as fh:
        fh.writelines(
            f'{{"participant_id":{names[code]},"shift_date":"{day}","minute_index":{minute},'
            f'"n_frames":{n}{labels[labelled]}}}\n'
            for code, day, minute, n, labelled in zip(
                recordings.participant.tolist(), np.datetime_as_string(recordings.shift_date).tolist(),
                recordings.minute_index.tolist(), recordings.n_frames.tolist(), recordings.labelled.tolist()))


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
    """Keep participants with recordings on at least min_days distinct shift
    dates, and the rows of each table that are theirs. The kept keep their
    order, so their codes become 0, 1, ... in it."""
    if min_days < 1:
        raise ValueError("min_days must be >= 1")
    recordings, rssi = cohort.recordings.participant, cohort.rssi.participant
    owners, _ = shift_parts(distinct(shift_codes(recordings, cohort.recordings.shift_date)))
    keep = np.bincount(owners, minlength=len(cohort.profiles)) >= min_days
    ids = {pid for pid, k in zip(sorted(cohort.profiles), keep.tolist()) if k}
    kept = _select(cohort, keep[recordings], keep[rssi],
                   profiles={pid: p for pid, p in cohort.profiles.items() if pid in ids}, hubs=dict(cohort.hubs),
                   warnings=dict(cohort.warnings))
    if not keep.all():
        code = np.cumsum(keep) - 1  # a kept participant's code among the kept
        kept.physiology = cohort.physiology.select(keep[cohort.physiology.participant])
        for name in ("recordings", "rssi", "physiology"):
            table = getattr(kept, name)
            setattr(kept, name, replace(table, participant=code[table.participant]))
    return kept
