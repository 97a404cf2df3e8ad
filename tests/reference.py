"""Row-at-a-time readers of rssi.csv and recordings.jsonl: the per-row loops
that ingest's block and column passes replaced, kept as the oracles of the
tests that hold those passes to them. Both refuse the first bad row in file
order, with the same exception and message as ingest. Each reads a row's ids
as strings (rssi_rows, heads) and then codes them, an id by its place among
the sorted ids (parse_rssi, read_heads).

Also the per-shift records of an extraction (shift_records, shift_features),
which only the tests that hold the grouped passes to the per-shift
references build."""

from __future__ import annotations

import json
import math
from datetime import date
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from shifttalk.aggregate import ShiftColumns, ShiftFeatures
from shifttalk.errors import MalformedRow, UnknownHub
from shifttalk.ingest import FRAMES_FILE, RSSI_HEADER, _parse_int
from shifttalk.model import (
    RSSI_MAX,
    RSSI_MIN,
    HubRecord,
    ParticipantProfile,
    RecordingTable,
    RssiTable,
    _INT64_MAX,
    _INT64_MIN,
    csv_rows,
    parse_date,
    shift_parts,
)
from shifttalk.pipeline import ExtractionResult


def coded(ids: Iterable[str], keys: list[str]) -> list[int]:
    """Each key's place among the sorted ids."""
    ranked = sorted(ids)
    return [ranked.index(key) for key in keys]


def parse_rssi(path: Path, hubs: dict[str, HubRecord], profiles: dict[str, ParticipantProfile],
               warnings: dict[str, int]) -> RssiTable:
    """rssi_rows as an RssiTable, each id coded."""
    pids, days, minutes, hub_ids, rssi = rssi_rows(path, hubs, profiles, warnings)
    return RssiTable(coded(profiles, pids), days, minutes, coded(hubs, hub_ids), rssi)


def rssi_rows(path: Path, hubs: dict[str, HubRecord], profiles: dict[str, ParticipantProfile],
              warnings: dict[str, int]) -> tuple[list, ...]:
    """rssi.csv's columns, ids as strings, checked one row at a time in file
    order (a date text only until it has parsed once), rssi clamped into
    [RSSI_MIN, RSSI_MAX] with a warning count."""
    name = path.name
    columns: tuple[list, ...] = ([], [], [], [], [])
    good_dates: set[str] = set()
    clamped = 0
    for lineno, row in csv_rows(path, RSSI_HEADER):
        pid, date_raw, minute_raw, hub_id, rssi_raw = row
        profile = profiles.get(pid)
        if profile is None:
            raise MalformedRow(name, lineno, f"unknown participant_id {pid!r}")
        hub = hubs.get(hub_id)
        if hub is None:
            raise UnknownHub(name, lineno, hub_id)
        if date_raw not in good_dates:
            parse_date(date_raw, name, lineno)
            good_dates.add(date_raw)
        minute = _parse_int(minute_raw, "minute_index", name, lineno)
        rssi = _parse_int(rssi_raw, "rssi", name, lineno)
        if rssi < RSSI_MIN or rssi > RSSI_MAX:
            clamped += 1
            rssi = min(max(rssi, RSSI_MIN), RSSI_MAX)
        for column, value in zip(columns, (profile.participant_id, date_raw, min(max(minute, _INT64_MIN), _INT64_MAX),
                                           hub.hub_id, rssi)):
            column.append(value)
    if clamped:
        warnings["rssi_clamped"] = warnings.get("rssi_clamped", 0) + clamped
    return columns


def lines(fh: BinaryIO) -> Iterator[tuple[int, str | bytes]]:
    """The number and stripped text of each non-blank line of a file opened
    in binary mode, counted as text mode counts them ("\n", "\r\n" and a lone
    "\r" each end one). A line that is not UTF-8 comes as bytes."""
    lineno = 0
    for raw in fh:
        for piece in raw.splitlines() if b"\r" in raw else (raw,):  # bytes split at "\n", "\r\n" and "\r" only
            lineno += 1
            try:
                line = piece.decode("utf-8").strip()
            except UnicodeDecodeError:  # head refuses it in its turn
                line = piece
            if line:
                yield lineno, line


def head(line: str | bytes, profiles: dict[str, ParticipantProfile], days: dict[str, np.datetime64],
         name: str, lineno: int) -> tuple:
    """The participant, date, minute, frame count and labelled flag of one
    recordings.jsonl line; MalformedRow on the first check it fails."""
    if type(line) is bytes:
        raise MalformedRow(name, lineno, "not UTF-8 text")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRow(name, lineno, f"invalid JSON: {exc.msg}") from None
    except ValueError as exc:  # an integer past int's digit limit
        raise MalformedRow(name, lineno, str(exc)) from None
    except RecursionError:
        raise MalformedRow(name, lineno, "invalid JSON: nested too deeply") from None
    try:
        pid, date_raw, minute = obj["participant_id"], obj["shift_date"], obj["minute_index"]
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
    if "frames" in obj:
        raise MalformedRow(name, lineno, f"inline frames are no longer read; a recording's frames go in {FRAMES_FILE}")
    n, labelled = obj.get("n_frames"), obj.get("labelled", False)
    if type(n) is not int or not 0 < n <= _INT64_MAX:
        raise MalformedRow(name, lineno, f"n_frames must be a positive integer, got {n!r}")
    if type(labelled) is not bool:
        raise MalformedRow(name, lineno, f"labelled must be true or false, got {labelled!r}")
    return profile.participant_id, shift_date, min(max(minute, _INT64_MIN), _INT64_MAX), n, labelled


def read_heads(path: Path, profiles: dict[str, ParticipantProfile]) -> tuple[RecordingTable, list[int]]:
    """heads as a RecordingTable, each participant_id coded, and the line of each recording."""
    pids, *columns, where = heads(path, profiles)
    return RecordingTable(coded(profiles, pids), *columns), where


def heads(path: Path, profiles: dict[str, ParticipantProfile]) -> tuple[list, ...]:
    """The columns of recordings.jsonl's recordings, participant_id as a
    string, and the line of each; the first line that breaks a rule raises
    MalformedRow with its number and reason."""
    days: dict[str, np.datetime64] = {}
    columns = tuple([] for _ in range(6))  # RecordingTable's and the line number
    with path.open("rb") as fh:
        for lineno, line in lines(fh):
            for store, value in zip(columns, (*head(line, profiles, days, path.name, lineno), lineno)):
                store.append(value)
    return columns


def shift_records(shifts: ShiftColumns, keys: Iterable[tuple[str, date]]) -> list[ShiftFeatures]:
    """One ShiftFeatures per row of shifts, for the (participant id, date) shifts ``keys``."""
    scalars = {key: column.tolist() for key, column in shifts.scalars.items()}
    pos, neg = ([[None if math.isnan(v) else v for v in row] for row in blocks.tolist()]
                for blocks in (shifts.pos_blocks, shifts.neg_blocks))
    counts = zip(shifts.n_recordings.tolist(), shifts.n_sessions.tolist(), shifts.recordings_per_block.tolist())
    out = []
    for i, ((pid, day), (n_recordings, n_sessions, per_block)) in enumerate(zip(keys, counts)):
        present = {key: column[i] for key, column in scalars.items() if not math.isnan(column[i])}
        out.append(ShiftFeatures(pid, day, n_recordings, n_sessions, present, pos[i], neg[i], per_block))
    return out


def shift_features(result: ExtractionResult, profiles: Iterable[str]) -> list[ShiftFeatures]:
    """One ShiftFeatures per shift of an extraction of a cohort with these
    profile ids, which its shift keys name by the parse's codes."""
    participant, days = shift_parts(result.shift_keys)
    return shift_records(result.shifts, zip(np.array(sorted(profiles), object)[participant].tolist(), days.tolist()))
