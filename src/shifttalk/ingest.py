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
reason) with the array's number k (1-5) in place of a line.

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

Each violation raises MalformedRow with the file name and line number. The
csv files are read and written through model's one CSV rule (csv_rows,
write_csv, parse_date, ColumnTable.write_csv); the checks above are ingest's
own.

rssi.csv becomes one RssiTable, checked one row at a time, so the first bad
row in file order raises. recordings.jsonl and frames.bin become one
RecordingTable, a row per recording, and one FrameBlock holding every
recording's frames end to end. In either table a minute_index beyond the
64-bit integer range is stored as the nearest 64-bit value, so
filter_shift_window still drops it. An integer or number cell must be
written as the writers write one (model's _int_cell and _float_cell): no
surrounding spaces, leading "+", "_" separators or non-ASCII digits.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np
from numpy.lib import format as npy

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
    RecordingTable,
    RssiTable,
    ShiftType,
    UnitType,
    _INT64_MAX,
    _INT64_MIN,
    _float_cell,
    _int_cell,
    csv_rows,
    distinct,
    mapped,
    parse_date,
    participant_codes,
    shift_codes,
    shift_parts,
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
PHYSIOLOGY_HEADER = ["participant_id", "shift_date", "walk_ratio", "sleep_hours"]
_BATCH_ROWS = 1 << 14  # rssi rows held as Python objects at once, which bounds peak memory


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
        minutes.append(min(max(minute, _INT64_MIN), _INT64_MAX))
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


FRAME_COLUMNS = ("log_pitch", "intensity", "hf_lf_ratio", "foreground_prob")
# frames.bin's arrays, one per FrameBlock field in field order
_FRAME_DTYPES = (np.dtype("<f8"),) * len(FRAME_COLUMNS) + (np.dtype(bool),)


def _value_refusal(feats: list[np.ndarray]) -> tuple[int, str] | None:
    """The first frame (an index into the FRAME_COLUMNS arrays feats) that
    breaks a frame value rule, with the first rule it breaks; None when every
    frame keeps them. Values are finite, except NaN as an unvoiced pitch;
    foreground_prob lies in [0, 1] and hf_lf_ratio is non-negative."""
    pitch, intensity, hf_lf, fg_prob = feats
    # reductions first, which need no array as large as a column; NaN spoils a min or max (fmin and fmax skip it)
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


def _refused_recording(recordings: RecordingTable, refusal: tuple[int, str]) -> tuple[int, str]:
    """The index of the recording that holds a _value_refusal frame, and the
    refusal with that recording named."""
    frame, reason = refusal
    i = int(np.searchsorted(np.cumsum(recordings.n_frames), frame, side="right"))
    day = np.datetime_as_string(recordings.shift_date[i])
    return i, f"{reason} in recording {recordings.participant_id[i]} {day} minute {recordings.minute_index[i]}"


def _lines(fh: BinaryIO) -> Iterator[tuple[int, str | bytes]]:
    """The number and stripped text of each non-blank line of a file opened
    in binary mode, counted as text mode counts them ("\n", "\r\n" and a lone
    "\r" each end one). A line that is not UTF-8 comes as bytes."""
    lineno = 0
    for raw in fh:
        for piece in raw.splitlines() if b"\r" in raw else (raw,):  # bytes split at "\n", "\r\n" and "\r" only
            lineno += 1
            try:
                line = piece.decode("utf-8").strip()
            except UnicodeDecodeError:  # _head refuses it in its turn
                line = piece
            if line:
                yield lineno, line


def _head(line: str | bytes, profiles: dict[str, ParticipantProfile], days: dict[str, np.datetime64],
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
    # the profile's own id string, one object per participant as in parse_rssi
    return profile.participant_id, shift_date, min(max(minute, _INT64_MIN), _INT64_MAX), n, labelled


def parse_recordings(path: Path, profiles: dict[str, ParticipantProfile]) -> tuple[RecordingTable, FrameBlock]:
    """The recordings of recordings.jsonl (_read_heads) and their frames,
    from the frames.bin beside it (_read_frames)."""
    recordings, lines = _read_heads(path, profiles)
    return recordings, _read_frames(path.with_name(FRAMES_FILE), recordings, lines)


def _read_heads(path: Path, profiles: dict[str, ParticipantProfile]) -> tuple[RecordingTable, list[int]]:
    """The recordings of recordings.jsonl, and the line of each; the first
    line that breaks a rule raises MalformedRow with its number (see _lines)
    and reason."""
    days: dict[str, np.datetime64] = {}
    heads = tuple([] for _ in range(6))  # RecordingTable columns and the line number
    with path.open("rb") as fh:
        for lineno, line in _lines(fh):
            for store, value in zip(heads, (*_head(line, profiles, days, path.name, lineno), lineno)):
                store.append(value)
    return RecordingTable(*heads[:5]), heads[5]


def _read_frames(path: Path, recordings: RecordingTable, lines: list[int]) -> FrameBlock:
    """frames.bin's arrays, one per FrameBlock field, each read into mapped
    memory (model.mapped) as _read_array checks it. A frame value that breaks a rule of
    _value_refusal raises MalformedRow at its recording's line of
    recordings.jsonl. Only a labelled recording's foreground labels are kept."""
    n = sum(recordings.n_frames.tolist())
    with path.open("rb") as fh:
        columns = [_read_array(fh, path.name, k, name, dtype, n)
                   for k, (name, dtype) in enumerate(zip(FRAME_FIELDS, _FRAME_DTYPES), start=1)]
        if fh.read(1):
            raise MalformedRow(path.name, len(columns), "bytes after the last array")
    refusal = _value_refusal(columns[:4])
    if refusal is not None:
        i, reason = _refused_recording(recordings, refusal)
        raise MalformedRow(RECORDINGS_FILE, lines[i], f"{path.name}: {reason}")
    frames = FrameBlock(*columns)
    frames.foreground &= np.repeat(recordings.labelled, recordings.n_frames)
    return frames


def _read_array(fh: BinaryIO, file: str, k: int, name: str, dtype: np.dtype, n: int) -> np.ndarray:
    """Array k (1-based) of frames.bin, the frame column name: a version 1.0
    NEP 1 .npy array of exactly n values of exactly dtype, whose header is read as a
    literal and whose values are read as raw bytes; a refusal raises
    MalformedRow with k as its line."""
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
    if os.fstat(fh.fileno()).st_size - fh.tell() < n * dtype.itemsize:  # checked before memory is mapped for it
        raise MalformedRow(file, k, f"{name}: the file ends inside the array")
    out = mapped(n, dtype)
    fh.readinto(out)
    if dtype == bool and out.view(np.uint8).max(initial=0) > 1:
        raise MalformedRow(file, k, f"{name} holds a byte other than 0 and 1")
    return out


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


def write_cohort(cohort: Cohort, dir_path: str | Path) -> None:
    """Write a cohort back out as the five canonical files and frames.bin
    (deterministic bytes).

    A frame value its reader would refuse (see _value_refusal) raises
    ValueError naming the first recording that holds one, before any file
    is written. Each file is first written to a temporary sibling; the
    canonical names are replaced only once every file has been written, so
    a failed write leaves the directory as it was.
    """
    recordings, frames = cohort.recordings, cohort.frames
    refusal = _value_refusal([getattr(frames, name) for name in FRAME_COLUMNS])
    if refusal is not None:
        raise ValueError(_refused_recording(recordings, refusal)[1])
    root = Path(dir_path)
    root.mkdir(parents=True, exist_ok=True)
    temporary = {name: root / f"{name}.tmp" for name in CANONICAL_FILES + (FRAMES_FILE,)}
    try:
        write_csv(temporary[PARTICIPANTS_FILE], PARTICIPANTS_HEADER, _columns(
            [(p.participant_id, p.shift_type.value, p.unit_type.value, p.pos_affect, p.neg_affect, p.life_satisfaction)
             for _, p in sorted(cohort.profiles.items())], (object, object, object, np.int64, np.int64, np.float64)))
        write_csv(temporary[HUBS_FILE], HUBS_HEADER, _columns(
            [(hub_id, h.location_category.value) for hub_id, h in sorted(cohort.hubs.items())], (object, object)))
        cohort.rssi.write_csv(temporary[RSSI_FILE])
        _write_heads(temporary[RECORDINGS_FILE], recordings)
        with temporary[FRAMES_FILE].open("wb") as fh:
            for name, dtype in zip(FRAME_FIELDS, _FRAME_DTYPES):
                np.save(fh, np.asarray(getattr(frames, name), dtype), allow_pickle=False)
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


def _write_heads(path: Path, recordings: RecordingTable) -> None:
    """recordings.jsonl: one head line per recording."""
    ids = {pid: json.dumps(pid) for pid in set(recordings.participant_id.tolist())}  # escapes every non-ASCII character
    labels = ("", ',"labelled":true')
    with path.open("w", encoding="ascii", newline="") as fh:
        fh.writelines(
            f'{{"participant_id":{ids[pid]},"shift_date":"{day}","minute_index":{minute},'
            f'"n_frames":{n}{labels[labelled]}}}\n'
            for pid, day, minute, n, labelled in zip(
                recordings.participant_id.tolist(), np.datetime_as_string(recordings.shift_date).tolist(),
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
    dates, and drop the rows of an id without a profile."""
    if min_days < 1:
        raise ValueError("min_days must be >= 1")
    recordings = participant_codes(cohort.profiles, cohort.recordings.participant_id)
    owners, _ = shift_parts(distinct(shift_codes(recordings, cohort.recordings.shift_date)))
    days = np.bincount(owners[owners >= 0], minlength=len(cohort.profiles))
    keep = np.append(days >= min_days, False)  # code -1 reads the last: no profile
    ids = {pid for pid, k in zip(sorted(cohort.profiles), keep.tolist()) if k}
    return _select(cohort, keep[recordings], keep[participant_codes(cohort.profiles, cohort.rssi.participant_id)],
                   profiles={pid: p for pid, p in cohort.profiles.items() if pid in ids}, hubs=dict(cohort.hubs),
                   physiology=[d for d in cohort.physiology if d.participant_id in ids],
                   warnings=dict(cohort.warnings))
