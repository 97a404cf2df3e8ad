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
row in file order raises. A minute_index beyond the 64-bit integer range is
stored as the nearest 64-bit value, so filter_shift_window still drops it.

write_cohort writes recordings.jsonl in batches of about 1 << 16 frames. For
each batch it concatenates every frame column once, refuses non-finite
values (naming the first recording that holds one) and renders the column's
text in one array pass: a value on the 1e-4 grid (k = rint(|v| * 1e4) with
k / 1e4 == |v|, and |v| < 1e11) has repr(v) equal to k's fixed-point text
with trailing fraction zeros cut, which digit tables give without a repr
call. A batch column with any value off that grid is written with one repr
per value, so the bytes are always those of json.dumps; _recording_json is
that per-value reference. The simulator rounds every frame value to the grid.
"""

from __future__ import annotations

import json
import math
import os
from datetime import date
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import DuplicateParticipant, MalformedRow, UnknownHub
from .model import (
    RSSI_MAX,
    RSSI_MIN,
    SHIFT_MINUTES,
    Cohort,
    DailyPhysiology,
    FrameBlock,
    HubCategory,
    HubRecord,
    ParticipantProfile,
    RecordingSegment,
    RssiTable,
    ShiftType,
    UnitType,
    csv_rows,
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


def _parse_int(text: str, field: str, file: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise MalformedRow(file, line, f"bad integer for {field}: {text!r}") from None


def _parse_float(text: str, field: str, file: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise MalformedRow(file, line, f"bad number for {field}: {text!r}") from None
    if math.isnan(value) or math.isinf(value):
        raise MalformedRow(file, line, f"non-finite value for {field}")
    return value


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
    arrays every _BATCH_ROWS rows. A minute_index
    beyond the 64-bit range is stored as the nearest 64-bit value, which
    lies outside the shift window like the original.
    """
    name = path.name
    parts: list[RssiTable] = []
    columns: tuple[list, ...] = ([], [], [], [], [])
    pids, dates, minutes, hub_ids, values = columns
    good_dates: set[str] = set()  # a file holds few distinct dates; only parsed ones are kept
    clamped = 0
    for lineno, row in csv_rows(path, RssiTable.columns()):
        pid, date_raw, minute_raw, hub_id, rssi_raw = row
        if pid not in profiles:
            raise MalformedRow(name, lineno, f"unknown participant_id {pid!r}")
        if hub_id not in hubs:
            raise UnknownHub(hub_id)
        if date_raw not in good_dates:
            parse_date(date_raw, name, lineno)
            good_dates.add(date_raw)
        minute = _parse_int(minute_raw, "minute_index", name, lineno)
        rssi = _parse_int(rssi_raw, "rssi", name, lineno)
        if rssi < RSSI_MIN or rssi > RSSI_MAX:
            clamped += 1
            rssi = min(max(rssi, RSSI_MIN), RSSI_MAX)
        pids.append(pid)
        dates.append(date_raw)
        minutes.append(min(max(minute, _INT64.min), _INT64.max))
        hub_ids.append(hub_id)
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


def _columns_from_rows(rows: list, file: str, lineno: int) -> dict[str, list]:
    """Transpose the row-of-dicts layout into the columnar one."""
    names = FRAME_COLUMNS
    if rows and type(rows[0]) is dict and "foreground" in rows[0]:
        names += ("foreground",)
    try:
        return {name: [row[name] for row in rows] for name in names}
    except (KeyError, TypeError) as exc:
        raise MalformedRow(file, lineno, f"bad frame: {exc!r}") from None


def _frame_block(columns: dict, file: str, lineno: int) -> FrameBlock:
    """Validate the frame columns of one line (either layout) into a FrameBlock."""
    names = FRAME_COLUMNS + (("foreground",) if "foreground" in columns else ())
    for name in names:
        values = columns.get(name)
        if type(values) is not list:
            raise MalformedRow(file, lineno, f"frames need a {name} array")
        allowed, expected = _COLUMN_TYPES[name]
        if not set(map(type, values)) <= allowed:
            bad = next(i for i, v in enumerate(values) if type(v) not in allowed)
            raise MalformedRow(file, lineno, f"frame {bad}: {name} must be {expected}, got {values[bad]!r}")
    try:
        feats = np.array([columns[name] for name in FRAME_COLUMNS], dtype=float)
    except ValueError:
        raise MalformedRow(file, lineno, "frame columns differ in length") from None
    except OverflowError:
        raise MalformedRow(file, lineno, "frame value too large for a float") from None
    n = feats.shape[1]
    if n == 0:
        raise MalformedRow(file, lineno, "frames must be non-empty")
    # Only a null pitch becomes NaN (no other column admits null), so this
    # leaves overflowed numbers such as 1e999 as the one non-finite case.
    if np.isinf(feats).any():
        raise MalformedRow(file, lineno, "non-finite frame value")
    log_pitch, intensity, hf_lf, fg_prob = feats
    if fg_prob.min() < 0.0 or fg_prob.max() > 1.0:
        bad = int(np.argmax((fg_prob < 0.0) | (fg_prob > 1.0)))
        raise MalformedRow(file, lineno, f"frame {bad}: foreground_prob outside [0, 1]")
    if hf_lf.min() < 0.0:
        bad = int(np.argmax(hf_lf < 0.0))
        raise MalformedRow(file, lineno, f"frame {bad}: hf_lf_ratio negative")
    fg = None
    if "foreground" in columns:
        fg = np.array(columns["foreground"], dtype=bool)
        if len(fg) != n:
            raise MalformedRow(file, lineno, "frame columns differ in length")
    return FrameBlock(log_pitch, intensity, hf_lf, fg_prob, fg)


def parse_recordings(path: Path, profiles: dict[str, ParticipantProfile]) -> list[RecordingSegment]:
    name = path.name
    recordings: list[RecordingSegment] = []
    days: dict[str, date] = {}  # each date text that parsed, with its date
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = _DECODER.decode(line)
            except json.JSONDecodeError as exc:
                raise MalformedRow(name, lineno, f"invalid JSON: {exc.msg}") from None
            except ValueError as exc:
                raise MalformedRow(name, lineno, str(exc)) from None
            try:
                pid = obj["participant_id"]
                date_raw = obj["shift_date"]
                minute = obj["minute_index"]
                raw_frames = obj["frames"]
            except (KeyError, TypeError) as exc:
                raise MalformedRow(name, lineno, f"missing field: {exc}") from None
            if type(pid) is not str or pid not in profiles:
                raise MalformedRow(name, lineno, f"unknown participant_id {pid!r}")
            if type(minute) is not int:
                raise MalformedRow(name, lineno, f"minute_index must be an integer, got {minute!r}")
            shift_date = days.get(date_raw) if type(date_raw) is str else None
            if shift_date is None:
                shift_date = days[date_raw] = parse_date(date_raw, name, lineno)
            if type(raw_frames) is list:
                raw_frames = _columns_from_rows(raw_frames, name, lineno)
            elif type(raw_frames) is not dict:
                raise MalformedRow(name, lineno, "frames must be an object of arrays or a list of frames")
            frames = _frame_block(raw_frames, name, lineno)
            recordings.append(RecordingSegment(pid, shift_date, minute, frames))
    return recordings


def parse_cohort(dir_path: str | Path) -> Cohort:
    """Parse the five canonical files into a validated Cohort.

    Row counts are cohort.counts; clamp events land in cohort.warnings.
    """
    root = Path(dir_path)
    for name in CANONICAL_FILES:
        if not (root / name).is_file():
            raise FileNotFoundError(root / name)
    warnings: dict[str, int] = {}
    profiles = parse_participants(root / PARTICIPANTS_FILE)
    hubs = parse_hubs(root / HUBS_FILE)
    rssi = parse_rssi(root / RSSI_FILE, hubs, profiles, warnings)
    recordings = parse_recordings(root / RECORDINGS_FILE, profiles)
    physiology = parse_physiology(root / PHYSIOLOGY_FILE, profiles)
    return Cohort(profiles, hubs, recordings, rssi, physiology, warnings)


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
        write_csv(temporary[PARTICIPANTS_FILE], PARTICIPANTS_HEADER, (
            (p.participant_id, p.shift_type.value, p.unit_type.value, p.pos_affect, p.neg_affect,
             float(p.life_satisfaction)) for _, p in sorted(cohort.profiles.items())))
        write_csv(temporary[HUBS_FILE], HUBS_HEADER,
                  ((hub_id, h.location_category.value) for hub_id, h in sorted(cohort.hubs.items())))
        cohort.rssi.write_csv(temporary[RSSI_FILE])
        with temporary[RECORDINGS_FILE].open("wb") as fh:
            batch: list[RecordingSegment] = []
            size = 0
            for r in cohort.recordings:
                batch.append(r)
                size += len(r.frames)
                if size >= _BATCH_FRAMES:
                    fh.write(_batch_lines(batch))
                    batch, size = [], 0
            if batch:
                fh.write(_batch_lines(batch))
        write_csv(temporary[PHYSIOLOGY_FILE], PHYSIOLOGY_HEADER, (
            (d.participant_id, d.shift_date.isoformat(), float(d.walk_ratio), float(d.sleep_hours))
            for d in cohort.physiology))
    except BaseException:
        for path in temporary.values():
            path.unlink(missing_ok=True)
        raise
    for name, path in temporary.items():
        os.replace(path, root / name)


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


def _batch_lines(batch: list[RecordingSegment]) -> bytes:
    """The recordings.jsonl lines of a batch of recordings, one pass per frame column.

    Same bytes as joining _recording_json over the batch. A value JSON
    cannot carry (an infinite pitch, or a non-finite value in any other
    column) raises ValueError naming the first recording that holds one.
    """
    blocks = [r.frames for r in batch]
    offsets = np.zeros(len(batch) + 1, np.int64)
    np.cumsum([len(b) for b in blocks], out=offsets[1:])
    # float64 whatever the blocks hold: repr writes a float32 value widened exactly
    columns = [np.concatenate([getattr(b, name) for b in blocks], dtype=np.float64) for name in FRAME_COLUMNS]
    bad = np.isinf(columns[0])
    for values in columns[1:]:
        bad |= ~np.isfinite(values)
    if bad.any():
        raise _non_finite(batch[int(np.searchsorted(offsets, np.argmax(bad), side="right")) - 1])
    spans = [_column_spans(values, offsets) for values in columns]
    keys = [f'"{name}":['.encode() for name in FRAME_COLUMNS]
    heads: dict[tuple[str, date], bytes] = {}
    parts: list = []
    for i, rec in enumerate(batch):
        key = (rec.participant_id, rec.shift_date)
        head = heads.get(key)
        if head is None:
            head = heads[key] = (f'{{"participant_id":{json.dumps(rec.participant_id)},'
                                 f'"shift_date":"{rec.shift_date.isoformat()}","minute_index":').encode()
        parts += (head, b"%d" % rec.minute_index, b',"frames":{', keys[0], spans[0][i], b"],",
                  keys[1], spans[1][i], b"],", keys[2], spans[2][i], b"],", keys[3], spans[3][i], b"]")
        if rec.frames.foreground is not None:
            parts.append(_foreground_json(rec.frames.foreground).encode())
        parts.append(b"}}\n")
    return b"".join(parts)


def _json_floats(values: np.ndarray) -> str:
    return ",".join(map(repr, values.tolist()))


def _foreground_json(labels: np.ndarray) -> str:
    return ',"foreground":[' + ",".join("true" if x else "false" for x in labels.tolist()) + "]"


def _non_finite(rec: RecordingSegment) -> ValueError:
    return ValueError(
        f"non-finite frame value in recording {rec.participant_id} "
        f"{rec.shift_date.isoformat()} minute {rec.minute_index}"
    )


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
        raise _non_finite(rec)
    fg = "" if fb.foreground is None else _foreground_json(fb.foreground)
    head = json.dumps(rec.participant_id)
    return (
        f'{{"participant_id":{head},"shift_date":"{rec.shift_date.isoformat()}",'
        f'"minute_index":{rec.minute_index},"frames":{{'
        f'"log_pitch":[{pitch}],"intensity":[{intensity}],'
        f'"hf_lf_ratio":[{hf_lf}],"foreground_prob":[{prob}]{fg}}}}}'
    )


# --- cohort filters ---


def filter_shift_window(
    recordings: list[RecordingSegment],
    rssi: RssiTable,
) -> tuple[list[RecordingSegment], RssiTable, dict[str, int]]:
    """Keep only events inside the 12-hour shift window [0, 720).

    minute_index 0 is the shift start for both day and night schedules. The
    returned dict counts the dropped events; drops are never fatal. An RSSI
    table that loses no row is returned as it is, not copied.
    """
    kept_rec = [r for r in recordings if 0 <= r.minute_index < SHIFT_MINUTES]
    kept_rssi = _select(rssi, (rssi.minute_index >= 0) & (rssi.minute_index < SHIFT_MINUTES))
    dropped = {
        "recordings_dropped": len(recordings) - len(kept_rec),
        "rssi_dropped": len(rssi) - len(kept_rssi),
    }
    return kept_rec, kept_rssi, dropped


def _select(table: RssiTable, mask: np.ndarray) -> RssiTable:
    """The rows where mask is True; the table itself when that is every row."""
    return table if mask.all() else table.select(mask)


def filter_min_days(cohort: Cohort, min_days: int = MIN_DAYS) -> Cohort:
    """Keep participants with recordings on at least min_days distinct shift dates.

    The RSSI table is shared with the input when it loses no row.
    """
    if min_days < 1:
        raise ValueError("min_days must be >= 1")
    days: dict[str, set[date]] = {}
    for r in cohort.recordings:
        days.setdefault(r.participant_id, set()).add(r.shift_date)
    keep = {pid for pid, dates in days.items() if len(dates) >= min_days}
    kept_rssi = np.fromiter(map(keep.__contains__, cohort.rssi.participant_id), bool, len(cohort.rssi))
    return Cohort(
        profiles={pid: p for pid, p in cohort.profiles.items() if pid in keep},
        hubs=dict(cohort.hubs),
        recordings=[r for r in cohort.recordings if r.participant_id in keep],
        rssi=_select(cohort.rssi, kept_rssi),
        physiology=[d for d in cohort.physiology if d.participant_id in keep],
        warnings=dict(cohort.warnings),
    )
