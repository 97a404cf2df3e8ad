from __future__ import annotations

import io
import json
import math
import shutil
from dataclasses import replace
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from numpy.lib import format as npy

from shifttalk.errors import DuplicateParticipant, MalformedRow, UnknownHub
from shifttalk import ingest
from shifttalk.ingest import (
    CANONICAL_FILES,
    filter_min_days,
    filter_shift_window,
    parse_cohort,
    write_cohort,
)
from shifttalk.model import (FRAME_WINDOW, RSSI_MAX, RSSI_MIN, Cohort, FrameBlock,
                             HubCategory, HubRecord, LocationCategory, RecordingSegment, RecordingTable, line_blocks,
                             write_csv)

from conftest import (D0, assert_cohorts_equal, decoded, listed_timelines, profile, recording, rssi_rows, segments,
                      tiny_cohort, with_recordings)

HEADERS = {
    "participants.csv": "participant_id,shift_type,unit_type,pos_affect,neg_affect,life_satisfaction",
    "hubs.csv": "hub_id,location_category",
    "rssi.csv": "participant_id,shift_date,minute_index,hub_id,rssi",
    "physiology.csv": "participant_id,shift_date,walk_ratio,sleep_hours",
}


HEAD = {"participant_id": "p1", "shift_date": "2022-03-01", "minute_index": 0, "n_frames": 1}
HEAD_LINE = json.dumps(HEAD, separators=(",", ":"))
MARK = "@bad@"


def head_line(field: str, text: str) -> str:
    """HEAD_LINE with `field` set to (or, if absent, given) the raw JSON text `text`."""
    return json.dumps({**HEAD, field: MARK}, separators=(",", ":")).replace(f'"{MARK}"', text)


def saved(*arrays: np.ndarray) -> bytes:
    out = io.BytesIO()
    for array in arrays:
        np.save(out, array, allow_pickle=True)
    return out.getvalue()


def column(arrays: list[np.ndarray], k: int, value) -> bytes:
    """frames.bin with array k (0-based) replaced by value, or with
    value(array) when value is callable."""
    arrays = list(arrays)
    arrays[k] = value(arrays[k]) if callable(value) else value
    return saved(*arrays)


def frame(arrays: list[np.ndarray], k: int, i: int, value: float) -> bytes:
    """frames.bin with frame i of array k set to value."""
    array = arrays[k].copy()
    array[i] = value
    return column(arrays, k, array)


def good_arrays(n: int) -> list[np.ndarray]:
    """frames.bin's five arrays for n valid frames, none labelled."""
    return [np.full(n, value) for value in (4.7, 60.0, 0.8, 0.9)] + [np.zeros(n, bool)]


def write_dir(tmp_path: Path, frames_bin: bytes | None = None, **overrides: list[str]) -> Path:
    """Minimal valid input directory, with per-file row overrides. frames.bin
    holds frames_bin, by default one valid frame per non-blank line of
    recordings.jsonl (whose default line, HEAD_LINE, has one frame)."""
    defaults = {
        "participants.csv": ["p1,day,icu,30,25,4.2"],
        "hubs.csv": ["h_ns,ns"],
        "rssi.csv": ["p1,2022-03-01,0,h_ns,160"],
        "physiology.csv": ["p1,2022-03-01,0.4,7.0"],
    }
    defaults.update({k: v for k, v in overrides.items() if k != "recordings.jsonl"})
    for name, rows in defaults.items():
        (tmp_path / name).write_text("\n".join([HEADERS[name]] + rows) + "\n")
    rec_rows = overrides.get("recordings.jsonl", [HEAD_LINE])
    (tmp_path / "recordings.jsonl").write_text("\n".join(rec_rows) + "\n")
    if frames_bin is None:
        frames_bin = saved(*good_arrays(sum(1 for row in rec_rows if row.strip())))
    (tmp_path / "frames.bin").write_bytes(frames_bin)
    return tmp_path


def test_parse_minimal_directory(tmp_path):
    cohort = parse_cohort(write_dir(tmp_path))
    assert cohort.counts == {"participants": 1, "hubs": 1, "rssi": 1, "recordings": 1, "physiology": 1}
    assert cohort.profiles["p1"].pos_affect == 30
    assert cohort.recordings.minute_index.tolist() == [0]
    assert cohort.recordings.n_frames.tolist() == [1]
    assert len(cohort.frames) == 1


def test_empty_rssi_file_is_fine(tmp_path):
    cohort = parse_cohort(write_dir(tmp_path, **{"rssi.csv": []}))
    assert len(cohort.rssi) == 0
    assert cohort.counts["rssi"] == 0


def test_rssi_below_range_clamped_with_warning(tmp_path):
    cohort = parse_cohort(write_dir(tmp_path, **{"rssi.csv": ["p1,2022-03-01,0,h_ns,135"]}))
    assert cohort.rssi.rssi.tolist() == [136]
    assert cohort.warnings["rssi_clamped"] == 1


def test_rssi_above_range_clamped(tmp_path):
    cohort = parse_cohort(write_dir(tmp_path, **{"rssi.csv": ["p1,2022-03-01,0,h_ns,200"]}))
    assert cohort.rssi.rssi.tolist() == [193]


def test_rssi_first_bad_row_in_file_order_raises(tmp_path):
    # a bad date on line 3 comes before an unknown hub on line 4
    rows = ["p1,2022-03-01,0,h_ns,160", "p1,2022-3-1,1,h_ns,160", "p1,2022-03-01,2,h_ghost,160"]
    with pytest.raises(MalformedRow) as err:
        parse_cohort(write_dir(tmp_path, **{"rssi.csv": rows}))
    assert str(err.value) == "rssi.csv:3: bad shift_date '2022-3-1'"
    # swapped, the unknown hub raises first
    rows[1:] = rows[2], rows[1]
    with pytest.raises(UnknownHub, match="h_ghost"):
        parse_cohort(write_dir(tmp_path, **{"rssi.csv": rows}))


def with_byte_ff(path: Path, line: int) -> None:
    """Put byte 0xff, which is not UTF-8, at the end of line (1-based) of path."""
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] += b"\xff"
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("earlier, error", [
    (None, "rssi.csv:3: not UTF-8 text"),
    ("p1,2022-03-01,x,h_ns,160", "rssi.csv:2: bad integer for minute_index: 'x'"),  # an earlier bad row first
])
def test_rssi_byte_that_is_not_utf8_raises_at_its_line(tmp_path, earlier, error):
    rows = ["p1,2022-03-01,0,h_ns,160"] * 4
    if earlier:
        rows[0] = earlier
    root = write_dir(tmp_path, **{"rssi.csv": rows})
    with_byte_ff(root / "rssi.csv", 3)
    with pytest.raises(MalformedRow) as err:
        parse_cohort(root)
    assert str(err.value) == error


@pytest.mark.parametrize("earlier, error", [
    (None, "participants.csv:3: not UTF-8 text"),
    ("p1,day,icu,30,25,9.0", "participants.csv:2: life_satisfaction 9.0 outside [1, 7]"),
    ("p1,day,ward,30,25,4.2", "participants.csv:2: bad unit_type 'ward'"),
    ("p1,day,icu,30,51,4.2", "participants.csv:2: neg_affect 51 outside [10, 50]"),
])
def test_participants_byte_that_is_not_utf8_raises_at_its_line(tmp_path, earlier, error):
    rows = ["p1,day,icu,30,25,4.2", "p2,day,icu,30,25,4.2", "p3,day,icu,30,25,4.2"]
    if earlier:
        rows[0] = earlier
    root = write_dir(tmp_path, **{"participants.csv": rows})
    with_byte_ff(root / "participants.csv", 3)
    with pytest.raises(MalformedRow) as err:
        parse_cohort(root)
    assert str(err.value) == error


def test_participant_row_after_a_quoted_line_break_raises_at_its_line(tmp_path):
    rows = ['"p\n1",day,icu,30,25,4.2', "p2,day,icu,30,25,4.2", "p3,swing,icu,30,25,4.2"]
    with pytest.raises(MalformedRow) as err:
        ingest.parse_participants(write_dir(tmp_path, **{"participants.csv": rows}) / "participants.csv")
    assert str(err.value) == "participants.csv:5: bad shift_type 'swing'"
    assert list(ingest.parse_participants(write_dir(tmp_path, **{"participants.csv": rows[:2]})
                                          / "participants.csv")) == ["p\n1", "p2"]


def test_extract_exits_2_on_a_csv_byte_that_is_not_utf8(tmp_path, capsys):
    from shifttalk.cli import main

    root = tmp_path / "data"
    root.mkdir()
    write_dir(root, **{"rssi.csv": ["p1,2022-03-01,0,h_ns,160"] * 4})
    with_byte_ff(root / "rssi.csv", 3)
    assert main(["extract", "--input", str(root), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: rssi.csv:3: not UTF-8 text\n"


def test_extract_exits_2_on_a_csv_field_over_the_csv_modules_limit(tmp_path, capsys):
    from shifttalk.cli import main

    root = tmp_path / "data"
    root.mkdir()
    write_dir(root, **{"rssi.csv": ["p1,2022-03-01,0,h_ns,160"] * 2 + ["p1,2022-03-01,0,h_" + "x" * 200_000 + ",160"]})
    assert main(["extract", "--input", str(root), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: rssi.csv:4: field larger than field limit (131072)\n"


def test_each_date_text_parses_once_and_a_bad_one_raises_at_its_line(tmp_path, monkeypatch):
    calls = []
    parse_date = ingest.parse_date
    monkeypatch.setattr(ingest, "parse_date", lambda text, *where: calls.append(text) or parse_date(text, *where))
    rows = [f"p1,2022-03-0{1 + i % 2},{i},h_ns,160" for i in range(6)]
    assert len(parse_cohort(write_dir(tmp_path, **{"rssi.csv": rows})).rssi) == 6
    # once per distinct text in rssi.csv, once each in recordings.jsonl and physiology.csv
    assert sorted(calls) == ["2022-03-01"] * 3 + ["2022-03-02"]
    # a bad date text is not remembered: each of its rows would raise, the first one does
    rows[2:2] = ["p1,2022-3-1,0,h_ns,160", "p1,2022-3-1,1,h_ns,160"]
    with pytest.raises(MalformedRow) as err:
        parse_cohort(write_dir(tmp_path, **{"rssi.csv": rows}))
    assert str(err.value) == "rssi.csv:4: bad shift_date '2022-3-1'"


@pytest.mark.parametrize("shift_date, text", [('"2022-3-1"', "'2022-3-1'"), ('["2022-03-01"]', "['2022-03-01']"),
                                              ("20220301", "20220301")])
def test_recording_date_after_a_good_one_raises_at_its_line(tmp_path, shift_date, text):
    rows = [HEAD_LINE, head_line("shift_date", shift_date), HEAD_LINE]
    with pytest.raises(MalformedRow) as err:
        parse_cohort(write_dir(tmp_path, **{"recordings.jsonl": rows}))
    assert str(err.value) == f"recordings.jsonl:2: bad shift_date {text}"


@pytest.mark.parametrize("rows, message", [
    # a malformed row after a bad value: the bad value's line raises
    (["p1,2022-03-01,x,h_ns,160", "p1,2022-03-01,0,h_ns"], "rssi.csv:2: bad integer for minute_index: 'x'"),
    # and before it: the field count's line raises
    (["p1,2022-03-01,0,h_ns", "p1,2022-03-01,x,h_ns,160"], "rssi.csv:2: expected 5 fields, got 4"),
    (["p1,2022-03-01,0,h_ns,160", "", "ghost,2022-03-01,0,h_ns,160"], "rssi.csv:4: unknown participant_id 'ghost'"),
    (["p1,2022-03-01,0,h_ns,1e3"], "rssi.csv:2: bad integer for rssi: '1e3'"),
    # a field one character past csv's limit, alone on its line; and one at the limit
    (["p1,2022-03-01,0,h_ns,160", "x" * 131073], "rssi.csv:3: field larger than field limit (131072)"),
    (["p1,2022-03-01,0,h_ns,160", "p1,2022-03-01,0," + "h" * 131072 + ",160"],
     "rssi.csv:3: unknown hub_id '" + "h" * 131072 + "'"),
])
@pytest.mark.parametrize("batch_rows", [1, 2, ingest._BATCH_ROWS])
def test_rssi_errors_name_their_line(tmp_path, monkeypatch, rows, message, batch_rows):
    monkeypatch.setattr(ingest, "_BATCH_ROWS", batch_rows)
    with pytest.raises(MalformedRow) as err:
        parse_cohort(write_dir(tmp_path, **{"rssi.csv": rows}))
    assert str(err.value) == message


@pytest.mark.parametrize("file, row, message", [
    ("rssi.csv", "p1,2022-03-01, 5,h_ns,160", "rssi.csv:2: bad integer for minute_index: ' 5'"),
    ("rssi.csv", "p1,2022-03-01,+5,h_ns,160", "rssi.csv:2: bad integer for minute_index: '+5'"),
    ("rssi.csv", "p1,2022-03-01,1_0,h_ns,160", "rssi.csv:2: bad integer for minute_index: '1_0'"),
    ("rssi.csv", "p1,2022-03-01,5,h_ns,\u0661\u0666\u0660", "rssi.csv:2: bad integer for rssi: '\u0661\u0666\u0660'"),
    ("physiology.csv", "p1,2022-03-01,+0.4,7.0", "physiology.csv:2: bad number for walk_ratio: '+0.4'"),
    ("physiology.csv", "p1,2022-03-01,0.4,7_0.0", "physiology.csv:2: bad number for sleep_hours: '7_0.0'"),
    ("participants.csv", "p1,day,icu,30,25, 4.2", "participants.csv:2: bad number for life_satisfaction: ' 4.2'"),
])
def test_number_cells_refuse_what_the_writers_never_write(tmp_path, file, row, message):
    with pytest.raises(MalformedRow) as err:
        parse_cohort(write_dir(tmp_path, **{file: [row]}))
    assert str(err.value) == message


@pytest.mark.parametrize("file, rows, message", [
    ("hubs.csv", ["h_ns,ns", "h_ns,pat"], "hubs.csv:3: duplicate hub_id 'h_ns'"),
    ("hubs.csv", ["h_ns,kitchen"], "hubs.csv:2: bad location_category 'kitchen'"),
    ("physiology.csv", ["p1,2022-03-01,0.4,7.0", "ghost,2022-03-01,0.4,7.0"],
     "physiology.csv:3: unknown participant_id 'ghost'"),
    ("physiology.csv", ["p1,2022-03-01,1.5,7.0"], "physiology.csv:2: walk_ratio 1.5 outside [0, 1]"),
    ("physiology.csv", ["p1,2022-03-01,0.4,24.5"], "physiology.csv:2: sleep_hours 24.5 outside [0, 24]"),
])
def test_hub_and_physiology_rows_that_break_a_rule_raise_at_their_line(tmp_path, file, rows, message):
    with pytest.raises(MalformedRow) as err:
        parse_cohort(write_dir(tmp_path, **{file: rows}))
    assert str(err.value) == message


@pytest.mark.parametrize("batch_rows", [1, 2, ingest._BATCH_ROWS])
def test_rssi_table_columns_follow_file_order(tmp_path, monkeypatch, batch_rows):
    monkeypatch.setattr(ingest, "_BATCH_ROWS", batch_rows)
    rows = ["p1,2022-03-02,-3,h_ns,99999999999999999999", "p1,2022-03-01,725,h_ns,150", "p1,2022-03-01,0,h_ns,-7"]
    cohort = parse_cohort(write_dir(tmp_path, **{"rssi.csv": rows}))
    t = cohort.rssi
    assert t.participant.tolist() == [0] * 3
    assert t.shift_date.tolist() == [date(2022, 3, 2), D0, D0]
    assert t.minute_index.tolist() == [-3, 725, 0]
    assert t.hub.tolist() == [0] * 3
    assert t.rssi.tolist() == [193, 150, 136]
    assert cohort.warnings == {"rssi_clamped": 2}
    write_cohort(cohort, tmp_path / "out")
    assert (tmp_path / "out" / "rssi.csv").read_text().splitlines() == [
        HEADERS["rssi.csv"], "p1,2022-03-02,-3,h_ns,193", "p1,2022-03-01,725,h_ns,150", "p1,2022-03-01,0,h_ns,136"]


def test_minute_beyond_64_bits_is_kept_and_dropped_by_the_window(tmp_path):
    rows = ["p1,2022-03-01,99999999999999999999,h_ns,160", "p1,2022-03-01,-99999999999999999999,h_ns,160",
            "p1,2022-03-01,5,h_ns,160"]
    cohort = parse_cohort(write_dir(tmp_path, **{"rssi.csv": rows}))
    assert cohort.rssi.minute_index.tolist() == [2**63 - 1, -2**63, 5]
    _, dropped = filter_shift_window(cohort)
    assert dropped["rssi_dropped"] == 2


def test_ids_with_trailing_nul_kept_exactly(tmp_path):
    # csv reads NUL inside a field on Python 3.11+; numpy str arrays would drop it
    rows = ["p1\0,2022-03-01,0,h_ns\0,160", "p1,2022-03-01,1,h_ns,160"]
    path = write_dir(tmp_path, **{"participants.csv": ["p1\0,day,icu,30,25,4.2", "p1,day,icu,30,25,4.2"],
                                  "hubs.csv": ["h_ns\0,pat", "h_ns,ns"], "rssi.csv": rows})
    cohort = parse_cohort(path)
    assert decoded(cohort.profiles, cohort.rssi.participant) == ["p1\0", "p1"]
    assert decoded(cohort.hubs, cohort.rssi.hub) == ["h_ns\0", "h_ns"]
    slots = listed_timelines(cohort.rssi, cohort.hubs, [("p1\0", D0), ("p1", D0)], profiles=cohort.profiles)
    assert slots[0, 0] == LocationCategory.PATIENT_ROOM
    assert slots[1, 1] == LocationCategory.NURSING_STATION
    kept = filter_min_days(cohort, np.ones(len(cohort.recordings), bool), 1)  # p1\0 has no recordings
    assert [pid for pid, k in zip(sorted(cohort.profiles), kept.tolist()) if k] == ["p1"]
    write_cohort(cohort, tmp_path / "out")
    assert (tmp_path / "out" / "rssi.csv").read_text().splitlines()[1:] == rows


def test_pos_affect_below_bound_rejected(tmp_path):
    path = write_dir(tmp_path, **{"participants.csv": ["p1,day,icu,9,25,4.2"]})
    with pytest.raises(MalformedRow) as err:
        parse_cohort(path)
    assert "pos_affect" in str(err.value)


def test_duplicate_participant_rejected(tmp_path):
    path = write_dir(tmp_path, **{"participants.csv": ["p1,day,icu,30,25,4.2", "p1,night,icu,30,25,4.2"]})
    with pytest.raises(DuplicateParticipant) as err:
        parse_cohort(path)
    assert str(err.value) == "participants.csv:3: duplicate participant_id 'p1'"
    assert err.value.participant_id == "p1"


def test_unknown_hub_rejected(tmp_path):
    path = write_dir(tmp_path, **{"rssi.csv": ["p1,2022-03-01,0,h_ns,160", "p1,2022-03-01,0,h_ghost,160"]})
    with pytest.raises(UnknownHub) as err:
        parse_cohort(path)
    assert str(err.value) == "rssi.csv:3: unknown hub_id 'h_ghost'"
    assert err.value.hub_id == "h_ghost"


@pytest.mark.parametrize("file, row, error", [
    ("rssi.csv", "p1,2022-03-01,0,h_ghost,160", "rssi.csv:3: unknown hub_id 'h_ghost'"),
    ("participants.csv", "p1,night,icu,30,25,4.2", "participants.csv:3: duplicate participant_id 'p1'"),
])
def test_extract_exits_2_naming_the_line_of_an_unknown_hub_or_a_duplicate_participant(tmp_path, capsys, file, row,
                                                                                       error):
    from shifttalk.cli import main

    root = tmp_path / "data"
    root.mkdir()
    write_dir(root, **{file: {"rssi.csv": ["p1,2022-03-01,0,h_ns,160"],
                              "participants.csv": ["p1,day,icu,30,25,4.2"]}[file] + [row]})
    assert main(["extract", "--input", str(root), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def test_unknown_participant_in_recordings_rejected(tmp_path):
    rows = [head_line("participant_id", '"ghost"')]
    with pytest.raises(MalformedRow) as err:
        parse_cohort(write_dir(tmp_path, **{"recordings.jsonl": rows}))
    assert str(err.value) == "recordings.jsonl:1: unknown participant_id 'ghost'"


@pytest.mark.parametrize("shift_date", ["20220301", "2022-W09-2", "2022-3-1"])
def test_non_canonical_shift_date_rejected(tmp_path, shift_date):
    path = write_dir(tmp_path, **{"rssi.csv": [f"p1,{shift_date},0,h_ns,160"]})
    with pytest.raises(MalformedRow) as err:
        parse_cohort(path)
    assert (err.value.file, err.value.line) == ("rssi.csv", 2)


def test_bad_shift_type_rejected(tmp_path):
    path = write_dir(tmp_path, **{"participants.csv": ["p1,swing,icu,30,25,4.2"]})
    with pytest.raises(MalformedRow):
        parse_cohort(path)


def test_foreground_prob_out_of_range_rejected(tmp_path):
    with pytest.raises(MalformedRow) as err:
        parse_cohort(write_dir(tmp_path, frame(good_arrays(1), 3, 0, 1.5)))
    assert str(err.value) == ("recordings.jsonl:1: frames.bin: foreground_prob outside [0, 1] "
                              "in recording p1 2022-03-01 minute 0")


@pytest.mark.parametrize("name", ["hubs.csv", "frames.bin"])
def test_missing_file_raises(tmp_path, name):
    write_dir(tmp_path)
    (tmp_path / name).unlink()
    with pytest.raises(FileNotFoundError) as err:
        parse_cohort(tmp_path)
    assert str(err.value) == str(tmp_path / name)


INLINE_LINE = ('{"participant_id":"p1","shift_date":"2022-03-01","minute_index":0,'
               '"frames":[{"log_pitch":4.7,"intensity":60.0,"hf_lf_ratio":0.8,"foreground_prob":0.9}]}')


def test_extract_exits_2_on_inline_frames_without_frames_bin(tmp_path, capsys):
    from shifttalk.cli import main

    root = tmp_path / "data"
    root.mkdir()
    write_dir(root, **{"recordings.jsonl": [INLINE_LINE]})
    (root / "frames.bin").unlink()
    assert main(["extract", "--input", str(root), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: file not found: {root / 'frames.bin'}\n"


def test_null_log_pitch_becomes_nan(tmp_path):
    cohort = parse_cohort(write_dir(tmp_path, frame(good_arrays(1), 0, 0, math.nan)))
    assert np.isnan(cohort.frames.log_pitch[0])


def test_external_foreground_flags_parsed(tmp_path):
    root = write_dir(tmp_path, column(good_arrays(1), 4, np.ones(1, bool)),
                     **{"recordings.jsonl": [head_line("labelled", "true")]})
    cohort = parse_cohort(root)
    assert cohort.recordings.labelled[0] and cohort.frames.foreground[0]


def integer_refusal(digits: str) -> str:
    """What int() says of an integer text past its digit limit, as json.loads says it."""
    try:
        int(digits)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("int() took it")


def lookup_refusal(line: str) -> str:
    """What a line that decodes to something other than a JSON object says
    when its participant_id is looked up."""
    try:
        json.loads(line)["participant_id"]
    except (KeyError, TypeError) as exc:
        return f"missing field: {exc}"
    raise AssertionError("the lookup took it")


TOO_LONG = "1" + "0" * 5000  # past int's default limit of 4300 digits
TEN_KEYS = json.dumps({str(k): k for k in range(10)})
BAD_VALUES = [  # (field, raw JSON text, reason); NaN and Infinity fail the field's own type check
    ("minute_index", "true", "minute_index must be an integer, got True"),
    ("minute_index", "false", "minute_index must be an integer, got False"),
    ("minute_index", "0.5", "minute_index must be an integer, got 0.5"),
    ("minute_index", '"0"', "minute_index must be an integer, got '0'"),
    ("minute_index", "NaN", "minute_index must be an integer, got nan"),
    ("minute_index", TOO_LONG, integer_refusal(TOO_LONG)),
    ("participant_id", '["p1"]', "unknown participant_id ['p1']"),
    ("participant_id", '"ghost"', "unknown participant_id 'ghost'"),
    ("participant_id", "NaN", "unknown participant_id nan"),
    ("shift_date", "20220301", "bad shift_date 20220301"),
    ("shift_date", '"20220301"', "bad shift_date '20220301'"),
    ("shift_date", "Infinity", "bad shift_date inf"),
    ("n_frames", "0", "n_frames must be a positive integer, got 0"),
    ("n_frames", "-1", "n_frames must be a positive integer, got -1"),
    ("n_frames", "1.0", "n_frames must be a positive integer, got 1.0"),
    ("n_frames", "true", "n_frames must be a positive integer, got True"),
    ("n_frames", '"1"', "n_frames must be a positive integer, got '1'"),
    ("n_frames", "null", "n_frames must be a positive integer, got None"),
    ("n_frames", "Infinity", "n_frames must be a positive integer, got inf"),
    ("n_frames", "9223372036854775808", "n_frames must be a positive integer, got 9223372036854775808"),
    ("labelled", "1", "labelled must be true or false, got 1"),
    ("labelled", '"yes"', "labelled must be true or false, got 'yes'"),
    ("labelled", "null", "labelled must be true or false, got None"),
    ("labelled", "-Infinity", "labelled must be true or false, got -inf"),
    ("minute_index", "null", "minute_index must be an integer, got None"),
    ("minute_index", "[0]", "minute_index must be an integer, got [0]"),
    ("minute_index", "1e2", "minute_index must be an integer, got 100.0"),
    ("minute_index", "-0.0", "minute_index must be an integer, got -0.0"),
    ("minute_index", "-Infinity", "minute_index must be an integer, got -inf"),
    ("participant_id", "null", "unknown participant_id None"),
    ("participant_id", "1", "unknown participant_id 1"),
    ("participant_id", '""', "unknown participant_id ''"),
    ("participant_id", '"P1"', "unknown participant_id 'P1'"),
    ("participant_id", '"p1 "', "unknown participant_id 'p1 '"),
    ("participant_id", '{"id":"p1"}', "unknown participant_id {'id': 'p1'}"),
    ("shift_date", "null", "bad shift_date None"),
    ("shift_date", '"2022-02-30"', "bad shift_date '2022-02-30'"),
    ("shift_date", '"2022-03-01T00:00"', "bad shift_date '2022-03-01T00:00'"),
    ("shift_date", '" 2022-03-01"', "bad shift_date ' 2022-03-01'"),
    ("shift_date", '"2022-W09-2"', "bad shift_date '2022-W09-2'"),
    ("shift_date", TEN_KEYS, f"bad shift_date {json.loads(TEN_KEYS)!r}"),  # as long as a date, but no text
    ("n_frames", "[1]", "n_frames must be a positive integer, got [1]"),
    ("n_frames", "1e0", "n_frames must be a positive integer, got 1.0"),
    ("n_frames", "-0", "n_frames must be a positive integer, got 0"),
    ("n_frames", "NaN", "n_frames must be a positive integer, got nan"),
    ("n_frames", "{}", "n_frames must be a positive integer, got {}"),
    ("labelled", "0", "labelled must be true or false, got 0"),
    ("labelled", '"true"', "labelled must be true or false, got 'true'"),
    ("labelled", "[]", "labelled must be true or false, got []"),
    ("labelled", "NaN", "labelled must be true or false, got nan"),
]
INLINE = "inline frames are no longer read; a recording's frames go in frames.bin"
BAD_LINES = [(head_line(field, text), reason) for field, text, reason in BAD_VALUES] + [
    (INLINE_LINE, INLINE),
    (head_line("frames", "[]"), INLINE),
    (HEAD_LINE.replace('"n_frames"', '"frame_count"'), "n_frames must be a positive integer, got None"),
    ("[1]", "missing field: list indices must be integers or slices, not str"),
    ("null", "missing field: 'NoneType' object is not subscriptable"),
    ("{", "invalid JSON: Expecting property name enclosed in double quotes"),
    ('{"participant_id":"p1"}', "missing field: 'shift_date'"),
    (HEAD_LINE + "x", "invalid JSON: Extra data"),
    (HEAD_LINE + HEAD_LINE, "invalid JSON: Extra data"),
    (HEAD_LINE.replace("}", ",}"), "invalid JSON: Expecting property name enclosed in double quotes"),
    (HEAD_LINE.replace('"', "'"), "invalid JSON: Expecting property name enclosed in double quotes"),
    ("\ufeff" + HEAD_LINE, "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ("{}", "missing field: 'participant_id'"),
    (HEAD_LINE.replace('"minute_index":0,', ""), "missing field: 'minute_index'"),
    ('"p1"', lookup_refusal('"p1"')),
    ("1", lookup_refusal("1")),
    ("true", lookup_refusal("true")),
    ("[]", lookup_refusal("[]")),
]


@pytest.mark.parametrize("line, reason", BAD_LINES)
def test_every_bad_line_raises_at_its_line(tmp_path, line, reason):
    root = write_dir(tmp_path, **{"recordings.jsonl": [HEAD_LINE, line]})
    with pytest.raises(MalformedRow) as err:
        parse_cohort(root)
    assert (err.value.file, err.value.line, err.value.reason) == ("recordings.jsonl", 2, reason)


VALUE_FAULT = (head_line("minute_index", '"0"'), "minute_index must be an integer, got '0'")
LABEL_FAULT = (head_line("labelled", "1"), "labelled must be true or false, got 1")
STRUCTURE_FAULT = (HEAD_LINE + "x", "invalid JSON: Extra data")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("first, then", [(VALUE_FAULT, STRUCTURE_FAULT), (LABEL_FAULT, STRUCTURE_FAULT),
                                         (STRUCTURE_FAULT, VALUE_FAULT)])
def test_first_bad_line_raises_at_its_number_whatever_the_line_end(tmp_path, end, first, then):
    root = write_dir(tmp_path)
    lines = [HEAD_LINE, "", first[0], then[0], HEAD_LINE]
    (root / "recordings.jsonl").write_text("".join(line + end for line in lines), newline="")
    with pytest.raises(MalformedRow) as err:
        parse_cohort(root)
    assert (err.value.file, err.value.line, err.value.reason) == ("recordings.jsonl", 3, first[1])


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("bad_frames, head_fault, line, reason", [
    # a bad frame is named by its recording's line, blank lines counted
    ([2], None, 4, "frames.bin: hf_lf_ratio negative in recording p1 2022-03-01 minute 0"),
    ([1, 3], None, 3, "frames.bin: hf_lf_ratio negative in recording p1 2022-03-01 minute 0"),
    # and every head line is checked first, a later one too
    ([0], LABEL_FAULT[0], 5, LABEL_FAULT[1]),
])
def test_bad_frame_raises_at_its_recordings_line_whatever_the_line_end(tmp_path, end, bad_frames, head_fault,
                                                                      line, reason):
    arrays = good_arrays(5)
    for i in bad_frames:
        arrays[2][i] = -1.0
    root = write_dir(tmp_path, saved(*arrays))
    lines = [HEAD_LINE, "", HEAD_LINE, HEAD_LINE, head_fault or HEAD_LINE, HEAD_LINE]
    (root / "recordings.jsonl").write_text("".join(line + end for line in lines), newline="")
    with pytest.raises(MalformedRow) as err:
        parse_cohort(root)
    assert (err.value.file, err.value.line, err.value.reason) == ("recordings.jsonl", line, reason)


UNDECODABLE = HEAD_LINE.encode().replace(b"2022", b"2022\xff", 1)  # not UTF-8
TOO_DEEP = b"[" * 100_000  # nested past the recursion limit
OK = HEAD_LINE.encode()
NEGATIVE = frame(good_arrays(2), 2, 0, -1.0)  # frames.bin whose first frame has a negative hf_lf_ratio


@pytest.mark.parametrize("lines, frames_bin, line, reason", [
    ([OK, UNDECODABLE], None, 2, "not UTF-8 text"),
    ([OK, TOO_DEEP], None, 2, "invalid JSON: nested too deeply"),
    # every line is checked before any frame value
    ([OK, OK], NEGATIVE, 1, "frames.bin: hf_lf_ratio negative in recording p1 2022-03-01 minute 0"),
    ([OK, UNDECODABLE], NEGATIVE, 2, "not UTF-8 text"),
    ([OK, b"{\r" + UNDECODABLE], None, 2, "invalid JSON: Expecting property name enclosed in double quotes"),
    ([OK, UNDECODABLE + b"\r{"], None, 2, "not UTF-8 text"),
    ([OK, OK + b"\r" + UNDECODABLE], None, 3, "not UTF-8 text"),
])
def test_lines_json_cannot_decode_raise_at_their_line(tmp_path, capsys, lines, frames_bin, line, reason):
    from shifttalk.cli import main

    root = tmp_path / "data"
    root.mkdir()
    write_dir(root, frames_bin)
    (root / ingest.RECORDINGS_FILE).write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(MalformedRow) as err:
        ingest.parse_cohort(root)
    assert (err.value.file, err.value.line, err.value.reason) == ("recordings.jsonl", line, reason)
    assert main(["extract", "--input", str(root), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: recordings.jsonl:{line}: {reason}\n"


BAD_RSSI = "p1,2022-03-01,x,h_ns,160"


@pytest.mark.parametrize("bad_at, rssi_row, error", [
    (2, None, "recordings.jsonl:2: minute_index must be an integer, got '0'"),
    (9, None, "recordings.jsonl:9: minute_index must be an integer, got '0'"),
    (None, BAD_RSSI, "rssi.csv:7: bad integer for minute_index: 'x'"),
    (2, BAD_RSSI, "rssi.csv:7: bad integer for minute_index: 'x'"),  # rssi.csv is read first
    (9, "p1,2022-03-01,5,h_ghost,160", "rssi.csv:7: unknown hub_id 'h_ghost'"),
])
def test_rssi_csv_refuses_before_recordings_jsonl(tmp_path, bad_at, rssi_row, error):
    lines = [HEAD_LINE] * 10
    if bad_at is not None:
        lines[bad_at - 1] = VALUE_FAULT[0]
    rssi = ["p1,2022-03-01,0,h_ns,160"] * 5 + [rssi_row or "p1,2022-03-01,5,h_ns,160"]
    with pytest.raises(Exception) as err:
        parse_cohort(write_dir(tmp_path, **{"recordings.jsonl": lines, "rssi.csv": rssi}))
    assert str(err.value) == error


@pytest.mark.parametrize("second, frames_bin", [
    (head_line("minute_index", "0.5"), None),
    (head_line("labelled", "1"), None),
    (HEAD_LINE, frame(good_arrays(2), 1, 1, math.inf)),  # a frame value is named by the line read once
])
def test_refused_file_is_opened_once(tmp_path, monkeypatch, second, frames_bin):
    root = write_dir(tmp_path, frames_bin, **{"recordings.jsonl": [HEAD_LINE, second]})
    opened: list[Path] = []
    path_open = Path.open

    def counted(self, *args, **kwargs):
        if self.name == ingest.RECORDINGS_FILE:
            opened.append(self)
        return path_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counted)
    with pytest.raises(MalformedRow, match="recordings.jsonl:2:"):
        parse_cohort(root)
    assert len(opened) == 1


def loaded(data: bytes) -> RecordingTable:
    """The recordings of a valid recordings.jsonl with participants p1 and
    p2, read line by line with json.loads."""
    heads = [json.loads(line) for line in data.decode().splitlines() if line.strip()]  # lines end in \n, \r\n or \r
    return RecordingTable([["p1", "p2"].index(h["participant_id"]) for h in heads],
                          [date.fromisoformat(h["shift_date"]) for h in heads],
                          [min(max(h["minute_index"], -2**63), 2**63 - 1) for h in heads],
                          [h["n_frames"] for h in heads], [h.get("labelled", False) for h in heads])


def test_head_reader_matches_json_loads_property(tmp_path):
    import hypothesis
    from hypothesis import strategies as st

    @st.composite
    def line(draw) -> str:
        head = {
            "participant_id": draw(st.sampled_from(["p1", "p2"])),
            "shift_date": draw(st.sampled_from(["2022-03-01", "2022-03-02"])),
            "minute_index": draw(st.one_of(st.integers(-5, 800),
                                           st.sampled_from([2**70, -(2**64), 2**63 - 1, -(2**63), -(2**63) - 1]))),
            "n_frames": draw(st.integers(1, 4)),
        }
        labelled = draw(st.sampled_from([None, True, False]))
        if labelled is not None:
            head["labelled"] = labelled
        if draw(st.booleans()):
            head["note"] = "other keys are ignored"
        order = draw(st.permutations(list(head)))
        return json.dumps({key: head[key] for key in order}, separators=draw(st.sampled_from([(",", ":"), None])))

    text = st.lists(st.tuples(st.one_of(line(), st.sampled_from(["", "  ", "\t"])),
                              st.sampled_from(["\n", "\r\n", "\r"])), max_size=8)
    root = write_dir(tmp_path, **{"participants.csv": ["p1,day,icu,30,25,4.2", "p2,night,non_icu,20,30,5.0"]})
    profiles = ingest.parse_participants(root / ingest.PARTICIPANTS_FILE)
    path = root / ingest.RECORDINGS_FILE

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(text)
    def check(lines: list[tuple[str, str]]) -> None:
        data = "".join(body + end for body, end in lines).encode()
        want = loaded(data)
        n = int(want.n_frames.sum())
        # labels that differ from frame to frame, labelled recording or not
        arrays = [np.full(n, 4.7), np.arange(n, dtype=float), np.full(n, 0.8), np.full(n, 0.9), np.arange(n) % 3 == 0]
        path.write_bytes(data)
        (root / "frames.bin").write_bytes(saved(*arrays))
        recordings, frames = ingest.parse_recordings(path, profiles)
        assert_cohorts_equal(Cohort(recordings=recordings, frames=frames),
                             Cohort(recordings=want, frames=FrameBlock(*arrays)))

    check()


ODD_IDS = ["p1", "p,2", 'p"3', "p\r4", "p\n5", "p\r\n6", "p\x007", "p\u00e9\u65e5", ""]  # csv specials, NUL, non-ASCII
ODD_HUBS = ["h_ns", "h,2", 'h"3', "h\r\n4", "h\x005", "h\u00e9"]
LINE_ENDS = ["\n", "\r\n", "\r"]
FIELD_LIMIT = 64  # csv's field limit while the oracle tests run, so that an over-long field stays small


def utf8_with_byte_ff(text: str, at: int | None) -> bytes:
    """text as UTF-8, with byte 0xff (not UTF-8) put before character at, if given."""
    return text.encode() if at is None else text[:at].encode() + b"\xff" + text[at:].encode()


def block_sizes(draw, monkeypatch) -> None:
    """Read with a drawn block size and read size, small ones spanning many blocks."""
    from hypothesis import strategies as st

    for name in ("_BATCH_ROWS", "_READ_BYTES"):
        monkeypatch.setattr(ingest, name, draw(st.sampled_from([1, 2, 3, 7, 64, 1 << 20])))


def outcome(read):
    """What read() returns, or the type and message of what it raises."""
    try:
        return read()
    except Exception as exc:  # noqa: BLE001 - the oracle raises the same
        return type(exc), str(exc)


def same_table(got, want) -> None:
    if isinstance(want, tuple) and isinstance(want[0], type):  # a refusal
        assert got == want
        return
    assert type(got) is type(want)
    for name in want.columns():
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name


@pytest.mark.parametrize("read_bytes", range(1, 9))
def test_line_blocks_count_lines_as_text_mode_whatever_the_read_size(tmp_path, read_bytes):
    data = b"\n\r\r\na\r\n\rb\n\n\rc\r\r\n\nd\re"
    path = tmp_path / "lines"
    path.write_bytes(data)
    with path.open("rb") as fh:
        lines = [(first + k, a[b:e].tobytes()) for a, begin, stop, first in line_blocks(fh, 3, read_bytes)
                 for k, (b, e) in enumerate(zip(begin.tolist(), stop.tolist()))]
    assert lines == list(enumerate(data.splitlines(), start=1))
    with path.open(newline="") as fh:
        assert len(lines) == len(fh.readlines())


def test_rssi_blocks_match_the_row_loop_property(tmp_path, monkeypatch):
    import csv

    import hypothesis
    from hypothesis import strategies as st

    import reference

    profiles = {pid: profile(pid) for pid in ODD_IDS}
    hubs = {h: HubRecord(h, HubCategory.NURSING_STATION) for h in ODD_HUBS}
    integer = st.one_of(st.integers(-3, 800).map(str), st.integers(120, 210).map(str), st.sampled_from([
        "-0", "007", "99999999999999999999", "-99999999999999999999", "9" * 18, "-" + "9" * 18, "9" * 19]))
    quoted = ',"\r\n'  # what the csv module quotes

    def cells(quotes: bool):
        """A valid row's cells; with quotes false, none the csv module quotes."""
        ids, hub_ids = ([i for i in pool if quotes or not any(c in i for c in quoted)] for pool in (ODD_IDS, ODD_HUBS))
        return st.tuples(st.sampled_from(ids), st.sampled_from(["2022-03-01", "2022-03-02"]), integer,
                         st.sampled_from(hub_ids), integer)

    faults = st.sampled_from([  # (field or None for the row, text)
        (0, "ghost"), (0, "x" * (FIELD_LIMIT + 1)), (1, "2022-3-1"), (1, "2022-02-30"), (1, "20220301"), (1, ""),
        (3, "h_ghost"), (None, "short"), (None, "long"), (None, "space"), (None, "0xff"), (None, "one long field")] + [
        (k, text) for k in (2, 4) for text in ("+5", " 5", "5 ", "\u0665", "1_0", "", "-", "1" + "0" * 5000)])

    @st.composite
    def line(draw, faulty: bool, quotes: bool) -> bytes:
        field, fault = draw(faults) if faulty and draw(st.integers(0, 3)) == 0 else (None, None)
        row = list(draw(cells(quotes)))
        if field is not None:
            row[field] = fault
        row = row[:4] if fault == "short" else row + ["1"] if fault == "long" else row
        quote = quotes and draw(st.booleans())  # now and then a quote the csv module needs not
        text = ",".join('"' + c.replace('"', '""') + '"' if quote or any(ch in c for ch in quoted) else c
                        for c in row)
        text = {"space": " ", "one long field": "x" * (FIELD_LIMIT + 1)}.get(fault) or draw(
            st.sampled_from([text] * 9 + [""]))
        at = draw(st.integers(0, len(text))) if fault == "0xff" else None
        return utf8_with_byte_ff(text, at) + draw(st.sampled_from(LINE_ENDS)).encode()

    header = HEADERS["rssi.csv"]
    # None is an empty file; the quoted header is one the csv module reads as the right one
    headers = st.sampled_from([header] * 12 + [None, "", header[:-5], '"participant_id"' + header[14:]])
    files = st.tuples(st.booleans(), st.booleans()).flatmap(lambda kind: st.tuples(
        headers if kind[0] else st.just(header),
        st.sampled_from(LINE_ENDS), st.lists(line(*kind), max_size=12)))
    path = tmp_path / "rssi.csv"

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @hypothesis.given(files, st.data())
    def check(file, data) -> None:
        head, end, lines = file
        path.write_bytes(b"" if head is None else (head + end).encode() + b"".join(lines))
        block_sizes(data.draw, monkeypatch)
        got_warnings, want_warnings = {}, {}
        got = outcome(lambda: ingest.parse_rssi(path, hubs, profiles, got_warnings))
        want = outcome(lambda: reference.parse_rssi(path, hubs, profiles, want_warnings))
        same_table(got, want)
        assert got_warnings == want_warnings

    limit = csv.field_size_limit(FIELD_LIMIT)
    try:
        check()
    finally:
        csv.field_size_limit(limit)


def test_head_blocks_match_the_line_loop_property(tmp_path, monkeypatch):
    import hypothesis
    from hypothesis import strategies as st

    import reference

    profiles = {pid: profile(pid) for pid in ODD_IDS}
    absent = object()
    valid = st.fixed_dictionaries({
        "participant_id": st.sampled_from(ODD_IDS),
        "shift_date": st.sampled_from(["2022-03-01", "2022-03-02"]),
        "minute_index": st.one_of(st.integers(-5, 800), st.sampled_from([2**70, -(2**64), 2**63 - 1, -(2**63) - 1])),
        "n_frames": st.one_of(st.integers(1, 4), st.just(2**63 - 1)),
        "labelled": st.sampled_from([absent, True, False]),
        "note": st.sampled_from([absent, "\u2028 other keys are ignored"]),
    })
    faults = st.sampled_from([(key, value) for key, values in {
        "participant_id": ["ghost", None, 1, ["p1"], absent],
        "shift_date": ["2022-3-1", "2022-02-30", 20220301, None, absent],
        "minute_index": [True, 0.5, "0", None, absent],
        "n_frames": [0, -1, 2**63, 1.0, True, absent],
        "labelled": [1, None],
        "frames": [[]],
    }.items() for value in values] + [(None, text) for text in [
        "{}x", "{}{}", "[{}]", "\ufeff{}", "{", "1", "null", '"p1"', "[" * 3000, "0xff",
        '{"minute_index":1' + "0" * 5000 + "}"]])

    @st.composite
    def line(draw, faulty: bool) -> bytes:
        key, fault = draw(faults) if faulty and draw(st.integers(0, 3)) == 0 else (None, None)
        head = draw(valid)
        if key is not None:
            head[key] = fault
        head = {key: head[key] for key in draw(st.permutations(list(head))) if head[key] is not absent}
        text = json.dumps(head, ensure_ascii=draw(st.booleans()), separators=draw(st.sampled_from([(",", ":"), None])))
        if key is None and fault is not None and fault != "0xff":
            text = fault.replace("{}", text)
        text = draw(st.sampled_from(["{}"] * 12 + ["  {}\t", "", " ", "\t", "\x0b", "\u2028", "\x1c"])).replace(
            "{}", text)
        at = draw(st.integers(0, len(text))) if fault == "0xff" else None
        return utf8_with_byte_ff(text, at) + draw(st.sampled_from(LINE_ENDS)).encode()

    path = tmp_path / "recordings.jsonl"

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.booleans().flatmap(lambda faulty: st.lists(line(faulty), max_size=12)), st.data())
    def check(lines, data) -> None:
        path.write_bytes(b"".join(lines))
        block_sizes(data.draw, monkeypatch)
        got = outcome(lambda: ingest._read_heads(path, profiles))
        want = outcome(lambda: reference.read_heads(path, profiles))
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want
        else:
            same_table(got[0], want[0])
            assert got[1].tolist() == want[1]

    check()


def test_parsed_codes_decode_to_the_ids_read_row_by_row_property(tmp_path, monkeypatch):
    """Each row's participant and hub code, decoded by its place among the
    sorted profile or hub ids, is the id the row-loop readers read: ids that
    differ by a trailing NUL, non-ASCII ids, and ids the csv module quotes
    (read by model._quoted_rows), with participants.csv and hubs.csv in any
    order."""
    import hypothesis
    from hypothesis import strategies as st

    import reference

    ids, hub_ids = ODD_IDS + ["p1\0"], ODD_HUBS + ["h_ns\0"]
    quoted = ',"\r\n'  # what the csv module quotes

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.permutations(ids), st.permutations(hub_ids), st.booleans(), st.data())
    def check(pids, hids, quotes, data) -> None:
        used = [[i for i in pool if quotes or not any(c in i for c in quoted)] for pool in (pids, hids)]
        rows = data.draw(st.lists(st.tuples(*map(st.sampled_from, used)), max_size=12))
        block_sizes(data.draw, monkeypatch)
        root = tmp_path
        write_csv(root / "participants.csv", ingest.PARTICIPANTS_HEADER,
                  [np.array(pids, object), *(np.full(len(pids), value) for value in ("day", "icu", 30, 25, 4.2))])
        write_csv(root / "hubs.csv", ingest.HUBS_HEADER, [np.array(hids, object), np.full(len(hids), "ns", object)])
        n = len(rows)
        write_csv(root / "rssi.csv", ingest.RSSI_HEADER,
                  [np.array([pid for pid, _ in rows], object), np.full(n, D0, "datetime64[D]"), np.arange(n),
                   np.array([hub for _, hub in rows], object), np.full(n, 160)])
        ascii_only = data.draw(st.booleans())
        (root / "recordings.jsonl").write_text("".join(
            json.dumps({**HEAD, "participant_id": pid}, ensure_ascii=ascii_only) + "\n" for pid, _ in rows),
            encoding="utf-8")
        profiles = ingest.parse_participants(root / "participants.csv")
        hubs = ingest.parse_hubs(root / "hubs.csv")
        assert list(profiles) == pids and list(hubs) == hids  # file order, not sorted
        rssi = ingest.parse_rssi(root / "rssi.csv", hubs, profiles, {})
        want = reference.rssi_rows(root / "rssi.csv", hubs, profiles, {})
        assert decoded(profiles, rssi.participant) == want[0] == [pid for pid, _ in rows]
        assert decoded(hubs, rssi.hub) == want[3] == [hub for _, hub in rows]
        recordings, _ = ingest._read_heads(root / "recordings.jsonl", profiles)
        assert decoded(profiles, recordings.participant) == reference.heads(root / "recordings.jsonl", profiles)[0]

    check()


def test_parsed_physiology_codes_decode_to_the_ids_of_the_file(tmp_path):
    """Each physiology row's participant code, decoded by its place among the
    sorted profile ids, is the participant_id that the csv module reads from
    its row: ids the csv module quotes, a NUL and non-ASCII ids, each on
    several rows, with participants.csv in reverse order."""
    import csv

    pids = ODD_IDS + ["p1\0"]
    write_csv(tmp_path / "participants.csv", ingest.PARTICIPANTS_HEADER,
              [np.array(pids[::-1], object), *(np.full(len(pids), value) for value in ("day", "icu", 30, 25, 4.2))])
    rows = [pids[(3 * i) % len(pids)] for i in range(2 * len(pids))]
    write_csv(tmp_path / "physiology.csv", ingest.PHYSIOLOGY_HEADER,
              [np.array(rows, object), np.full(len(rows), D0, "datetime64[D]"), np.linspace(0, 1, len(rows)),
               np.full(len(rows), 7.5)])
    profiles = ingest.parse_participants(tmp_path / "participants.csv")
    physiology = ingest.parse_physiology(tmp_path / "physiology.csv", profiles)
    with (tmp_path / "physiology.csv").open(newline="", encoding="utf-8") as fh:
        read = [row[0] for row in csv.reader(fh)][1:]
    assert physiology.participant.dtype == np.int64
    assert decoded(profiles, physiology.participant) == read == rows
    assert physiology.walk_ratio.tolist() == np.linspace(0, 1, len(rows)).tolist()


@pytest.mark.parametrize("file", ["rssi.csv", "recordings.jsonl"])
def test_rows_are_read_a_block_at_a_time(tmp_path, file):
    """While 65,536 rows are read, the heap holds less than the table they
    become: a block of lines at a time, the columns written into mapped
    memory (which tracemalloc does not count). One pass over the whole file
    at once holds several times the table."""
    import tracemalloc

    n = 1 << 16
    rng = np.random.default_rng(0)
    ids = np.array([f"p{i:03d}" for i in range(100)], object)  # sorted: an id's code is its place
    hubs = {f"h_{i}": HubRecord(f"h_{i}", HubCategory.NURSING_STATION) for i in range(20)}
    profiles = {pid: profile(pid) for pid in ids}
    codes = np.sort(rng.integers(0, 100, n))
    days = np.datetime64("2022-03-01") + rng.integers(0, 5, n)
    path = tmp_path / file
    if file == "rssi.csv":
        write_csv(path, ingest.RSSI_HEADER, [ids[codes], days, rng.integers(0, 720, n),
                                             np.array(list(hubs), object)[rng.integers(0, 20, n)],
                                             rng.integers(RSSI_MIN, RSSI_MAX + 1, n)])
        read = lambda: ingest.parse_rssi(path, hubs, profiles, {})  # noqa: E731
    else:
        ingest._write_heads(path, RecordingTable(codes, days, rng.integers(0, 720, n), rng.integers(1, 30, n),
                                                 rng.random(n) < 0.1), ids)
        read = lambda: ingest._read_heads(path, profiles)[0]  # noqa: E731
    tracemalloc.start()
    try:
        table = read()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == n
    assert peak < sum(getattr(table, name).nbytes for name in table.columns())


def test_writer_emits_head_lines_and_frames_bin(tmp_path):
    recs = [recording("p1", minute=0, n_frames=2, log_pitch=math.nan),
            recording("p\0é\"", minute=3, n_frames=1, foreground=[False])]
    cohort = with_recordings(tiny_cohort("p\0é\""), recs)
    write_cohort(cohort, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(CANONICAL_FILES + ("frames.bin",))
    assert (tmp_path / "recordings.jsonl").read_bytes() == (
        b'{"participant_id":"p1","shift_date":"2022-03-01","minute_index":0,"n_frames":2}\n'
        b'{"participant_id":"p\\u0000\\u00e9\\"","shift_date":"2022-03-01","minute_index":3,"n_frames":1,'
        b'"labelled":true}\n')
    with (tmp_path / "frames.bin").open("rb") as fh:
        arrays = [np.load(fh, allow_pickle=False) for _ in range(5)]
        assert fh.read() == b""
    assert [a.dtype.str for a in arrays] == ["<f8"] * 4 + ["|b1"]
    assert [a.tolist() for a in arrays[1:]] == [[60.0] * 3, [0.8] * 3, [1.0] * 3, [True, True, False]]
    assert np.isnan(arrays[0][:2]).all() and arrays[0][2] == 4.7
    assert_cohorts_equal(parse_cohort(tmp_path), cohort)


def test_writer_widens_float32_columns_exactly(tmp_path):
    values = FrameBlock.columns()[:4]
    recs = [
        RecordingSegment(r.participant_id, r.shift_date, r.minute_index,
                         FrameBlock(*(getattr(r.frames, name).astype(np.float32) for name in values),
                                    r.frames.foreground), r.labelled)
        for r in segments(tiny_cohort())
    ]
    cohort = with_recordings(tiny_cohort(), recs)
    assert cohort.frames.log_pitch.dtype == np.float64  # widened as the blocks were built
    write_cohort(cohort, tmp_path)
    frames = parse_cohort(tmp_path).frames
    for name in values:
        assert getattr(frames, name).tolist() == getattr(cohort.frames, name).astype(np.float64).tolist()
    assert frames.log_pitch[0] == 4.699999809265137


def frames_bin_files(tmp_path: Path) -> tuple[Path, list[np.ndarray]]:
    """tiny_cohort written out (three recordings of three frames, on lines
    1-3), and the five arrays of its frames.bin."""
    write_cohort(tiny_cohort(), tmp_path)
    with (tmp_path / "frames.bin").open("rb") as fh:
        return tmp_path, [np.load(fh) for _ in range(5)]


def version_2(array: np.ndarray) -> bytes:
    """array as a version 2.0 .npy array, which np.save writes only when a
    header outgrows version 1.0."""
    out = io.BytesIO()
    npy.write_array(out, array, version=(2, 0))
    return out.getvalue()


FRAMES_BIN_REFUSALS = {
    "pickled objects": (lambda a: column(a, 1, np.array([60.0] * 9, object)),
                        "frames.bin:2: intensity must be a 1-D <f8 array, got |O of shape (9,)"),
    "float32": (lambda a: column(a, 1, lambda x: x.astype(np.float32)),
                "frames.bin:2: intensity must be a 1-D <f8 array, got <f4 of shape (9,)"),
    "big-endian": (lambda a: column(a, 0, lambda x: x.astype(">f8")),
                   "frames.bin:1: log_pitch must be a 1-D <f8 array, got >f8 of shape (9,)"),
    "int labels": (lambda a: column(a, 4, lambda x: x.astype(np.uint8)),
                   "frames.bin:5: foreground must be a 1-D |b1 array, got |u1 of shape (9,)"),
    "2-D": (lambda a: column(a, 2, lambda x: x.reshape(3, 3)),
            "frames.bin:3: hf_lf_ratio must be a 1-D <f8 array, got <f8 of shape (3, 3)"),
    "short": (lambda a: column(a, 3, lambda x: x[:-1]),
              "frames.bin:4: foreground_prob holds 8 frames, but the n_frames of recordings.jsonl sum to 9"),
    "long": (lambda a: column(a, 4, lambda x: np.append(x, False)),
             "frames.bin:5: foreground holds 10 frames, but the n_frames of recordings.jsonl sum to 9"),
    "truncated": (lambda a: saved(*a)[:-1], "frames.bin:5: foreground: the file ends inside the array"),
    "cut in a header": (lambda a: saved(*a)[:-20], "frames.bin:5: foreground: EOF: reading array header, "
                                                   "expected 118 bytes got 107"),
    "empty": (lambda a: b"", "frames.bin:1: log_pitch: EOF: reading magic string, expected 8 bytes got 0"),
    "trailing byte": (lambda a: saved(*a) + b"\0", "frames.bin:5: bytes after the last array"),
    "bad magic": (lambda a: b"\x93NUMPZ" + saved(*a)[6:],
                  "frames.bin:1: log_pitch: the magic string is not correct; expected b'\\x93NUMPY', "
                  "got b'\\x93NUMPZ'"),
    "version 3.0": (lambda a: saved(*a)[:6] + b"\x03" + saved(*a)[7:],
                    "frames.bin:1: log_pitch: not a version 1.0 .npy array"),
    "0-D": (lambda a: column(a, 0, np.float64(4.7)),
            "frames.bin:1: log_pitch must be a 1-D <f8 array, got <f8 of shape ()"),
    "int64": (lambda a: column(a, 2, lambda x: x.astype(np.int64)),
              "frames.bin:3: hf_lf_ratio must be a 1-D <f8 array, got <i8 of shape (9,)"),
    "complex": (lambda a: column(a, 3, lambda x: x.astype(np.complex128)),
                "frames.bin:4: foreground_prob must be a 1-D <f8 array, got <c16 of shape (9,)"),
    "structured": (lambda a: column(a, 1, np.zeros(9, [("intensity", "<f8")])),
                   "frames.bin:2: intensity must be a 1-D <f8 array, got |V8 of shape (9,)"),
    "float labels": (lambda a: column(a, 4, lambda x: x.astype(np.float64)),
                     "frames.bin:5: foreground must be a 1-D |b1 array, got <f8 of shape (9,)"),
    "labels first": (lambda a: saved(a[4], *a[:4]),
                     "frames.bin:1: log_pitch must be a 1-D <f8 array, got |b1 of shape (9,)"),
    "four arrays": (lambda a: saved(*a[:4]),
                    "frames.bin:5: foreground: EOF: reading magic string, expected 8 bytes got 0"),
    "six arrays": (lambda a: saved(*a, a[4]), "frames.bin:5: bytes after the last array"),
    "first array truncated": (lambda a: saved(a[0])[:-8],
                              "frames.bin:1: log_pitch: the file ends inside the array"),
    "version 2.0": (lambda a: version_2(a[0]) + saved(*a[1:]),
                    "frames.bin:1: log_pitch: not a version 1.0 .npy array"),
    "label byte 2": (lambda a: column(a, 4, np.frombuffer(bytes([0, 0, 0, 0, 2, 0, 0, 0, 0]), bool)),
                     "frames.bin:5: foreground holds a byte other than 0 and 1"),
    "NaN intensity": (lambda a: frame(a, 1, 4, math.nan), "recordings.jsonl:2: frames.bin: "
                                                          "non-finite frame value in recording p1 2022-03-01 minute 1"),
    "inf intensity": (lambda a: frame(a, 1, 8, math.inf), "recordings.jsonl:3: frames.bin: "
                                                          "non-finite frame value in recording p1 2022-03-02 minute 4"),
    "inf pitch": (lambda a: frame(a, 0, 0, -math.inf), "recordings.jsonl:1: frames.bin: "
                                                       "non-finite frame value in recording p1 2022-03-01 minute 0"),
    "foreground_prob 1.5": (lambda a: frame(a, 3, 5, 1.5), "recordings.jsonl:2: frames.bin: foreground_prob "
                                                           "outside [0, 1] in recording p1 2022-03-01 minute 1"),
    "hf_lf_ratio -1": (lambda a: frame(a, 2, 3, -1.0), "recordings.jsonl:2: frames.bin: "
                                                       "hf_lf_ratio negative in recording p1 2022-03-01 minute 1"),
}


@pytest.mark.parametrize("case", list(FRAMES_BIN_REFUSALS))
def test_frames_bin_refusals(tmp_path, case):
    edit, error = FRAMES_BIN_REFUSALS[case]
    root, arrays = frames_bin_files(tmp_path)
    (root / "frames.bin").write_bytes(edit(arrays))
    with pytest.raises(MalformedRow) as err:
        parse_cohort(root)
    assert str(err.value) == error


# frames of tiny_cohort's frames.bin, one in each recording, and where a refusal names it
FRAME_PLACES = [(0, "recordings.jsonl:1: frames.bin: {} in recording p1 2022-03-01 minute 0"),
                (5, "recordings.jsonl:2: frames.bin: {} in recording p1 2022-03-01 minute 1"),
                (8, "recordings.jsonl:3: frames.bin: {} in recording p1 2022-03-02 minute 4")]
NON_FINITE = "non-finite frame value"
FRAME_VALUE_REFUSALS = [  # (array, value, rule broken); NaN is a valid log_pitch
    (0, math.inf, NON_FINITE), (0, -math.inf, NON_FINITE),
    (1, math.nan, NON_FINITE), (1, math.inf, NON_FINITE), (1, -math.inf, NON_FINITE),
    (2, math.nan, NON_FINITE), (2, math.inf, NON_FINITE), (2, -math.inf, NON_FINITE),
    (2, -1.0, "hf_lf_ratio negative"), (2, -5e-324, "hf_lf_ratio negative"),
    (3, math.nan, NON_FINITE), (3, math.inf, NON_FINITE), (3, -math.inf, NON_FINITE),
    (3, 1.5, "foreground_prob outside [0, 1]"), (3, -0.5, "foreground_prob outside [0, 1]"),
    (3, 1.0000000000000002, "foreground_prob outside [0, 1]"), (3, -5e-324, "foreground_prob outside [0, 1]"),
]


@pytest.mark.parametrize("place, error", FRAME_PLACES)
@pytest.mark.parametrize("k, value, rule", FRAME_VALUE_REFUSALS)
def test_frame_value_refused_at_its_recordings_line(tmp_path, k, value, rule, place, error):
    root, arrays = frames_bin_files(tmp_path)
    (root / "frames.bin").write_bytes(frame(arrays, k, place, value))
    with pytest.raises(MalformedRow) as err:
        parse_cohort(root)
    assert str(err.value) == error.format(rule)


@pytest.mark.parametrize("k, value", [
    (0, math.nan), (0, -1.7976931348623157e308), (0, 5e-324),
    (1, -0.0), (1, 1.7976931348623157e308), (1, -1e300),
    (2, 0.0), (2, -0.0), (2, 5e-324), (2, 1e308),
    (3, 0.0), (3, -0.0), (3, 1.0), (3, 5e-324), (3, 0.9999999999999999),
])
def test_frame_value_on_a_rule_boundary_is_read_exactly(tmp_path, k, value):
    root, arrays = frames_bin_files(tmp_path)
    (root / "frames.bin").write_bytes(frame(arrays, k, 5, value))
    read = getattr(parse_cohort(root).frames, FrameBlock.columns()[k])
    assert read[5].tobytes() == np.float64(value).tobytes()  # the sign of -0.0 and NaN's bits too
    np.testing.assert_array_equal(np.delete(read, 5), np.delete(arrays[k], 5))


@pytest.mark.parametrize("faults, error", [
    # the first bad frame in file order raises, whatever its array
    ([(3, 7, 1.5), (2, 2, -1.0)], "recordings.jsonl:1: frames.bin: hf_lf_ratio negative "
                                  "in recording p1 2022-03-01 minute 0"),
    ([(0, 8, math.inf), (3, 4, -0.5)], "recordings.jsonl:2: frames.bin: foreground_prob outside [0, 1] "
                                       "in recording p1 2022-03-01 minute 1"),
    # one frame that breaks two rules is named by the first: non-finite, then foreground_prob, then hf_lf_ratio
    ([(3, 4, 2.0), (1, 4, math.nan)], "recordings.jsonl:2: frames.bin: non-finite frame value "
                                      "in recording p1 2022-03-01 minute 1"),
    ([(2, 6, -1.0), (3, 6, 2.0)], "recordings.jsonl:3: frames.bin: foreground_prob outside [0, 1] "
                                  "in recording p1 2022-03-02 minute 4"),
])
def test_first_bad_frame_raises_with_its_first_rule(tmp_path, faults, error):
    root, arrays = frames_bin_files(tmp_path)
    for k, i, value in faults:
        arrays[k] = arrays[k].copy()
        arrays[k][i] = value
    (root / "frames.bin").write_bytes(saved(*arrays))
    with pytest.raises(MalformedRow) as err:
        parse_cohort(root)
    assert str(err.value) == error


def windows_cohort() -> Cohort:
    """tiny_cohort with recordings of FRAME_WINDOW, FRAME_WINDOW and 10
    frames: the first window of frames.bin ends with the first recording,
    and the third window holds the last recording alone."""
    return with_recordings(tiny_cohort(), [recording("p1", minute=0, n_frames=FRAME_WINDOW),
                                           recording("p1", minute=1, n_frames=FRAME_WINDOW),
                                           recording("p1", minute=4, n_frames=10, shift_date=date(2022, 3, 2))])


# frames at the edges of frames.bin's windows, and where a refusal names them
WINDOW_EDGES = {
    "last frame of the first window": (FRAME_WINDOW - 1, "recordings.jsonl:1: frames.bin: {} in recording p1 "
                                                         "2022-03-01 minute 0"),
    "first frame of the second window": (FRAME_WINDOW, "recordings.jsonl:2: frames.bin: {} in recording p1 "
                                                       "2022-03-01 minute 1"),
}


@pytest.mark.parametrize("k, value, rule", [(1, math.inf, NON_FINITE), (2, -1.0, "hf_lf_ratio negative"),
                                            (3, 1.5, "foreground_prob outside [0, 1]")])
@pytest.mark.parametrize("edge", list(WINDOW_EDGES))
def test_frame_value_at_a_window_edge_is_refused_at_its_recordings_line(tmp_path, k, value, rule, edge):
    write_cohort(windows_cohort(), tmp_path)
    with (tmp_path / "frames.bin").open("rb") as fh:
        arrays = [np.load(fh) for _ in range(5)]
    place, error = WINDOW_EDGES[edge]
    arrays[k][place] = value
    arrays[1][2 * FRAME_WINDOW + 3] = math.nan  # a later bad frame, in the last window
    (tmp_path / "frames.bin").write_bytes(saved(*arrays))
    with pytest.raises(MalformedRow) as err:
        parse_cohort(tmp_path)
    assert str(err.value) == error.format(rule)


@pytest.mark.parametrize("faults, error", [
    # across windows, the first bad frame in file order raises, whatever its array
    ([(0, FRAME_WINDOW, math.inf), (3, FRAME_WINDOW - 1, -0.5)], WINDOW_EDGES["last frame of the first window"][1]
     .format("foreground_prob outside [0, 1]")),
    ([(2, 2 * FRAME_WINDOW, -1.0), (1, FRAME_WINDOW, math.nan)], WINDOW_EDGES["first frame of the second window"][1]
     .format(NON_FINITE)),
])
def test_first_bad_frame_across_windows_raises(tmp_path, faults, error):
    write_cohort(windows_cohort(), tmp_path)
    with (tmp_path / "frames.bin").open("rb") as fh:
        arrays = [np.load(fh) for _ in range(5)]
    for k, i, value in faults:
        arrays[k][i] = value
    (tmp_path / "frames.bin").write_bytes(saved(*arrays))
    with pytest.raises(MalformedRow) as err:
        parse_cohort(tmp_path)
    assert str(err.value) == error


@pytest.mark.parametrize("place", [2 * FRAME_WINDOW + 9, FRAME_WINDOW + 1])
def test_label_byte_2_in_a_later_window_is_refused(tmp_path, place):
    write_cohort(windows_cohort(), tmp_path)
    with (tmp_path / "frames.bin").open("rb") as fh:
        arrays = [np.load(fh) for _ in range(5)]
    labels = arrays[4].view(np.uint8).copy()
    labels[place] = 2
    arrays[1][0] = math.nan  # a bad frame value is refused only after the label bytes
    (tmp_path / "frames.bin").write_bytes(column(arrays, 4, labels.view(bool)))
    with pytest.raises(MalformedRow) as err:
        parse_cohort(tmp_path)
    assert str(err.value) == "frames.bin:5: foreground holds a byte other than 0 and 1"


def test_parsed_frames_are_read_only_views_of_frames_bin(tmp_path):
    cohort = windows_cohort()
    cohort.frames.foreground = np.arange(len(cohort.frames)) % 3 == 0
    cohort.recordings.labelled[1:] = True  # labels from inside the second window on
    write_cohort(cohort, tmp_path / "a")
    parsed = parse_cohort(tmp_path / "a")
    for name in FrameBlock.columns():
        column = getattr(parsed.frames, name)
        assert not column.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1
    assert_cohorts_equal(parsed, cohort)  # the label bytes of the unlabelled recording too
    write_cohort(parsed, tmp_path / "b")
    assert written(tmp_path / "b") == written(tmp_path / "a")


def test_frames_appended_in_chunks_write_the_bytes_of_one_chunk(tmp_path):
    cohort = windows_cohort()
    write_cohort(cohort, tmp_path / "one")
    table, block = cohort.recordings, cohort.frames
    ends = np.cumsum(table.n_frames)
    with ingest.FrameWriter(tmp_path / "chunks", sorted(cohort.profiles)) as writer:
        for rows in ([0], [1, 2]):  # the recordings of a chunk are end to end
            frames = slice(int(ends[rows[0]] - table.n_frames[rows[0]]), int(ends[rows[-1]]))
            writer.append(table.select(np.isin(np.arange(len(table)), rows)), block.select(frames))
        written_frames = write_cohort(cohort, tmp_path / "chunks", writer)
    assert written(tmp_path / "chunks") == written(tmp_path / "one")
    assert_cohorts_equal(replace(cohort, frames=written_frames), parse_cohort(tmp_path / "one"))


def test_refused_chunk_leaves_the_directory_as_it_was(tmp_path):
    root = tmp_path / "data"
    write_cohort(cohort_to_write(), root)
    before = written(root)
    good, bad = tiny_cohort(), tiny_cohort()
    segments(bad)[2].frames.hf_lf_ratio[1] = -1.0
    with pytest.raises(ValueError) as err:
        with ingest.FrameWriter(root, sorted(good.profiles)) as writer:
            for cohort in (good, bad):  # the second chunk is refused after the first is written
                writer.append(cohort.recordings, cohort.frames)
    assert str(err.value) == "hf_lf_ratio negative in recording p1 2022-03-02 minute 4"
    assert written(root) == before


def test_frames_bin_refuses_n_frames_that_do_not_sum_to_its_frames(tmp_path):
    root, _ = frames_bin_files(tmp_path)
    path = root / "recordings.jsonl"
    path.write_bytes(path.read_bytes().replace(b'"n_frames":3', b'"n_frames":4', 1))
    with pytest.raises(MalformedRow) as err:
        parse_cohort(root)
    assert str(err.value) == "frames.bin:1: log_pitch holds 9 frames, but the n_frames of recordings.jsonl sum to 10"


def test_frames_bin_labels_count_only_for_a_labelled_recording(tmp_path):
    """The parse keeps every label byte of the file; the rating pass uses a
    recording's labels only where its head says labelled."""
    from shifttalk.foreground import FilterKind, ForegroundFilter
    from shifttalk.pipeline import ExtractionConfig, _rate_cohort

    root, arrays = frames_bin_files(tmp_path)
    (root / "frames.bin").write_bytes(saved(*arrays[:3], np.zeros(9), np.ones(9, bool)))  # below any threshold
    path = root / "recordings.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1].replace(b"}", b',"labelled":true}')
    path.write_bytes(b"".join(lines))
    cohort = parse_cohort(root)
    assert cohort.recordings.labelled.tolist() == [False, True, False]
    assert cohort.frames.foreground.tolist() == [True] * 9
    config = ExtractionConfig(ForegroundFilter(FilterKind.EXTERNAL_SCORES), min_frames=1, min_days=1)
    assert _rate_cohort(cohort, np.ones(3, bool), config)[0].tolist() == [1]  # the valid recordings


def test_parse_serialize_parse_idempotent(tmp_path):
    (tmp_path / "a").mkdir()
    first = parse_cohort(write_dir(tmp_path / "a"))
    out = tmp_path / "b"
    write_cohort(first, out)
    second = parse_cohort(out)
    assert_cohorts_equal(first, second)
    # and the bytes stabilize after one round
    out2 = tmp_path / "c"
    write_cohort(second, out2)
    for name in CANONICAL_FILES + ("frames.bin",):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_recordings_round_trip_property(tmp_path):
    import hypothesis
    from hypothesis import strategies as st

    special = st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 1.5e-310, 2.2250738585072014e-308,
        1e-5, 9.999999999999999e-06, 1.0000000000000002e-05, 0.00001234, 0.1 + 0.2,
        1e16, 9999999999999998.0, 1.0000000000000002e16, -1e16,
    ])
    finite = st.one_of(special, st.floats(allow_nan=False, allow_infinity=False))
    non_negative = st.one_of(special.filter(lambda v: v >= 0.0),
                             st.floats(min_value=0.0, allow_infinity=False))
    probability = st.one_of(special.filter(lambda v: 0.0 <= v <= 1.0), st.floats(0.0, 1.0))
    pitch = st.one_of(st.just(math.nan), finite)
    ids = ["p1", "p\0", "é日", 'q"r', "s,t", "u\r\nv"]  # NUL, non-ASCII, a quote, csv specials

    @st.composite
    def recordings(draw, minute: int):
        n = draw(st.integers(1, 30))

        def column(elements):
            return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=float)

        fg = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=n, max_size=n)))
        block = FrameBlock(column(pitch), column(finite), column(non_negative), column(probability),
                           np.ones(n, bool) if fg is None else np.array(fg, dtype=bool))
        return RecordingSegment(draw(st.sampled_from(ids)), D0, minute, block, fg is not None)

    cohorts = st.integers(0, 4).flatmap(lambda k: st.tuples(*(recordings(minute) for minute in range(k))))
    names = CANONICAL_FILES + ("frames.bin",)
    base = tiny_cohort(*ids)

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cohorts)
    def check(recs: tuple[RecordingSegment, ...]) -> None:
        cohort = with_recordings(base, list(recs))
        write_cohort(cohort, tmp_path / "first")
        parsed = parse_cohort(tmp_path / "first")
        assert_cohorts_equal(parsed, cohort)
        write_cohort(parsed, tmp_path / "second")
        for name in names:
            assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()

    check()


@pytest.mark.parametrize("column, value", [
    ("intensity", math.nan), ("intensity", math.inf), ("hf_lf_ratio", math.inf),
    ("hf_lf_ratio", math.nan), ("foreground_prob", math.nan), ("foreground_prob", -math.inf),
    ("log_pitch", math.inf), ("log_pitch", -math.inf),
])
def test_writer_refuses_non_finite_frames(tmp_path, column, value):
    cohort = tiny_cohort()
    recs = segments(cohort)  # views of the cohort's frame columns
    getattr(recs[1].frames, column)[2] = value
    # a later recording is bad too, in another column
    other = "hf_lf_ratio" if column == "intensity" else "intensity"
    getattr(recs[2].frames, other)[0] = math.nan
    with pytest.raises(ValueError, match=r"non-finite frame value in recording p1 2022-03-01 minute 1$"):
        write_cohort(cohort, tmp_path)


@pytest.mark.parametrize("column, value, error", [
    ("foreground_prob", 1.5, "foreground_prob outside [0, 1] in recording p1 2022-03-01 minute 1"),
    ("foreground_prob", -0.5, "foreground_prob outside [0, 1] in recording p1 2022-03-01 minute 1"),
    ("hf_lf_ratio", -1.0, "hf_lf_ratio negative in recording p1 2022-03-01 minute 1"),
])
def test_writer_refuses_what_its_reader_refuses(tmp_path, column, value, error):
    cohort = tiny_cohort()
    getattr(segments(cohort)[1].frames, column)[2] = value
    with pytest.raises(ValueError) as err:
        write_cohort(cohort, tmp_path)
    assert str(err.value) == error


def cohort_to_write() -> Cohort:
    """Six recordings: two labelled, one with NaN pitch, one off the 1e-4
    grid; RSSI rows at both clamp bounds."""
    recordings = [
        recording("p1", minute=0, n_frames=3),
        recording("p1", minute=1, n_frames=4, foreground=[True, False, True, True]),
        recording("p1", minute=2, n_frames=2, log_pitch=math.nan),
        recording("p1", minute=5, n_frames=5, intensity=0.1 + 0.2),
        recording("p1", minute=7, n_frames=1, foreground=[False]),
        recording("p1", minute=9, n_frames=3, log_pitch=-4.25),
    ]
    rssi = rssi_rows(("p1", 0, "h_ns", 136), ("p1", 1, "h_ns", 193), ("p1", 2, "h_ns", 160), hubs={"h_ns"})
    return with_recordings(replace(tiny_cohort(), rssi=rssi), recordings)


def written(root: Path) -> dict[str, bytes]:
    """Every file in root, by name."""
    return {path.name: path.read_bytes() for path in sorted(root.iterdir())}


@pytest.mark.parametrize("bad, minute", [((1,), 1), ((4,), 7), ((1, 4), 1), ((0, 5), 0)])
def test_refused_write_names_the_first_bad_recording_and_leaves_the_directory(tmp_path, bad, minute):
    root = tmp_path / "data"
    write_cohort(cohort_to_write(), root)
    assert_cohorts_equal(parse_cohort(root), cohort_to_write())
    before = written(root)
    cohort = cohort_to_write()
    cohort.profiles["p1"] = replace(cohort.profiles["p1"], pos_affect=40)
    cohort.rssi = rssi_rows(("p1", 9, "h_ns", 170), hubs=cohort.hubs)
    for i in bad:
        segments(cohort)[i].frames.intensity[0] = math.inf
    with pytest.raises(ValueError) as err:
        write_cohort(cohort, root)
    assert str(err.value) == f"non-finite frame value in recording p1 2022-03-01 minute {minute}"
    assert written(root) == before  # no .tmp file either


def test_interrupted_write_leaves_no_file(tmp_path, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    # while frames.bin is put together: after its part files and the first csv files
    monkeypatch.setattr(shutil, "copyfileobj", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write_cohort(cohort_to_write(), tmp_path / "data")
    assert written(tmp_path / "data") == {}


def test_shift_window_boundaries():
    recs = [recording("p1", minute=719), recording("p1", minute=720), recording("p1", minute=-1)]
    rssi = rssi_rows(("p1", 300, "h_ns", 160), ("p1", 900, "h_ns", 160), ("p1", -1, "h_ns", 160),
                     ("p1", 719, "h_ns", 161), hubs={"h_ns"})
    inside, dropped = filter_shift_window(with_recordings(Cohort({"p1": profile("p1")}, rssi=rssi), recs))
    assert inside.tolist() == [True, False, False]
    assert dropped == {"recordings_dropped": 2, "rssi_dropped": 2}


def _all(cohort: Cohort) -> np.ndarray:
    return np.ones(len(cohort.recordings), bool)


def test_min_days_keeps_exactly_at_threshold():
    cohort = with_recordings(tiny_cohort(), [recording("p1", minute=i, shift_date=date(2022, 3, 1 + i))
                                             for i in range(5)])
    assert filter_min_days(cohort, _all(cohort), min_days=5).tolist() == [True]


def test_min_days_removes_single_date_participant():
    cohort = with_recordings(tiny_cohort("p2"), [recording("p1", minute=i) for i in range(10)])  # one date
    assert filter_min_days(cohort, _all(cohort), min_days=5).tolist() == [False, False]  # p2 has no recording


def test_min_days_degenerate_threshold():
    cohort = tiny_cohort()
    assert filter_min_days(cohort, _all(cohort), min_days=1).tolist() == [True]


def test_min_days_counts_the_dates_of_the_masked_recordings_only():
    cohort = tiny_cohort()  # p1's recordings: two on 2022-03-01, one on 2022-03-02
    assert filter_min_days(cohort, _all(cohort), 2).tolist() == [True]
    assert filter_min_days(cohort, np.array([True, True, False]), 2).tolist() == [False]
    assert filter_min_days(cohort, np.array([False, True, True]), 2).tolist() == [True]


def test_filters_do_not_mutate_input():
    cohort = tiny_cohort()
    n_rec = len(cohort.recordings)
    filter_min_days(cohort, _all(cohort), 99)
    filter_shift_window(cohort)
    assert len(cohort.recordings) == n_rec
    assert len(cohort.rssi) == 2
    assert "p1" in cohort.profiles
