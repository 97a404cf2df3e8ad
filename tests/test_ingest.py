from __future__ import annotations

import json
import math
from dataclasses import replace
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from shifttalk.errors import DuplicateParticipant, MalformedRow, UnknownHub
from shifttalk import ingest
from shifttalk.ingest import (
    filter_min_days,
    filter_shift_window,
    parse_cohort,
    write_cohort,
)
from shifttalk.locate import estimate_timeline
from shifttalk.model import Cohort, FrameBlock, LocationCategory, RecordingSegment

from conftest import D0, assert_cohorts_equal, profile, recording, rssi_rows, segments, tiny_cohort, with_recordings

HEADERS = {
    "participants.csv": "participant_id,shift_type,unit_type,pos_affect,neg_affect,life_satisfaction",
    "hubs.csv": "hub_id,location_category",
    "rssi.csv": "participant_id,shift_date,minute_index,hub_id,rssi",
    "physiology.csv": "participant_id,shift_date,walk_ratio,sleep_hours",
}


def write_dir(tmp_path: Path, **overrides: list[str]) -> Path:
    """Minimal valid input directory, with per-file row overrides."""
    defaults = {
        "participants.csv": ["p1,day,icu,30,25,4.2"],
        "hubs.csv": ["h_ns,ns"],
        "rssi.csv": ["p1,2022-03-01,0,h_ns,160"],
        "physiology.csv": ["p1,2022-03-01,0.4,7.0"],
    }
    defaults.update({k: v for k, v in overrides.items() if k != "recordings.jsonl"})
    for name, rows in defaults.items():
        (tmp_path / name).write_text("\n".join([HEADERS[name]] + rows) + "\n")
    rec_rows = overrides.get(
        "recordings.jsonl",
        ['{"participant_id":"p1","shift_date":"2022-03-01","minute_index":0,'
         '"frames":[{"log_pitch":4.7,"intensity":60.0,"hf_lf_ratio":0.8,"foreground_prob":0.9}]}'],
    )
    (tmp_path / "recordings.jsonl").write_text("\n".join(rec_rows) + "\n")
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


@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
@pytest.mark.parametrize("earlier, error", [
    (None, "rssi.csv:3: not UTF-8 text"),
    ("p1,2022-03-01,x,h_ns,160", "rssi.csv:2: bad integer for minute_index: 'x'"),  # an earlier bad row first
])
def test_rssi_byte_that_is_not_utf8_raises_at_its_line(tmp_path, monkeypatch, forks, split, earlier, error):
    rows = ["p1,2022-03-01,0,h_ns,160"] * 4
    if earlier:
        rows[0] = earlier
    root = write_dir(tmp_path, **{"rssi.csv": rows})
    with_byte_ff(root / "rssi.csv", 3)
    monkeypatch.setattr(ingest, "_split_offset", lambda root: 1 if split else None)
    with pytest.raises(MalformedRow) as err:
        parse_cohort(root)
    assert str(err.value) == error
    assert len(forks) == split  # the worker refused, and the serial parse raised


@pytest.mark.parametrize("earlier, error", [
    (None, "participants.csv:3: not UTF-8 text"),
    ("p1,day,icu,30,25,9.0", "participants.csv:2: life_satisfaction 9.0 outside [1, 7]"),
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


def test_extract_exits_2_on_a_csv_byte_that_is_not_utf8(tmp_path, capsys):
    from shifttalk.cli import main

    root = tmp_path / "data"
    root.mkdir()
    write_dir(root, **{"rssi.csv": ["p1,2022-03-01,0,h_ns,160"] * 4})
    with_byte_ff(root / "rssi.csv", 3)
    assert main(["extract", "--input", str(root), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: rssi.csv:3: not UTF-8 text\n"


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
    line = ('{"participant_id":"p1","shift_date":%s,"minute_index":0,'
            '"frames":[{"log_pitch":4.7,"intensity":60.0,"hf_lf_ratio":0.8,"foreground_prob":0.9}]}')
    rows = [line % '"2022-03-01"', line % shift_date, line % '"2022-03-01"']
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


@pytest.mark.parametrize("batch_rows", [1, 2, ingest._BATCH_ROWS])
def test_rssi_table_columns_follow_file_order(tmp_path, monkeypatch, batch_rows):
    monkeypatch.setattr(ingest, "_BATCH_ROWS", batch_rows)
    rows = ["p1,2022-03-02,-3,h_ns,99999999999999999999", "p1,2022-03-01,725,h_ns,150", "p1,2022-03-01,0,h_ns,-7"]
    cohort = parse_cohort(write_dir(tmp_path, **{"rssi.csv": rows}))
    t = cohort.rssi
    assert t.participant_id.tolist() == ["p1"] * 3
    assert t.shift_date.tolist() == [date(2022, 3, 2), D0, D0]
    assert t.minute_index.tolist() == [-3, 725, 0]
    assert t.hub_id.tolist() == ["h_ns"] * 3
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
    windowed, dropped = filter_shift_window(cohort)
    assert windowed.rssi.minute_index.tolist() == [5]
    assert dropped["rssi_dropped"] == 2


def test_ids_with_trailing_nul_kept_exactly(tmp_path):
    # csv reads NUL inside a field on Python 3.11+; numpy str arrays would drop it
    rows = ["p1\0,2022-03-01,0,h_ns\0,160", "p1,2022-03-01,1,h_ns,160"]
    path = write_dir(tmp_path, **{"participants.csv": ["p1\0,day,icu,30,25,4.2", "p1,day,icu,30,25,4.2"],
                                  "hubs.csv": ["h_ns\0,pat", "h_ns,ns"], "rssi.csv": rows})
    cohort = parse_cohort(path)
    assert cohort.rssi.participant_id.tolist() == ["p1\0", "p1"]
    assert cohort.rssi.hub_id.tolist() == ["h_ns\0", "h_ns"]
    timelines = estimate_timeline(cohort.rssi, cohort.hubs, [("p1\0", D0), ("p1", D0)])
    assert timelines["p1\0", D0].category(0) == LocationCategory.PATIENT_ROOM
    assert timelines["p1", D0].category(1) == LocationCategory.NURSING_STATION
    assert filter_min_days(cohort, 1).rssi.participant_id.tolist() == ["p1"]  # p1\0 has no recordings
    write_cohort(cohort, tmp_path / "out")
    assert (tmp_path / "out" / "rssi.csv").read_text().splitlines()[1:] == rows


def test_pos_affect_below_bound_rejected(tmp_path):
    path = write_dir(tmp_path, **{"participants.csv": ["p1,day,icu,9,25,4.2"]})
    with pytest.raises(MalformedRow) as err:
        parse_cohort(path)
    assert "pos_affect" in str(err.value)


def test_duplicate_participant_rejected(tmp_path):
    path = write_dir(tmp_path, **{"participants.csv": ["p1,day,icu,30,25,4.2", "p1,night,icu,30,25,4.2"]})
    with pytest.raises(DuplicateParticipant):
        parse_cohort(path)


def test_unknown_hub_rejected(tmp_path):
    path = write_dir(tmp_path, **{"rssi.csv": ["p1,2022-03-01,0,h_ghost,160"]})
    with pytest.raises(UnknownHub):
        parse_cohort(path)


def test_unknown_participant_in_recordings_rejected(tmp_path):
    rows = ['{"participant_id":"ghost","shift_date":"2022-03-01","minute_index":0,'
            '"frames":[{"log_pitch":null,"intensity":60.0,"hf_lf_ratio":0.8,"foreground_prob":0.9}]}']
    with pytest.raises(MalformedRow):
        parse_cohort(write_dir(tmp_path, **{"recordings.jsonl": rows}))


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
    rows = ['{"participant_id":"p1","shift_date":"2022-03-01","minute_index":0,'
            '"frames":[{"log_pitch":4.7,"intensity":60.0,"hf_lf_ratio":0.8,"foreground_prob":1.5}]}']
    with pytest.raises(MalformedRow):
        parse_cohort(write_dir(tmp_path, **{"recordings.jsonl": rows}))


def test_missing_file_raises(tmp_path):
    write_dir(tmp_path)
    (tmp_path / "hubs.csv").unlink()
    with pytest.raises(FileNotFoundError):
        parse_cohort(tmp_path)


def test_null_log_pitch_becomes_nan(tmp_path):
    rows = ['{"participant_id":"p1","shift_date":"2022-03-01","minute_index":0,'
            '"frames":[{"log_pitch":null,"intensity":60.0,"hf_lf_ratio":0.8,"foreground_prob":0.9}]}']
    cohort = parse_cohort(write_dir(tmp_path, **{"recordings.jsonl": rows}))
    assert np.isnan(cohort.frames.log_pitch[0])


def test_external_foreground_flags_parsed(tmp_path):
    rows = ['{"participant_id":"p1","shift_date":"2022-03-01","minute_index":0,'
            '"frames":[{"log_pitch":4.7,"intensity":60.0,"hf_lf_ratio":0.8,"foreground_prob":0.9,"foreground":true}]}']
    cohort = parse_cohort(write_dir(tmp_path, **{"recordings.jsonl": rows}))
    assert cohort.recordings.labelled[0] and cohort.frames.foreground[0]


LAYOUTS = ["columnar", "rows"]
FRAME = {"log_pitch": 4.7, "intensity": 60.0, "hf_lf_ratio": 0.8, "foreground_prob": 0.9, "foreground": True}
MARK = "@bad@"


def recording_line(layout: str, field: str | None = None, text: str = "") -> str:
    """A valid two-frame recordings.jsonl line in the given layout.

    With `field`, that field of the line (or of its second frame) is replaced
    by the raw JSON text `text`.
    """
    obj: dict = {"participant_id": "p1", "shift_date": "2022-03-01", "minute_index": 0}
    frames = [dict(FRAME), dict(FRAME)]
    if field in obj:
        obj[field] = MARK
    elif field is not None:
        frames[1][field] = MARK
    obj["frames"] = frames if layout == "rows" else {k: [f[k] for f in frames] for k in FRAME}
    return json.dumps(obj).replace(f'"{MARK}"', text)


BAD_VALUES = [
    ("minute_index", "true"),
    ("minute_index", "false"),
    ("participant_id", '["p1"]'),
    ("shift_date", "20220301"),
    ("shift_date", '"20220301"'),
    ("log_pitch", "Infinity"),
    ("log_pitch", "-Infinity"),
    ("log_pitch", "NaN"),
    ("log_pitch", "1e999"),
    ("log_pitch", '"4.7"'),
    ("intensity", '"60"'),
    ("hf_lf_ratio", '"0.8"'),
    ("log_pitch", "false"),
    ("intensity", "true"),
    ("foreground_prob", "true"),
    ("foreground", "1"),
    ("foreground", '"yes"'),
    ("foreground", "null"),
]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("field, text", BAD_VALUES)
def test_recordings_reject_non_strict_values(tmp_path, layout, field, text):
    good = recording_line(layout)
    (tmp_path / "ok").mkdir()
    cohort = parse_cohort(write_dir(tmp_path / "ok", **{"recordings.jsonl": [good]}))
    assert cohort.recordings.n_frames.tolist() == [2]  # the same line with a valid value parses
    path = write_dir(tmp_path, **{"recordings.jsonl": [good, recording_line(layout, field, text)]})
    with pytest.raises(MalformedRow) as err:
        parse_cohort(path)
    assert (err.value.file, err.value.line) == ("recordings.jsonl", 2)


VALUE_FAULT = (recording_line("columnar", "log_pitch", '"4.7"'),
               "frame 1: log_pitch must be a number or null, got '4.7'")
LABEL_FAULT = (recording_line("columnar", "foreground", "1"), "frame 1: foreground must be true or false, got 1")
STRUCTURE_FAULT = (recording_line("columnar") + "x", "invalid JSON: Extra data")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("batch_frames", [1, 3, ingest._PARSE_BATCH_FRAMES])
@pytest.mark.parametrize("first, then", [(VALUE_FAULT, STRUCTURE_FAULT), (LABEL_FAULT, STRUCTURE_FAULT),
                                         (STRUCTURE_FAULT, VALUE_FAULT)])
def test_first_bad_line_raises_whichever_check_finds_it(tmp_path, monkeypatch, end, batch_frames, first, then):
    # a value fault is found when its part of the file is checked, a
    # structure fault at its line; the earlier line raises either way
    root = write_dir(tmp_path)
    unlabelled = json.dumps({"participant_id": "p1", "shift_date": "2022-03-01", "minute_index": 0,
                             "frames": {name: [FRAME[name]] * 2 for name in ingest.FRAME_COLUMNS}})
    lines = [unlabelled, "", first[0], then[0], recording_line("rows")]
    (root / "recordings.jsonl").write_text("".join(line + end for line in lines), newline="")
    monkeypatch.setattr(ingest, "_PARSE_BATCH_FRAMES", batch_frames)
    with pytest.raises(MalformedRow) as err:
        parse_cohort(root)
    assert (err.value.file, err.value.line, err.value.reason) == ("recordings.jsonl", 3, first[1])


BAD_FRAMES = [
    '{"log_pitch":[4.7],"intensity":[60.0],"hf_lf_ratio":[0.8]}',
    '{"log_pitch":[4.7,null],"intensity":[60.0],"hf_lf_ratio":[0.8],"foreground_prob":[0.9]}',
    '{"log_pitch":[4.7],"intensity":[60.0],"hf_lf_ratio":[0.8],"foreground_prob":[0.9],"foreground":[true,false]}',
    '{"log_pitch":4.7,"intensity":[60.0],"hf_lf_ratio":[0.8],"foreground_prob":[0.9]}',
    '{"log_pitch":[[4.7]],"intensity":[60.0],"hf_lf_ratio":[0.8],"foreground_prob":[0.9]}',
    '{"log_pitch":[],"intensity":[],"hf_lf_ratio":[],"foreground_prob":[]}',
    '{"log_pitch":[4.7],"intensity":[60.0],"hf_lf_ratio":[-0.1],"foreground_prob":[0.9]}',
    '[]',
    '[[4.7,60.0,0.8,0.9]]',
    '[{"log_pitch":4.7,"intensity":60.0,"hf_lf_ratio":0.8,"foreground_prob":0.9,"foreground":true},'
    '{"log_pitch":4.7,"intensity":60.0,"hf_lf_ratio":0.8,"foreground_prob":0.9}]',
    '"frames"',
]


@pytest.mark.parametrize("frames", BAD_FRAMES)
def test_recordings_reject_bad_frame_structure(tmp_path, frames):
    rows = ['{"participant_id":"p1","shift_date":"2022-03-01","minute_index":0,"frames":' + frames + "}"]
    with pytest.raises(MalformedRow):
        parse_cohort(write_dir(tmp_path, **{"recordings.jsonl": rows}))


def test_columnar_and_row_layouts_parse_alike(tmp_path):
    blocks = []
    for layout in LAYOUTS:
        line = recording_line(layout, "log_pitch", "null")
        (tmp_path / layout).mkdir()
        blocks.append(parse_cohort(write_dir(tmp_path / layout, **{"recordings.jsonl": [line]})).frames)
    for name in ("log_pitch", "intensity", "hf_lf_ratio", "foreground_prob", "foreground"):
        np.testing.assert_array_equal(getattr(blocks[0], name), getattr(blocks[1], name))
    assert np.isnan(blocks[0].log_pitch[1])
    assert blocks[0].foreground.dtype == bool


def test_writer_emits_columnar_frames(tmp_path):
    cohort = tiny_cohort()
    write_cohort(cohort, tmp_path)
    lines = (tmp_path / "recordings.jsonl").read_text().splitlines()
    assert len(lines) == len(cohort.recordings)
    frames = json.loads(lines[0])["frames"]
    assert frames == {"log_pitch": [4.7] * 3, "intensity": [60.0] * 3,
                      "hf_lf_ratio": [0.8] * 3, "foreground_prob": [1.0] * 3}


@pytest.mark.parametrize("column, value", [
    ("intensity", math.nan), ("intensity", math.inf), ("hf_lf_ratio", math.inf),
    ("hf_lf_ratio", math.nan), ("foreground_prob", math.nan), ("foreground_prob", -math.inf),
    ("log_pitch", math.inf), ("log_pitch", -math.inf),
])
def test_writer_refuses_non_finite_frames(tmp_path, column, value):
    cohort = tiny_cohort()
    recs = segments(cohort)  # views of the cohort's frame columns
    getattr(recs[1].frames, column)[2] = value
    # a later recording of the same batch is bad too, in another column
    other = "hf_lf_ratio" if column == "intensity" else "intensity"
    getattr(recs[2].frames, other)[0] = math.nan
    with pytest.raises(ValueError, match=r"non-finite frame value in recording p1 2022-03-01 minute 1$"):
        write_cohort(cohort, tmp_path)


def test_writer_writes_nan_pitch_as_null(tmp_path):
    cohort = tiny_cohort()
    segments(cohort)[1].frames.log_pitch[2] = math.nan
    write_cohort(cohort, tmp_path)
    line = (tmp_path / "recordings.jsonl").read_text().splitlines()[1]
    assert json.loads(line)["frames"]["log_pitch"] == [4.7, 4.7, None]
    assert np.isnan(segments(parse_cohort(tmp_path))[1].frames.log_pitch[2])


def _recording_json(rec: RecordingSegment) -> str:
    """One recordings.jsonl line from one repr per value: the reference that
    write_cohort's batch writer must match byte for byte.

    Each frame column is one array, so the line carries each key once rather
    than once per frame; NaN pitch is written as null. A value JSON cannot
    carry raises ValueError, since the reader would reject the line.
    """
    fb = rec.frames
    pitch = ingest._json_floats(fb.log_pitch).replace("nan", "null")
    intensity, hf_lf, prob = (ingest._json_floats(c) for c in (fb.intensity, fb.hf_lf_ratio, fb.foreground_prob))
    # a finite float's repr has no "n"; "nan", "inf" and "-inf" do
    if "inf" in pitch or "n" in intensity or "n" in hf_lf or "n" in prob:
        raise ingest._non_finite(rec.participant_id, rec.shift_date.isoformat(), rec.minute_index)
    fg = "" if fb.foreground is None else ingest._foreground_json(fb.foreground)
    head = json.dumps(rec.participant_id)
    return (
        f'{{"participant_id":{head},"shift_date":"{rec.shift_date.isoformat()}",'
        f'"minute_index":{rec.minute_index},"frames":{{'
        f'"log_pitch":[{pitch}],"intensity":[{intensity}],'
        f'"hf_lf_ratio":[{hf_lf}],"foreground_prob":[{prob}]{fg}}}}}'
    )


def _reference_lines(recordings: list[RecordingSegment]) -> bytes:
    return "".join(_recording_json(r) + "\n" for r in recordings).encode()


# on the grid at every integer-group width, and just inside its bounds
GRID_EDGES = [0.0, -0.0, 1e-4, -1e-4, 9999.9999, 10000.0, 99999999.9999, 1e8, 99999999999.9999,
              -99999999999.9999]
# off the grid: each sends its batch column to the one-repr-per-value fallback
OFF_GRID = [0.1 + 0.2, 1e-5, 5e-324, 1e11, 1e16, -1e16]


def test_batch_writer_matches_repr_reference(tmp_path, monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    on_grid = st.one_of(
        st.sampled_from(GRID_EDGES),
        st.builds(lambda k, sign: sign * (k / 1e4), st.integers(0, 10**15 - 1), st.sampled_from([1.0, -1.0])),
        st.builds(lambda k: k / 1e4, st.integers(0, 10**6)),
    )
    value = st.one_of(on_grid, on_grid, on_grid, st.sampled_from(OFF_GRID))
    pitch = st.one_of(st.sampled_from([math.nan, -math.nan]), value)  # null either way

    @st.composite
    def blocks(draw):
        n = draw(st.integers(0, 12))

        def column(elements):
            return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=float)

        fg = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=n, max_size=n)))
        return FrameBlock(column(pitch), column(value), column(value), column(value),
                          None if fg is None else np.array(fg, dtype=bool))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(blocks(), min_size=1, max_size=6), st.integers(1, 30))
    def check(frame_blocks: list[FrameBlock], batch_frames: int) -> None:
        monkeypatch.setattr(ingest, "_BATCH_FRAMES", batch_frames)
        recs = [RecordingSegment(f"p{i % 2}", D0, i, b) for i, b in enumerate(frame_blocks)]
        write_cohort(with_recordings(tiny_cohort(), recs), tmp_path)
        assert (tmp_path / "recordings.jsonl").read_bytes() == _reference_lines(recs)
        for name in ingest.FRAME_COLUMNS:
            values = np.concatenate([getattr(b, name) for b in frame_blocks])
            off = any(v in OFF_GRID for v in values.tolist())
            assert (ingest._grid_text(values) is None) == off, name

    check()


def test_batch_writer_crosses_the_default_batch_size(tmp_path):
    rng = np.random.default_rng(0)
    n = 30_000  # five recordings: three fill the first 1 << 16 frame batch

    def block(i: int) -> FrameBlock:
        cols = [np.round(rng.normal(60.0, 30.0, n), 4) for _ in range(4)]
        cols[0][rng.random(n) < 0.25] = math.nan
        if i == 3:
            cols[1][7] = 0.1 + 0.2  # this batch's intensity goes through repr
        return FrameBlock(*cols)

    recs = [RecordingSegment("p1", D0, i, block(i)) for i in range(5)]
    write_cohort(with_recordings(tiny_cohort(), recs), tmp_path)
    assert (tmp_path / "recordings.jsonl").read_bytes() == _reference_lines(recs)


def test_batch_writer_widens_float32_columns_exactly(tmp_path):
    recs = [
        RecordingSegment(r.participant_id, r.shift_date, r.minute_index,
                         FrameBlock(*(getattr(r.frames, name).astype(np.float32) for name in ingest.FRAME_COLUMNS)))
        for r in segments(tiny_cohort())
    ]
    cohort = with_recordings(tiny_cohort(), recs)
    assert cohort.frames.log_pitch.dtype == np.float32
    write_cohort(cohort, tmp_path)
    text = (tmp_path / "recordings.jsonl").read_bytes()
    assert b"4.699999809265137" in text  # float32 4.7 is off the grid once widened
    assert text == _reference_lines(recs)


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
    for name in ("participants.csv", "hubs.csv", "rssi.csv", "recordings.jsonl", "physiology.csv"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_recordings_round_trip_property(tmp_path, monkeypatch, forks):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    special = st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 1.5e-310, 2.2250738585072014e-308,
        1e-5, 9.999999999999999e-06, 1.0000000000000002e-05, 0.00001234,
        1e16, 9999999999999998.0, 1.0000000000000002e16, -1e16,
    ])
    finite = st.one_of(special, st.floats(allow_nan=False, allow_infinity=False))
    non_negative = st.one_of(special.filter(lambda v: v >= 0.0),
                             st.floats(min_value=0.0, allow_infinity=False))
    probability = st.one_of(special.filter(lambda v: 0.0 <= v <= 1.0), st.floats(0.0, 1.0))
    pitch = st.one_of(st.just(math.nan), finite)

    @st.composite
    def recordings(draw, minute: int):
        n = draw(st.integers(1, 30))

        def column(elements):
            return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=float)

        fg = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=n, max_size=n)))
        block = FrameBlock(column(pitch), column(finite), column(non_negative), column(probability),
                           None if fg is None else np.array(fg, dtype=bool))
        return RecordingSegment("p1", D0, minute, block)

    cohorts = st.integers(1, 4).flatmap(lambda k: st.tuples(*(recordings(minute) for minute in range(k))))
    names = ("participants.csv", "hubs.csv", "rssi.csv", "recordings.jsonl", "physiology.csv")

    def row_layout_line(rec: RecordingSegment) -> str:
        block = rec.frames
        columns = {"log_pitch": [None if math.isnan(v) else v for v in block.log_pitch.tolist()],
                   "intensity": block.intensity.tolist(), "hf_lf_ratio": block.hf_lf_ratio.tolist(),
                   "foreground_prob": block.foreground_prob.tolist()}
        if block.foreground is not None:
            columns["foreground"] = block.foreground.tolist()
        rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
        return json.dumps({"participant_id": rec.participant_id, "shift_date": rec.shift_date.isoformat(),
                           "minute_index": rec.minute_index, "frames": rows})

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cohorts)
    def check(recs: tuple[RecordingSegment, ...]) -> None:
        cohort = with_recordings(tiny_cohort(), list(recs))
        write_cohort(cohort, tmp_path / "first")
        for split_min_bytes in (math.inf, 0):  # one process, then split over two
            monkeypatch.setattr(ingest, "_SPLIT_MIN_BYTES", split_min_bytes)
            parsed = parse_cohort(tmp_path / "first")
            assert_cohorts_equal(parsed, cohort)
        write_cohort(parsed, tmp_path / "second")
        for name in names:
            assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()
        (tmp_path / "second" / "recordings.jsonl").write_text(
            "".join(row_layout_line(rec) + "\n" for rec in recs), encoding="utf-8")
        assert_cohorts_equal(parse_cohort(tmp_path / "second"), cohort)

    forked = len(forks)
    check()
    assert len(forks) > forked  # the split parse ran

def test_refused_write_leaves_directory_unchanged(tmp_path):
    write_cohort(tiny_cohort(), tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    bad = tiny_cohort()
    bad.profiles["p1"] = replace(bad.profiles["p1"], pos_affect=40)
    bad.rssi = rssi_rows(("p1", 9, "h_ns", 170))
    segments(bad)[1].frames.intensity[0] = math.nan
    with pytest.raises(ValueError, match="non-finite"):
        write_cohort(bad, tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_shift_window_boundaries():
    recs = [recording("p1", minute=719), recording("p1", minute=720), recording("p1", minute=-1)]
    rssi = rssi_rows(("p1", 300, "h_ns", 160), ("p1", 900, "h_ns", 160), ("p1", -1, "h_ns", 160),
                     ("p1", 719, "h_ns", 161))
    kept, dropped = filter_shift_window(with_recordings(Cohort(rssi=rssi), recs))
    assert kept.recordings.minute_index.tolist() == [719]
    assert len(kept.frames) == 5
    assert kept.rssi.minute_index.tolist() == [300, 719]
    assert kept.rssi.rssi.tolist() == [160, 161]
    assert dropped == {"recordings_dropped": 2, "rssi_dropped": 2}


def test_min_days_keeps_exactly_at_threshold():
    cohort = with_recordings(tiny_cohort(), [recording("p1", minute=i, shift_date=date(2022, 3, 1 + i))
                                             for i in range(5)])
    kept = filter_min_days(cohort, min_days=5)
    assert "p1" in kept.profiles


def test_min_days_removes_single_date_participant():
    cohort = with_recordings(tiny_cohort(), [recording("p1", minute=i) for i in range(10)])  # one date
    kept = filter_min_days(cohort, min_days=5)
    assert kept.profiles == {}
    assert len(kept.recordings) == 0 and len(kept.frames) == 0
    assert len(kept.rssi) == 0
    assert kept.counts == {"participants": 0, "hubs": 1, "rssi": 0, "recordings": 0, "physiology": 0}


def test_min_days_degenerate_threshold():
    cohort = tiny_cohort()
    kept = filter_min_days(cohort, min_days=1)
    assert "p1" in kept.profiles


def test_min_days_idempotent():
    cohort = tiny_cohort()
    once = filter_min_days(cohort, 2)
    twice = filter_min_days(once, 2)
    assert once.profiles == twice.profiles
    assert len(once.recordings) == len(twice.recordings)


def test_filters_return_an_rssi_table_that_loses_no_row_itself():
    cohort = tiny_cohort()
    windowed, dropped = filter_shift_window(cohort)
    assert windowed.rssi is cohort.rssi and dropped["rssi_dropped"] == 0
    kept = filter_min_days(cohort, 1)
    assert kept.rssi is cohort.rssi
    assert kept.counts == cohort.counts
    # one dropped row: a new table
    late = replace(cohort, rssi=rssi_rows(("p1", 0, "h_ns", 160), ("p1", 720, "h_ns", 155)))
    windowed, dropped = filter_shift_window(late)
    rssi = windowed.rssi
    assert rssi is not late.rssi and rssi.minute_index.tolist() == [0] and dropped["rssi_dropped"] == 1
    assert filter_min_days(late, 99).rssi is not late.rssi


def test_filters_return_recordings_and_frames_that_lose_no_row_themselves():
    cohort = tiny_cohort()
    windowed, dropped = filter_shift_window(cohort)
    assert dropped["recordings_dropped"] == 0
    assert windowed.recordings is cohort.recordings and windowed.frames is cohort.frames
    kept = filter_min_days(cohort, 2)
    assert kept.recordings is cohort.recordings and kept.frames is cohort.frames
    # a dropped recording: new columns, its frames dropped with it
    recs = segments(cohort)
    recs[0].participant_id, recs[0].minute_index = "p2", 720
    recs[1].frames.foreground = np.array([True, False, True])
    for i, rec in enumerate(recs):
        rec.frames.intensity[:] = np.arange(3) + 10 * i
    cohort = with_recordings(replace(cohort, profiles={**cohort.profiles, "p2": profile("p2")}), recs)
    windowed, dropped = filter_shift_window(cohort)
    assert dropped["recordings_dropped"] == 1
    assert windowed.recordings is not cohort.recordings and windowed.frames is not cohort.frames
    assert_cohorts_equal(windowed, with_recordings(cohort, recs[1:]))
    kept = filter_min_days(cohort, 2)  # p1 has two dates, p2 one
    assert_cohorts_equal(kept, with_recordings(replace(cohort, profiles={"p1": cohort.profiles["p1"]}), recs[1:]))
    assert kept.frames.intensity.tolist() == [10.0, 11.0, 12.0, 20.0, 21.0, 22.0]
    assert kept.frames.foreground.tolist() == [True, False, True] + [False] * 3


def test_filters_do_not_mutate_input():
    cohort = tiny_cohort()
    n_rec = len(cohort.recordings)
    filter_min_days(cohort, 99)
    filter_shift_window(cohort)
    assert len(cohort.recordings) == n_rec
    assert len(cohort.rssi) == 2
    assert "p1" in cohort.profiles
