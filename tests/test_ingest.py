from __future__ import annotations

import io
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
    CANONICAL_FILES,
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


HEAD = '{"participant_id":"p1","shift_date":"2022-03-01","minute_index":0,"frames":'
BAD_LINES = (
    [recording_line(layout, field, text) for layout in LAYOUTS for field, text in BAD_VALUES]
    + [HEAD + frames + "}" for frames in BAD_FRAMES]
    + [HEAD + '{"log_pitch":[4.7],"intensity":[60.0],"hf_lf_ratio":[0.8],"foreground_prob":[%s]}}' % prob
       for prob in ("1.5", "-0.1", "1e999")]
    + [recording_line("columnar", "participant_id", '"ghost"'), recording_line("columnar", "minute_index", "0.5"),
       recording_line("columnar", "intensity", "1" + "0" * 400), recording_line("rows", "hf_lf_ratio", "-1"),
       "[1]", "null", "{", '{"participant_id":"p1"}', recording_line("columnar") + "x"]
)


@pytest.mark.parametrize("line", BAD_LINES)
def test_every_bad_line_raises_at_its_line(tmp_path, line):
    root = write_dir(tmp_path, **{"recordings.jsonl": [recording_line("rows"), line]})
    with pytest.raises(MalformedRow) as err:
        parse_cohort(root)
    assert (err.value.file, err.value.line) == ("recordings.jsonl", 2)


UNDECODABLE = recording_line("columnar").encode().replace(b"2022", b"2022\xff", 1)  # not UTF-8
TOO_DEEP = b"[" * 100_000  # nested past the recursion limit
OK, NEGATIVE = recording_line("rows").encode(), recording_line("rows", "hf_lf_ratio", "-1").encode()


@pytest.mark.parametrize("lines, line, reason", [
    ([OK, UNDECODABLE], 2, "not UTF-8 text"),
    ([OK, TOO_DEEP], 2, "invalid JSON: nested too deeply"),
    ([NEGATIVE, UNDECODABLE], 1, "frame 1: hf_lf_ratio negative"),  # a value rule on an earlier line comes first
    ([OK, b"{\r" + UNDECODABLE], 2, "invalid JSON: Expecting property name enclosed in double quotes"),
    ([OK, UNDECODABLE + b"\r{"], 2, "not UTF-8 text"),
    ([OK, OK + b"\r" + UNDECODABLE], 3, "not UTF-8 text"),
])
def test_lines_json_cannot_decode_raise_at_their_line(tmp_path, capsys, lines, line, reason):
    from shifttalk.cli import main

    root = tmp_path / "data"
    root.mkdir()
    write_dir(root)
    (root / ingest.RECORDINGS_FILE).write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(MalformedRow) as err:
        ingest.parse_cohort(root)
    assert (err.value.file, err.value.line, err.value.reason) == ("recordings.jsonl", line, reason)
    assert main(["extract", "--input", str(root), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: recordings.jsonl:{line}: {reason}\n"


BAD_RSSI = "p1,2022-03-01,x,h_ns,160"


@pytest.mark.parametrize("bad_at, rssi_row, error", [
    (2, None, "recordings.jsonl:2: frame 1: log_pitch must be a number or null, got '4.7'"),
    (9, None, "recordings.jsonl:9: frame 1: log_pitch must be a number or null, got '4.7'"),
    (None, BAD_RSSI, "rssi.csv:7: bad integer for minute_index: 'x'"),
    (2, BAD_RSSI, "rssi.csv:7: bad integer for minute_index: 'x'"),  # rssi.csv is read first
    (9, "p1,2022-03-01,5,h_ghost,160", "rssi row references unknown hub_id 'h_ghost'"),
])
def test_rssi_csv_refuses_before_recordings_jsonl(tmp_path, bad_at, rssi_row, error):
    lines = [recording_line("columnar")] * 10
    if bad_at is not None:
        lines[bad_at - 1] = recording_line("columnar", "log_pitch", '"4.7"')
    rssi = ["p1,2022-03-01,0,h_ns,160"] * 5 + [rssi_row or "p1,2022-03-01,5,h_ns,160"]
    with pytest.raises(Exception) as err:
        parse_cohort(write_dir(tmp_path, **{"recordings.jsonl": lines, "rssi.csv": rssi}))
    assert str(err.value) == error


@pytest.mark.parametrize("field, text", [("log_pitch", '"4.7"'), ("minute_index", "0.5")])
def test_refused_file_is_opened_once(tmp_path, monkeypatch, field, text):
    root = write_dir(tmp_path, **{"recordings.jsonl": [recording_line("columnar"),
                                                       recording_line("columnar", field, text)]})
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


def loaded(data: bytes) -> Cohort:
    """The recordings of a valid inline recordings.jsonl, read line by line with json.loads."""
    recordings = []
    for line in data.decode().splitlines():  # the lines tested here end in "\n", "\r\n" or "\r" only
        if not line.strip():
            continue
        obj = json.loads(line)
        frames = obj["frames"]
        if type(frames) is list:
            frames = {name: [frame[name] for frame in frames] for name in frames[0]}
        labels = frames.get("foreground")
        block = FrameBlock(*(np.array(frames[name], float) for name in ingest.FRAME_COLUMNS),  # null becomes NaN
                           None if labels is None else np.array(labels, bool))
        recordings.append(RecordingSegment(obj["participant_id"], date.fromisoformat(obj["shift_date"]),
                                           obj["minute_index"], block))
    return with_recordings(Cohort(), recordings)


def test_inline_reader_matches_json_loads_property(tmp_path):
    import hypothesis
    from hypothesis import strategies as st

    special = ["0", "-0", "0.0", "-0.0", "5e-324", "1e-05", "1E3", "2.5e+16", "123456789012345678901234567890",
               "-9223372036854775809", "18446744073709551616"]
    number = st.one_of(st.sampled_from(special), st.integers(-(2**80), 2**80).map(str),
                       st.floats(allow_nan=False, allow_infinity=False).map(repr))
    non_negative = st.one_of(st.sampled_from([t for t in special if not t.startswith("-") or t in ("-0", "-0.0")]),
                             st.integers(0, 2**80).map(str),
                             st.floats(min_value=0.0, allow_infinity=False).map(repr))
    probability = st.one_of(st.sampled_from(["0", "-0", "-0.0", "1", "1.0", "0.25", "1e-05"]),
                            st.floats(0.0, 1.0).map(repr))

    @st.composite
    def line(draw) -> str:
        n = draw(st.integers(1, 5))
        columns = {
            "log_pitch": draw(st.lists(st.one_of(st.just("null"), number), min_size=n, max_size=n)),
            "intensity": draw(st.lists(number, min_size=n, max_size=n)),
            "hf_lf_ratio": draw(st.lists(non_negative, min_size=n, max_size=n)),
            "foreground_prob": draw(st.lists(probability, min_size=n, max_size=n)),
        }
        if draw(st.booleans()):
            columns["foreground"] = draw(st.lists(st.sampled_from(["true", "false"]), min_size=n, max_size=n))
        if draw(st.booleans()):
            frames = "{" + ",".join(f'"{k}":[{",".join(v)}]' for k, v in columns.items()) + "}"
        else:
            frames = "[" + ",".join("{" + ",".join(f'"{k}":{v[i]}' for k, v in columns.items()) + "}"
                                    for i in range(n)) + "]"
        pid = draw(st.sampled_from(["p1", "p2"]))
        day = draw(st.sampled_from(["2022-03-01", "2022-03-02"]))
        minute = draw(st.one_of(st.integers(-5, 800), st.sampled_from([2**70, -(2**64)])))
        return (f'{{"participant_id":"{pid}","shift_date":"{day}","minute_index":{minute},'
                f'"frames":{frames}}}')

    text = st.lists(st.tuples(st.one_of(line(), st.sampled_from(["", "  ", "\t"])),
                              st.sampled_from(["\n", "\r\n", "\r"])), max_size=8)
    root = write_dir(tmp_path, **{"participants.csv": ["p1,day,icu,30,25,4.2", "p2,night,non_icu,20,30,5.0"]})
    profiles = ingest.parse_participants(root / ingest.PARTICIPANTS_FILE)
    path = root / ingest.RECORDINGS_FILE

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(text, st.sampled_from([3, ingest._PARSE_BATCH_FRAMES]))
    def check(lines: list[tuple[str, str]], batch_frames: int) -> None:
        data = "".join(body + end for body, end in lines).encode()
        path.write_bytes(data)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_PARSE_BATCH_FRAMES", batch_frames)
            recordings, frames = ingest.parse_recordings(path, profiles)
        assert_cohorts_equal(Cohort(recordings=recordings, frames=frames), loaded(data))

    check()


def test_writer_emits_head_lines_and_frames_bin(tmp_path):
    recs = [recording("p1", minute=0, n_frames=2, log_pitch=math.nan),
            recording("p\0é\"", minute=3, n_frames=1, foreground=[True])]
    cohort = with_recordings(replace(tiny_cohort(), profiles={"p1": profile("p1"), "p\0é\"": profile("p\0é\"")}),
                             recs)
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
    assert [a.tolist() for a in arrays[1:]] == [[60.0] * 3, [0.8] * 3, [1.0] * 3, [False, False, True]]
    assert np.isnan(arrays[0][:2]).all() and arrays[0][2] == 4.7
    assert_cohorts_equal(parse_cohort(tmp_path), cohort)


def test_writer_widens_float32_columns_exactly(tmp_path):
    recs = [
        RecordingSegment(r.participant_id, r.shift_date, r.minute_index,
                         FrameBlock(*(getattr(r.frames, name).astype(np.float32) for name in ingest.FRAME_COLUMNS)))
        for r in segments(tiny_cohort())
    ]
    cohort = with_recordings(tiny_cohort(), recs)
    assert cohort.frames.log_pitch.dtype == np.float32
    write_cohort(cohort, tmp_path)
    frames = parse_cohort(tmp_path).frames
    for name in ingest.FRAME_COLUMNS:
        assert getattr(frames, name).tolist() == getattr(cohort.frames, name).astype(np.float64).tolist()
    assert frames.log_pitch[0] == 4.699999809265137


def frames_bin_files(tmp_path: Path) -> tuple[Path, list[np.ndarray]]:
    """tiny_cohort written out (three recordings of three frames, on lines
    1-3), and the five arrays of its frames.bin."""
    write_cohort(tiny_cohort(), tmp_path)
    with (tmp_path / "frames.bin").open("rb") as fh:
        return tmp_path, [np.load(fh) for _ in range(5)]


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


def test_frames_bin_refuses_n_frames_that_do_not_sum_to_its_frames(tmp_path):
    root, _ = frames_bin_files(tmp_path)
    path = root / "recordings.jsonl"
    path.write_bytes(path.read_bytes().replace(b'"n_frames":3', b'"n_frames":4', 1))
    with pytest.raises(MalformedRow) as err:
        parse_cohort(root)
    assert str(err.value) == "frames.bin:1: log_pitch holds 9 frames, but the n_frames of recordings.jsonl sum to 10"


def test_frames_bin_keeps_only_a_labelled_recordings_foreground(tmp_path):
    root, arrays = frames_bin_files(tmp_path)
    (root / "frames.bin").write_bytes(column(arrays, 4, np.ones(9, bool)))
    path = root / "recordings.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1].replace(b"}", b',"labelled":true}')
    path.write_bytes(b"".join(lines))
    cohort = parse_cohort(root)
    assert cohort.recordings.labelled.tolist() == [False, True, False]
    assert cohort.frames.foreground.tolist() == [False] * 3 + [True] * 3 + [False] * 3


HEAD_LINE = '{"participant_id":"p1","shift_date":"2022-03-01","minute_index":0,"n_frames":1}'


@pytest.mark.parametrize("lines, frames_bin, error", [
    ([recording_line("rows"), HEAD_LINE], False, "recordings.jsonl:2: n_frames without a frames.bin"),
    ([HEAD_LINE, recording_line("rows")], False, "recordings.jsonl:1: n_frames without a frames.bin"),
    ([HEAD_LINE, recording_line("rows")], True, "recordings.jsonl:2: frames given inline beside a frames.bin"),
    ([recording_line("rows"), HEAD_LINE], True, "recordings.jsonl:1: frames given inline beside a frames.bin"),
    ([HEAD_LINE, HEAD_LINE.replace("1}", "1,\"frames\":[]}")], True,
     "recordings.jsonl:2: frames given inline beside a frames.bin"),
    ([HEAD_LINE.replace('"n_frames":1', '"frame_count":1')], True,
     "recordings.jsonl:1: n_frames must be a positive integer, got None"),
    ([HEAD_LINE.replace("1}", "0}")], True, "recordings.jsonl:1: n_frames must be a positive integer, got 0"),
    ([HEAD_LINE.replace("1}", "-1}")], True, "recordings.jsonl:1: n_frames must be a positive integer, got -1"),
    ([HEAD_LINE.replace("1}", "1.0}")], True, "recordings.jsonl:1: n_frames must be a positive integer, got 1.0"),
    ([HEAD_LINE.replace("1}", "true}")], True, "recordings.jsonl:1: n_frames must be a positive integer, got True"),
    ([HEAD_LINE.replace("1}", '"1"}')], True, "recordings.jsonl:1: n_frames must be a positive integer, got '1'"),
    ([HEAD_LINE.replace("1}", "9223372036854775808}")], True,
     "recordings.jsonl:1: n_frames must be a positive integer, got 9223372036854775808"),
    ([HEAD_LINE.replace("1}", '1,"labelled":1}')], True, "recordings.jsonl:1: labelled must be true or false, got 1"),
    ([HEAD_LINE.replace('"p1"', '"ghost"')], True, "recordings.jsonl:1: unknown participant_id 'ghost'"),
    ([HEAD_LINE.replace("0,", "0.5,")], True, "recordings.jsonl:1: minute_index must be an integer, got 0.5"),
])
def test_recordings_forms_do_not_mix(tmp_path, lines, frames_bin, error):
    root = write_dir(tmp_path, **{"recordings.jsonl": lines})
    if frames_bin:
        (root / "frames.bin").write_bytes(saved(*np.ones((4, 1)), np.zeros(1, bool)))
    with pytest.raises(MalformedRow) as err:
        parse_cohort(root)
    assert str(err.value) == error


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
                           None if fg is None else np.array(fg, dtype=bool))
        return RecordingSegment(draw(st.sampled_from(ids)), D0, minute, block)

    cohorts = st.integers(0, 4).flatmap(lambda k: st.tuples(*(recordings(minute) for minute in range(k))))
    names = CANONICAL_FILES + ("frames.bin",)
    base = replace(tiny_cohort(), profiles={pid: profile(pid) for pid in ids})

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
        cohort = with_recordings(base, list(recs))
        write_cohort(cohort, tmp_path / "first")
        parsed = parse_cohort(tmp_path / "first")
        assert_cohorts_equal(parsed, cohort)
        write_cohort(parsed, tmp_path / "second")
        for name in names:
            assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()
        # the same recordings with their frames inline
        (tmp_path / "second" / "frames.bin").unlink()
        (tmp_path / "second" / "recordings.jsonl").write_text(
            "".join(row_layout_line(rec) + "\n" for rec in recs), encoding="utf-8")
        assert_cohorts_equal(parse_cohort(tmp_path / "second"), cohort)

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
    rssi = rssi_rows(("p1", 0, "h_ns", 136), ("p1", 1, "h_ns", 193), ("p1", 2, "h_ns", 160))
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
    cohort.rssi = rssi_rows(("p1", 9, "h_ns", 170))
    for i in bad:
        segments(cohort)[i].frames.intensity[0] = math.inf
    with pytest.raises(ValueError) as err:
        write_cohort(cohort, root)
    assert str(err.value) == f"non-finite frame value in recording p1 2022-03-01 minute {minute}"
    assert written(root) == before  # no .tmp file either


def test_interrupted_write_leaves_no_file(tmp_path, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(np, "save", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write_cohort(cohort_to_write(), tmp_path / "data")
    assert written(tmp_path / "data") == {}


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
