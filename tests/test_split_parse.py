"""The two-process parse of rssi.csv and recordings.jsonl returns what a
json.loads reading of the lines and the serial parse return, bit for bit,
wherever the file is split; on a bad line in either half or in rssi.csv it
raises what the serial parse raises; and it falls back to the serial parse
where it cannot split."""

from __future__ import annotations

import json
import math
import os
import threading
import time
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from shifttalk import ingest
from shifttalk.errors import MalformedRow
from shifttalk.model import FRAME_FIELDS, Cohort, FrameBlock, RecordingSegment, join_recordings

from conftest import assert_cohorts_equal, with_recordings
from test_ingest import BAD_FRAMES, BAD_VALUES, LAYOUTS, recording_line, write_dir


def halves(path: Path, profiles: dict, offset: int) -> Cohort:
    """What the two sides of a split at offset parse, without the fork."""
    cut = ingest._line_start(path, offset)
    parts = ingest._read_recordings(path, profiles, 0, cut) + ingest._read_recordings(path, profiles, cut, math.inf)
    recordings, frames = join_recordings(parts)
    return Cohort(recordings=recordings, frames=frames)


def loaded(data: bytes) -> Cohort:
    """The recordings of a valid recordings.jsonl, read line by line with json.loads."""
    recordings = []
    for line in data.decode().splitlines():  # the lines tested here end in "\n", "\r\n" or "\r" only
        if not line.strip():
            continue
        obj = json.loads(line)
        frames = obj["frames"]
        if type(frames) is list:
            frames = {name: [frame[name] for frame in frames] for name in frames[0]}
        labels = frames.get("foreground")
        block = FrameBlock(*(np.array(frames[name], float) for name in FRAME_FIELDS[:4]),  # null becomes NaN
                           None if labels is None else np.array(labels, bool))
        recordings.append(RecordingSegment(obj["participant_id"], date.fromisoformat(obj["shift_date"]),
                                           obj["minute_index"], block))
    return with_recordings(Cohort(), recordings)


def affinity() -> set[int] | None:
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


def serial(path: Path):
    """parse_cohort's result, or the error it raises, without a split."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_split_offset", lambda root: None)
        try:
            return ingest.parse_cohort(path)
        except Exception as exc:
            return exc


def test_split_property(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

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

    root = write_dir(tmp_path, **{"participants.csv": ["p1,day,icu,30,25,4.2", "p2,night,non_icu,20,30,5.0"],
                                  "rssi.csv": ["p1,2022-03-01,0,h_ns,160", "p2,2022-03-01,1,h_ns,100"]})
    path = root / ingest.RECORDINGS_FILE
    profiles = ingest.parse_participants(root / ingest.PARTICIPANTS_FILE)
    hubs = ingest.parse_hubs(root / ingest.HUBS_FILE)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(text, st.integers(0, 1 << 12))
    def check(lines: list[tuple[str, str]], forked_at: int) -> None:
        data = "".join(body + end for body, end in lines).encode()
        path.write_bytes(data)
        want = loaded(data)
        bounds = {0, len(data)} | {i + 1 for i, byte in enumerate(data) if byte in b"\r\n"}
        for offset in sorted({b + d for b in bounds for d in (-1, 0, 1)} - {-1}):
            assert_cohorts_equal(halves(path, profiles, offset), want)
        warnings: dict[str, int] = {}
        rssi, parts = ingest._parse_split(root, hubs, profiles, warnings, forked_at % (len(data) + 1))
        recordings, frames = join_recordings(parts)
        assert_cohorts_equal(Cohort(recordings=recordings, frames=frames), want)
        assert warnings == {"rssi_clamped": 1}
        assert rssi.rssi.tolist() == [160, 136]

    check()


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
def test_batched_reader_refuses_every_line_the_serial_parse_refuses(tmp_path, monkeypatch, forks, line):
    root = write_dir(tmp_path, **{"recordings.jsonl": [recording_line("rows"), line]})
    size = (root / ingest.RECORDINGS_FILE).stat().st_size
    reasons = set()
    for offset in (None, 1, size):  # unsplit; line 2 in the worker's half; both lines in the parent's
        monkeypatch.setattr(ingest, "_split_offset", lambda root: offset)
        with pytest.raises(MalformedRow) as err:
            ingest.parse_cohort(root)
        assert (err.value.file, err.value.line) == ("recordings.jsonl", 2)
        reasons.add(err.value.reason)
    assert len(forks) == 2
    assert len(reasons) == 1


def test_forced_split_equals_serial_parse(tmp_path, monkeypatch, forks):
    from shifttalk.simulate import CohortSpec, generate

    generate(CohortSpec(n_per_cell=1, n_shifts=2, frames_per_recording=12, seed=3), tmp_path)
    want = serial(tmp_path)
    monkeypatch.setattr(ingest, "_SPLIT_MIN_BYTES", 0)
    before = affinity()
    got = ingest.parse_cohort(tmp_path)
    assert len(forks) == 1
    assert affinity() == before  # the parent's CPUs are given back
    assert_cohorts_equal(got, want)


def bad_line_files(tmp_path: Path, bad_at: int | None, rssi_row: str = "p1,2022-03-01,5,h_ns,160") -> Path:
    """Ten two-frame recordings, line bad_at (1-based) with a string pitch,
    and rssi.csv ending in rssi_row on its line 7."""
    lines = [recording_line("columnar")] * 10
    if bad_at is not None:
        lines[bad_at - 1] = recording_line("columnar", "log_pitch", '"4.7"')
    rssi = ["p1,2022-03-01,0,h_ns,160"] * 5 + [rssi_row]
    return write_dir(tmp_path, **{"recordings.jsonl": lines, "rssi.csv": rssi})


BAD_RSSI, GHOST_HUB = "p1,2022-03-01,x,h_ns,160", "p1,2022-03-01,5,h_ghost,160"


@pytest.mark.parametrize("bad_at, rssi_row, error", [
    (2, None, "recordings.jsonl:2: frame 1: log_pitch must be a number or null, got '4.7'"),  # the parent's half
    (9, None, "recordings.jsonl:9: frame 1: log_pitch must be a number or null, got '4.7'"),  # the worker's half
    (None, BAD_RSSI, "rssi.csv:7: bad integer for minute_index: 'x'"),
    (2, BAD_RSSI, "rssi.csv:7: bad integer for minute_index: 'x'"),  # rssi.csv raises first, as in the serial parse
    (9, BAD_RSSI, "rssi.csv:7: bad integer for minute_index: 'x'"),
    (9, GHOST_HUB, "rssi row references unknown hub_id 'h_ghost'"),
])
def test_bad_line_raises_what_the_serial_parse_raises(tmp_path, monkeypatch, forks, bad_at, rssi_row, error):
    root = bad_line_files(tmp_path, bad_at, *[rssi_row] * (rssi_row is not None))
    want = serial(root)
    assert str(want) == error
    size = (root / ingest.RECORDINGS_FILE).stat().st_size
    monkeypatch.setattr(ingest, "_split_offset", lambda root: size // 2)  # line 2 in the head, line 9 in the tail
    with pytest.raises(Exception) as err:
        ingest.parse_cohort(root)
    assert len(forks) == 1
    assert (type(err.value), str(err.value)) == (type(want), str(want))
    assert (getattr(err.value, "file", None), getattr(err.value, "line", None)) == (
        getattr(want, "file", None), getattr(want, "line", None))


def test_worker_that_fails_is_reaped_and_the_serial_parse_runs(tmp_path, monkeypatch, forks):
    root = bad_line_files(tmp_path, None)
    want = serial(root)
    parent, parse_rssi = os.getpid(), ingest.parse_rssi

    def fails_in_the_worker(*args):
        if os.getpid() != parent:
            raise MemoryError
        return parse_rssi(*args)

    monkeypatch.setattr(ingest, "parse_rssi", fails_in_the_worker)
    monkeypatch.setattr(ingest, "_split_offset", lambda root: 1)
    assert_cohorts_equal(ingest.parse_cohort(root), want)
    assert len(forks) == 1


def test_parent_that_refuses_does_not_wait_for_the_worker(tmp_path, monkeypatch, forks):
    root = bad_line_files(tmp_path, 2)
    parent, parse_rssi = os.getpid(), ingest.parse_rssi

    def slow_in_the_worker(*args):
        if os.getpid() != parent:
            time.sleep(60)
        return parse_rssi(*args)

    monkeypatch.setattr(ingest, "parse_rssi", slow_in_the_worker)
    monkeypatch.setattr(ingest, "_split_offset", lambda root: 1 << 20)  # every line in the parent's half
    started = time.monotonic()
    with pytest.raises(MalformedRow, match="recordings.jsonl:2:"):
        ingest.parse_cohort(root)
    assert time.monotonic() - started < 30  # the worker was killed, not waited for
    assert len(forks) == 1


def test_interrupted_parent_reaps_the_worker(tmp_path, monkeypatch, forks):
    root = bad_line_files(tmp_path, None)
    monkeypatch.setattr(ingest, "_split_offset", lambda root: 1)
    parent, read_recordings = os.getpid(), ingest._read_recordings

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return read_recordings(*args)

    monkeypatch.setattr(ingest, "_read_recordings", interrupted)
    before = affinity()
    with pytest.raises(KeyboardInterrupt):
        ingest.parse_cohort(root)
    assert len(forks) == 1  # and the autouse fixture finds no child left
    assert affinity() == before


def test_failed_fork_gives_the_serial_parse(tmp_path, monkeypatch):
    root = bad_line_files(tmp_path, None)
    want = serial(root)
    pipes: list[int] = []
    pipe = os.pipe

    def recorded() -> tuple[int, int]:
        fds = pipe()
        pipes.extend(fds)
        return fds

    def no_process():
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(os, "pipe", recorded)
    monkeypatch.setattr(os, "fork", no_process)
    monkeypatch.setattr(ingest, "_split_offset", lambda root: 1)
    before = affinity()
    assert_cohorts_equal(ingest.parse_cohort(root), want)
    assert len(pipes) == 2
    for fd in pipes:  # both ends were closed
        with pytest.raises(OSError):
            os.fstat(fd)
    assert affinity() == before


@pytest.mark.parametrize("why", ["one cpu", "no fork", "another thread", "small file"])
def test_serial_parse_where_a_split_cannot_help(tmp_path, monkeypatch, forks, why):
    root = bad_line_files(tmp_path, None)
    want = serial(root)
    if why != "small file":
        monkeypatch.setattr(ingest, "_SPLIT_MIN_BYTES", 0)
    if why == "one cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif why == "no fork":
        monkeypatch.delattr(os, "fork")
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if why == "another thread":
        thread.start()
    try:
        assert ingest._split_offset(root) is None
        assert_cohorts_equal(ingest.parse_cohort(root), want)
    finally:
        stop.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert forks == []
    assert not thread.is_alive()


@pytest.mark.parametrize("cpus, parent_cpus", [({0, 1}, [{0}, {0, 1}]), ({0, 1, 2, 3}, [{0, 1, 2, 3}] * 2)])
def test_split_pins_the_two_sides_only_on_two_cpus(tmp_path, monkeypatch, forks, cpus, parent_cpus):
    root = bad_line_files(tmp_path, None)
    pins: list[set[int]] = []  # the parent's; the worker's are made in its own memory
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pins.append(set(cpus)), raising=False)
    monkeypatch.setattr(ingest, "_split_offset", lambda root: 1)
    assert_cohorts_equal(ingest.parse_cohort(root), serial(root))
    assert len(forks) == 1
    assert pins == parent_cpus


@pytest.mark.parametrize("field, text", [("log_pitch", '"4.7"'), ("minute_index", "0.5")])
def test_refused_file_is_opened_once_on_the_serial_path(tmp_path, monkeypatch, field, text):
    root = write_dir(tmp_path, **{"recordings.jsonl": [recording_line("columnar"),
                                                       recording_line("columnar", field, text)]})
    opened: list[Path] = []
    path_open = Path.open

    def counted(self, *args, **kwargs):
        if self.name == ingest.RECORDINGS_FILE:
            opened.append(self)
        return path_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counted)
    monkeypatch.setattr(ingest, "_split_offset", lambda root: None)
    with pytest.raises(MalformedRow, match="recordings.jsonl:2:"):
        ingest.parse_cohort(root)
    assert len(opened) == 1


def test_line_start_is_after_the_first_newline_at_or_after_the_offset(tmp_path):
    path = tmp_path / "lines"
    path.write_bytes(b"ab\ncd\r\nef\rgh\n")  # a lone "\r" ends a line but is never a cut
    assert [ingest._line_start(path, offset) for offset in range(15)] == [
        0, 3, 3, 3, 7, 7, 7, 7, 13, 13, 13, 13, 13, 13, 13]
