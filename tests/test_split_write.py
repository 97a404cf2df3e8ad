"""The two-process write of rssi.csv and recordings.jsonl gives the serial
write's bytes wherever the recordings are cut; on a non-finite value in
either half it raises what the serial write raises and leaves the directory
as it was; and it falls back to the serial write where it cannot split."""

from __future__ import annotations

import math
import os
import signal
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from shifttalk import ingest
from shifttalk.ingest import CANONICAL_FILES, write_cohort
from shifttalk.model import Cohort

from conftest import recording, rssi_rows, segments, tiny_cohort, with_recordings


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


def serial(cohort: Cohort, root: Path) -> dict[str, bytes] | Exception:
    """write_cohort's files, or the error it raises, without a split."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_write_cut", lambda cohort, offsets: None)
        try:
            write_cohort(cohort, root)
        except Exception as exc:
            return exc
    return written(root)


def cut_at(monkeypatch, cut: int) -> list[bool]:
    """Force the write's cut at recording cut; each _write_split's result."""
    results: list[bool] = []
    write_split = ingest._write_split

    def recorded(*args) -> bool:
        results.append(write_split(*args))
        return results[-1]

    monkeypatch.setattr(ingest, "_write_cut", lambda cohort, offsets: cut)
    monkeypatch.setattr(ingest, "_write_split", recorded)
    return results


def test_every_cut_writes_the_serial_bytes(tmp_path, monkeypatch, forks):
    cohort = cohort_to_write()
    want = serial(cohort, tmp_path / "serial")
    assert set(want) == set(CANONICAL_FILES)
    n = len(cohort.recordings)
    for cut in range(n + 1):
        results = cut_at(monkeypatch, cut)
        write_cohort(cohort, tmp_path / f"cut{cut}")
        assert results == [True]
        assert written(tmp_path / f"cut{cut}") == want, cut
    assert len(forks) == n + 1


def test_simulated_cohort_is_cut_where_the_two_sides_balance(tmp_path, monkeypatch, forks):
    from shifttalk.simulate import CohortSpec, generate

    cohort, _ = generate(CohortSpec(n_per_cell=1, n_shifts=2, frames_per_recording=12, seed=3), tmp_path / "sim")
    want = serial(cohort, tmp_path / "serial")
    forks.clear()  # generate's own write may have split
    monkeypatch.setattr(ingest, "_WRITE_SPLIT_MIN_FRAMES", 0)
    offsets = np.concatenate(([0], np.cumsum(cohort.recordings.n_frames)))
    cut = ingest._write_cut(cohort, offsets)

    def worker_share(cut: int) -> int:  # RSSI rows x weight + tail frames
        return offsets[-1] - offsets[cut] + ingest._RSSI_ROW_FRAMES * len(cohort.rssi)

    assert 0 < cut < len(cohort.recordings)
    assert offsets[cut - 1] < worker_share(cut - 1) and offsets[cut] + 1 >= worker_share(cut)
    write_cohort(cohort, tmp_path / "split")
    assert len(forks) == 1
    assert written(tmp_path / "split") == want
    assert {name: written(tmp_path / "sim")[name] for name in CANONICAL_FILES} == want


def bad_cohort(*bad: int) -> Cohort:
    """cohort_to_write with an infinite intensity in each recording of bad."""
    cohort = cohort_to_write()
    for i in bad:
        segments(cohort)[i].frames.intensity[0] = math.inf
    return cohort


@pytest.mark.parametrize("bad, minute", [((1,), 1), ((4,), 7), ((1, 4), 1), ((0, 5), 0)])
def test_non_finite_value_raises_the_serial_error_and_leaves_the_directory(tmp_path, monkeypatch, forks, bad, minute):
    cohort = bad_cohort(*bad)
    want = serial(cohort, tmp_path / "serial")
    assert str(want) == f"non-finite frame value in recording p1 2022-03-01 minute {minute}"
    root = tmp_path / "data"
    write_cohort(cohort_to_write(), root)  # the directory as it was
    before = written(root)
    results = cut_at(monkeypatch, 3)  # recordings 0-2 in this process's half, 3-5 in the worker's
    with pytest.raises(ValueError) as err:
        write_cohort(cohort, root)
    assert (type(err.value), str(err.value)) == (type(want), str(want))
    assert results == [False]
    assert len(forks) == 1
    assert written(root) == before  # no .tmp or part file either


def test_worker_that_fails_is_reaped_and_the_serial_write_runs(tmp_path, monkeypatch, forks):
    cohort = cohort_to_write()
    want = serial(cohort, tmp_path / "serial")
    parent, write_lines = os.getpid(), ingest._write_lines

    def fails_in_the_worker(*args):
        if os.getpid() != parent:
            raise MemoryError
        return write_lines(*args)

    monkeypatch.setattr(ingest, "_write_lines", fails_in_the_worker)
    results = cut_at(monkeypatch, 2)
    write_cohort(cohort, tmp_path / "data")
    assert results == [False]
    assert len(forks) == 1
    assert written(tmp_path / "data") == want


def test_worker_that_dies_is_reaped_and_the_serial_write_runs(tmp_path, monkeypatch, forks):
    cohort = cohort_to_write()
    want = serial(cohort, tmp_path / "serial")
    parent, write_csv = os.getpid(), type(cohort.rssi).write_csv

    def dies_in_the_worker(table, path):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return write_csv(table, path)

    monkeypatch.setattr(type(cohort.rssi), "write_csv", dies_in_the_worker)
    results = cut_at(monkeypatch, 2)
    write_cohort(cohort, tmp_path / "data")
    assert results == [False]
    assert len(forks) == 1
    assert written(tmp_path / "data") == want


def test_interrupted_write_reaps_the_worker_and_leaves_no_file(tmp_path, monkeypatch, forks):
    cohort = cohort_to_write()
    parent, write_lines = os.getpid(), ingest._write_lines

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return write_lines(*args)

    monkeypatch.setattr(ingest, "_write_lines", interrupted)
    cut_at(monkeypatch, 2)
    with pytest.raises(KeyboardInterrupt):
        write_cohort(cohort, tmp_path / "data")
    assert len(forks) == 1  # and the autouse fixture finds no child left
    assert written(tmp_path / "data") == {}


def test_failed_fork_gives_the_serial_write(tmp_path, monkeypatch):
    cohort = cohort_to_write()
    want = serial(cohort, tmp_path / "serial")
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
    results = cut_at(monkeypatch, 2)
    write_cohort(cohort, tmp_path / "data")
    assert results == [False]
    assert written(tmp_path / "data") == want
    assert len(pipes) == 2
    for fd in pipes:  # both ends were closed
        with pytest.raises(OSError):
            os.fstat(fd)


@pytest.mark.parametrize("why", ["one cpu", "another thread", "few frames"])
def test_serial_write_where_a_split_cannot_help(tmp_path, monkeypatch, forks, why):
    cohort = cohort_to_write()
    want = serial(cohort, tmp_path / "serial")
    if why != "few frames":
        monkeypatch.setattr(ingest, "_WRITE_SPLIT_MIN_FRAMES", 0)
    if why == "one cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if why == "another thread":
        thread.start()
    try:
        offsets = np.concatenate(([0], np.cumsum(cohort.recordings.n_frames)))
        assert ingest._write_cut(cohort, offsets) is None
        write_cohort(cohort, tmp_path / "data")
    finally:
        stop.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert forks == []
    assert written(tmp_path / "data") == want


@pytest.mark.parametrize("cpus, parent_cpus", [({0, 1}, [{0}, {0, 1}]), ({0, 1, 2, 3}, [{0, 1, 2, 3}] * 2)])
def test_split_write_pins_the_two_sides_only_on_two_cpus(tmp_path, monkeypatch, forks, cpus, parent_cpus):
    cohort = cohort_to_write()
    want = serial(cohort, tmp_path / "serial")
    pins: list[set[int]] = []  # the parent's; the worker's are made in its own memory
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pins.append(set(cpus)), raising=False)
    results = cut_at(monkeypatch, 3)
    write_cohort(cohort, tmp_path / "data")
    assert results == [True]
    assert len(forks) == 1
    assert pins == parent_cpus
    assert written(tmp_path / "data") == want

