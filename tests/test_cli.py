from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shifttalk
from shifttalk import reports
from shifttalk.cli import main
from shifttalk.ingest import CANONICAL_FILES, FRAMES_FILE, parse_cohort

SPEC = """\
n_per_cell = 2
n_shifts = 5
seed = 5
frames_per_recording = 24
# strong day/night contrast keeps the comparison test cheap
inter_session_median_day = 6
inter_session_median_night = 9
"""


def write_spec(tmp_path: Path, text: str = SPEC) -> Path:
    path = tmp_path / "cohort.spec"
    path.write_text(text)
    return path


def checksum_dir(root: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir()) if p.is_file()
    }


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """simulate + extract once; several tests read the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    spec = root / "cohort.spec"
    spec.write_text(SPEC)
    data = root / "data"
    out = root / "out"
    assert main(["simulate", str(spec), "--out", str(data)]) == 0
    assert main(["extract", "--input", str(data), "--out", str(out), "--min-frames", "6"]) == 0
    return root, data, out


def test_simulate_writes_seven_files(pipeline_dirs):
    _, data, _ = pipeline_dirs
    assert sorted(p.name for p in data.iterdir()) == sorted([*CANONICAL_FILES, FRAMES_FILE, "ground_truth.json"])


def test_simulate_missing_spec_exits_2(tmp_path):
    assert main(["simulate", str(tmp_path / "nope.spec"), "--out", str(tmp_path / "x")]) == 2


def test_simulate_bad_spec_exits_2(tmp_path):
    spec = write_spec(tmp_path, "unknown_key = 1\n")
    assert main(["simulate", str(spec), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("spec_text, flags", [(SPEC, ["--seed", "-1"]), (SPEC.replace("seed = 5", "seed = -1"), [])],
                         ids=["flag", "spec"])
def test_simulate_negative_seed_exits_2(tmp_path, capsys, spec_text, flags):
    spec = write_spec(tmp_path, spec_text)
    assert main(["simulate", str(spec), "--out", str(tmp_path / "x"), *flags]) == 2
    assert capsys.readouterr().err == "error: seed=-1 must be >= 0\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("line", [
    "inter_session_sd = -1", "rssi_sd = -2", "walk_within_sd = -0.1", "label_noise_affect = -1",
    "inter_session_median_day = nan", "arousal_effect_size = nan", "rssi_mean = inf",
])
def test_simulate_spec_knob_that_no_draw_can_use_exits_2(tmp_path, capsys, line):
    spec = write_spec(tmp_path, SPEC + line + "\n")
    assert main(["simulate", str(spec), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    key, _, value = line.partition(" = ")
    assert err.startswith(f"error: {key}={float(value)} must be ") and err.count("\n") == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("lines, knob", [
    ("occ_icu_ns = -0.1\nocc_icu_pat = 0.91\n", "occ_icu_ns=-0.1"),  # the icu profile still sums to 1
    ("occ_non_icu_outside = 1.12\nocc_non_icu_ns = 0.0\nocc_non_icu_pat = -0.26\n", "occ_non_icu_pat=-0.26"),
    ("occ_icu_pat = 1.5\nocc_icu_ns = -0.5\nocc_icu_lounge_med = 0.0\nocc_icu_outside = 0.0\n",
     "occ_icu_ns=-0.5"),
])
def test_simulate_occupancy_knob_outside_0_1_exits_2(tmp_path, capsys, lines, knob):
    spec = write_spec(tmp_path, SPEC + lines)
    assert main(["simulate", str(spec), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: {knob} outside [0, 1]\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("line, error", [
    ("n_per_cell 2", "{spec}:8: expected key = value"),
    ("n_per_cell = 0", "n_per_cell, n_shifts and frames_per_recording must be >= 1"),
    ("inter_session_median_night = 0.5", "inter-session medians must be >= 1 minute"),
])
def test_simulate_spec_that_breaks_a_rule_exits_2_naming_it(tmp_path, capsys, line, error):
    spec = write_spec(tmp_path, SPEC + line + "\n")  # the line after SPEC's seven
    assert main(["simulate", str(spec), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: {error.format(spec=spec)}\n"
    assert not (tmp_path / "x").exists()


def test_simulate_deterministic_checksums(tmp_path):
    spec = write_spec(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", str(spec), "--out", str(a)]) == 0
    assert main(["simulate", str(spec), "--out", str(b)]) == 0
    assert checksum_dir(a) == checksum_dir(b)


def test_extract_row_count_matches_participants(pipeline_dirs):
    _, _, out = pipeline_dirs
    ids, labels, X, names = reports.read_features_csv(out / "features.csv")
    assert len(ids) == 8  # everyone has 5 shift dates -> passes min_days
    assert X.shape[1] == len(names)


def test_extract_empty_cohort_exits_3(pipeline_dirs, tmp_path):
    _, data, _ = pipeline_dirs
    assert main(["extract", "--input", str(data), "--out", str(tmp_path / "o"),
                 "--min-frames", "6", "--min-days", "9"]) == 3


def test_extract_prints_the_row_counts_of_the_parse_before_any_filter(tmp_path, capsys):
    # the night shifts hold almost no recording, so --min-days 2 drops participants
    spec = write_spec(tmp_path, "n_per_cell = 2\nn_shifts = 2\nseed = 5\nframes_per_recording = 24\n"
                                "inter_session_median_night = 1000\n")
    data, out = tmp_path / "data", tmp_path / "out"
    assert main(["simulate", str(spec), "--out", str(data)]) == 0
    rssi = data / "rssi.csv"
    first = rssi.read_text().splitlines()[1].split(",")
    with rssi.open("a") as fh:
        fh.write(",".join([*first[:-1], "194"]) + "\r\n")  # above RSSI_MAX: clamped, and warned of
    capsys.readouterr()
    assert main(["extract", "--input", str(data), "--out", str(out), "--min-frames", "6", "--min-days", "2"]) == 0
    counts = parse_cohort(data).counts
    printed = capsys.readouterr().out
    assert f"parsed rows: {counts}\nwarnings: {{'rssi_clamped': 1}}\n" in printed
    assert counts["participants"] == 8 > len(reports.read_features_csv(out / "features.csv")[0])


def test_extract_min_frames_below_one_exits_2(pipeline_dirs, tmp_path, capsys):
    _, data, _ = pipeline_dirs
    assert main(["extract", "--input", str(data), "--out", str(tmp_path / "o"),
                 "--min-frames", "0", "--foreground-threshold", "0.99"]) == 2
    assert "--min-frames" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, value", [
    ("--foreground-threshold", "1.5"), ("--foreground-threshold", "-0.1"), ("--min-days", "0"),
    ("--arousal-threshold", "nan"), ("--arousal-threshold", "inf"), ("--arousal-threshold", "-0.1"),
])
def test_extract_bad_flag_exits_2_before_parsing(tmp_path, capsys, flag, value):
    # the input does not exist: the flag must be refused before any file is read
    assert main(["extract", "--input", str(tmp_path / "missing"), "--out", str(tmp_path / "o"),
                 flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ")
    assert "not found" not in err
    assert not (tmp_path / "o").exists()


def test_extract_rerun_identical(pipeline_dirs, tmp_path):
    _, data, out = pipeline_dirs
    again = tmp_path / "again"
    assert main(["extract", "--input", str(data), "--out", str(again), "--min-frames", "6"]) == 0
    assert checksum_dir(again) == checksum_dir(out)


def test_compare_shift_factor(pipeline_dirs, tmp_path):
    _, _, out = pipeline_dirs
    comp = tmp_path / "comparisons.csv"
    assert main(["compare", str(out / "features.csv"), "--factor", "shift", "--out", str(comp)]) == 0
    table = reports.read_comparisons_csv(comp)
    assert set(table.stratum) == {"all"}
    names = table.feature.tolist()
    assert "shift_night" not in names  # the factor itself is excluded
    planted = names.index("inter_session_time_mean")
    assert table.significant[planted]
    assert table.group_a_median[planted] < table.group_b_median[planted]  # day < night


def test_compare_within_shift_strata(pipeline_dirs, tmp_path):
    _, _, out = pipeline_dirs
    comp = tmp_path / "strata.csv"
    assert main(["compare", str(out / "features.csv"), "--factor", "unit",
                 "--within", "--out", str(comp)]) == 0
    table = reports.read_comparisons_csv(comp)
    assert set(table.stratum) == {"day", "night"}


def test_compare_within_requires_unit_factor(pipeline_dirs, tmp_path):
    _, _, out = pipeline_dirs
    assert main(["compare", str(out / "features.csv"), "--factor", "shift",
                 "--within", "--out", str(tmp_path / "x.csv")]) == 2


def test_compare_single_group_exits_4(pipeline_dirs, tmp_path):
    _, _, out = pipeline_dirs
    ids, labels, X, names = reports.read_features_csv(out / "features.csv")
    X[:, names.index("unit_icu")] = 1.0  # everyone icu
    solo = tmp_path / "solo.csv"
    reports.write_features_csv(solo, ids, {k: list(v) for k, v in labels.items()}, X)
    assert main(["compare", str(solo), "--factor", "unit", "--out", str(tmp_path / "c.csv")]) == 4


@pytest.mark.parametrize("alpha", ["2", "1", "0", "-1", "nan"])
def test_compare_alpha_outside_0_1_exits_2(pipeline_dirs, tmp_path, capsys, alpha):
    _, _, out = pipeline_dirs
    comp = tmp_path / "c.csv"
    assert main(["compare", str(out / "features.csv"), "--factor", "unit", "--alpha", alpha,
                 "--out", str(comp)]) == 2
    assert capsys.readouterr().err.startswith("error: --alpha: alpha must be in (0, 1), got ")
    assert not comp.exists()


def test_compare_exits_2_on_a_csv_field_over_the_csv_modules_limit(pipeline_dirs, tmp_path, capsys):
    _, _, out = pipeline_dirs
    lines = (out / "features.csv").read_bytes().splitlines(keepends=True)
    lines[2] = b"p" * 200_000 + lines[2]
    big = tmp_path / "features.csv"
    big.write_bytes(b"".join(lines))
    assert main(["compare", str(big), "--factor", "unit", "--out", str(tmp_path / "c.csv")]) == 2
    assert capsys.readouterr().err == "error: features.csv:3: field larger than field limit (131072)\n"


def test_predict_writes_report(pipeline_dirs, tmp_path):
    _, _, out = pipeline_dirs
    report_path = tmp_path / "report.json"
    assert main(["predict", str(out / "features.csv"), "--label", "neg_affect",
                 "--seed", "3", "--folds", "2", "--n-trees", "20", "--max-depth", "4",
                 "--out", str(report_path)]) == 0
    report = reports.read_report_json(report_path)
    assert report["label"] == "neg_affect"
    assert 0.0 <= report["cv_micro_f1"] <= 1.0
    assert len(report["importances"]) == 40
    weights = [imp["weight"] for imp in report["importances"]]
    assert weights == sorted(weights, reverse=True)


def test_predict_constant_label_exits_5(pipeline_dirs, tmp_path):
    _, _, out = pipeline_dirs
    ids, labels, X, names = reports.read_features_csv(out / "features.csv")
    labels = {k: list(v) for k, v in labels.items()}
    labels["pos_affect"] = [30.0] * len(ids)
    flat = tmp_path / "flat.csv"
    reports.write_features_csv(flat, ids, labels, X)
    assert main(["predict", str(flat), "--label", "pos_affect",
                 "--out", str(tmp_path / "r.json")]) == 5


@pytest.mark.parametrize("flag, value", [
    ("--folds", "0"), ("--folds", "1"), ("--n-trees", "0"), ("--max-depth", "-1"), ("--min-leaf", "0"),
])
def test_predict_bad_forest_or_cv_value_exits_2(pipeline_dirs, tmp_path, capsys, flag, value):
    _, _, out = pipeline_dirs
    report_path = tmp_path / "report.json"
    assert main(["predict", str(out / "features.csv"), "--label", "neg_affect", "--folds", "2",
                 flag, value, "--out", str(report_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ") and "at least" in err
    assert not report_path.exists()


def test_predict_negative_seed_exits_2(pipeline_dirs, tmp_path, capsys):
    _, _, out = pipeline_dirs
    report_path = tmp_path / "report.json"
    assert main(["predict", str(out / "features.csv"), "--label", "neg_affect", "--seed", "-3",
                 "--out", str(report_path)]) == 2
    assert capsys.readouterr().err == "error: --seed: seed must be a non-negative integer, got -3\n"
    assert not report_path.exists()


def test_predict_max_depth_that_is_no_integer_exits_2_with_usage(pipeline_dirs, tmp_path, capsys):
    _, _, out = pipeline_dirs
    with pytest.raises(SystemExit) as exited:
        main(["predict", str(out / "features.csv"), "--label", "neg_affect", "--max-depth", "4", "abc",
              "--out", str(tmp_path / "r.json")])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: shifttalk predict ")
    assert "argument --max-depth: invalid depth value: 'abc'" in err


def test_predict_deterministic(pipeline_dirs, tmp_path):
    _, _, out = pipeline_dirs
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["predict", str(out / "features.csv"), "--label", "pos_affect",
            "--seed", "11", "--folds", "2", "--n-trees", "10", "--max-depth", "4"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_no_stage_imports_numpy_ma(tmp_path):
    """np.median and np.unique without index or count outputs import
    numpy.ma (13 ms, about 2 MB); model.median and model.distinct stand in
    for them, so that no stage pays for it."""
    spec, data, out = write_spec(tmp_path), tmp_path / "data", tmp_path / "out"
    features = str(out / "features.csv")
    stages = [["simulate", str(spec), "--out", str(data)],
              ["extract", "--input", str(data), "--out", str(out), "--min-frames", "6"],
              ["compare", features, "--factor", "unit", "--within", "--out", str(out / "comparisons.csv")],
              ["predict", features, "--label", "neg_affect", "--folds", "2", "--n-trees", "5", "--max-depth", "3",
               "--out", str(out / "report.json")],
              ["verify", "--truth", str(data / "ground_truth.json"), "--features", features,
               "--comparisons", str(out / "comparisons.csv"), "--report", str(out / "report.json")],
              ["report", str(out)]]
    script = ("import sys\n"
              "from shifttalk.cli import main\n"
              f"for argv in {stages!r}:\n"
              "    assert main(argv) == 0, argv\n"
              "    print(argv[0], 'numpy.ma' in sys.modules)\n")
    src = str(Path(shifttalk.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert [line.split()[-2:] for line in run.stdout.splitlines() if line.endswith(("True", "False"))] == [
        [stage, "False"] for stage in ("simulate", "extract", "compare", "predict", "verify", "report")]


def peak_rss(argv: list[str]) -> int:
    """The peak resident bytes (ru_maxrss) of the CLI run on argv in a
    fresh process. A process started by another starts with its starter's
    resident size as ru_maxrss, so a small launcher, not this test process,
    starts it."""
    script = ("import resource, sys\n"
              "from shifttalk.cli import main\n"
              "assert main(sys.argv[1:]) == 0\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")  # KiB
    launch = [sys.executable, "-c", "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"]
    src = str(Path(shifttalk.__file__).parents[1])
    run = subprocess.run([*launch, sys.executable, "-c", script, *argv], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    return int(run.stdout.split()[-1]) * 1024


def test_simulate_and_extract_peaks_grow_by_less_than_half_the_added_frame_bytes(tmp_path):
    """Four times the frames per recording: each stage's peak RSS, in a
    fresh process, grows by less than half of what frames.bin grows by, as
    simulate writes each shift's frames as it draws them, and extract walks
    the read-only map of frames.bin a window or a speaker at a time. A stage
    that held every frame would grow by at least the added bytes."""
    peaks, frame_bytes = {}, {}
    for n in (200, 800):
        # the frames_heavy benchmark workload's shape: 12 speakers, ~1.5 k recordings
        root = tmp_path / str(n)
        root.mkdir()
        spec = write_spec(root, f"n_per_cell = 3\nn_shifts = 1\nframes_per_recording = {n}\nseed = 11\n")
        data, out = root / "data", root / "out"
        peaks["simulate", n] = peak_rss(["simulate", str(spec), "--out", str(data)])
        peaks["extract", n] = peak_rss(["extract", "--input", str(data), "--out", str(out), "--min-frames", "100",
                                        "--min-days", "1"])
        frame_bytes[n] = (data / "frames.bin").stat().st_size
    added = frame_bytes[800] - frame_bytes[200]
    for stage in ("simulate", "extract"):
        assert peaks[stage, 800] - peaks[stage, 200] < added / 2, (stage, peaks, added)


def test_extract_peak_with_a_dropped_participant_grows_by_less_than_half_the_added_frame_bytes(tmp_path):
    """--min-days 2 drops two speakers of one recording each. The filters
    return masks and the rating pass reads the kept recordings' frames in
    place, in the map of frames.bin, a speaker at a time, so extract's peak
    grows as it does when nothing drops. A copy of the kept frames would
    grow it by about the added bytes."""
    peaks, frame_bytes = {}, {}
    for n in (200, 800):
        root = tmp_path / str(n)
        root.mkdir()
        spec = write_spec(root, f"n_per_cell = 3\nn_shifts = 2\nframes_per_recording = {n}\nseed = 11\n"
                                "inter_session_median_night = 1000\n")
        data, out = root / "data", root / "out"
        assert main(["simulate", str(spec), "--out", str(data)]) == 0
        peaks[n] = peak_rss(["extract", "--input", str(data), "--out", str(out), "--min-frames", "100",
                             "--min-days", "2"])
        frame_bytes[n] = (data / "frames.bin").stat().st_size
        assert len((out / "features.csv").read_text().splitlines()) == 1 + 10  # 2 of 12 participants dropped
    added = frame_bytes[800] - frame_bytes[200]
    assert peaks[800] - peaks[200] < added / 2, (peaks, added)


@pytest.mark.parametrize("command, blocked", [
    ("simulate", "file"), ("extract", "file"), ("compare", "dir"), ("predict", "file/x.json"),
    ("verify", "file/x.json"),
])
def test_output_path_blocked_by_a_file_or_directory_exits_2(pipeline_dirs, tmp_path, capsys, command, blocked):
    _, data, out = pipeline_dirs
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    target, features = str(tmp_path / blocked), str(out / "features.csv")
    argv = {
        "simulate": ["simulate", str(write_spec(tmp_path)), "--out", target],
        "extract": ["extract", "--input", str(data), "--out", target, "--min-frames", "6"],
        "compare": ["compare", features, "--factor", "unit", "--out", target],
        "predict": ["predict", features, "--label", "neg_affect", "--folds", "2", "--n-trees", "5", "--out", target],
        "verify": ["verify", "--truth", str(data / "ground_truth.json"), "--features", features, "--out", target],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.endswith(f"{target!r}\n") and err.count("\n") == 1, err


def test_extract_external_scores_ignores_an_unlabelled_recordings_label_bytes(pipeline_dirs, tmp_path):
    """Half the recordings labelled, the same labels in both directories;
    the other half's label bytes 0 in one and 1 in the other."""
    _, data, _ = pipeline_dirs
    heads = (data / "recordings.jsonl").read_bytes().splitlines(keepends=True)
    labelled = np.arange(len(heads)) % 2 == 0
    heads = [head.replace(b"}", b',"labelled":true}') if flag else head for head, flag in zip(heads, labelled)]
    of_labelled = np.repeat(labelled, [json.loads(head)["n_frames"] for head in heads])
    with (data / FRAMES_FILE).open("rb") as fh:
        arrays = [np.load(fh) for _ in range(5)]
    outs = []
    for byte in (False, True):
        root = tmp_path / str(int(byte))
        shutil.copytree(data, root / "data")
        (root / "data" / "recordings.jsonl").write_bytes(b"".join(heads))
        arrays[4] = np.where(of_labelled, arrays[3] < 0.7, byte)  # labels that disagree with the threshold
        with (root / "data" / FRAMES_FILE).open("wb") as fh:
            for array in arrays:
                np.save(fh, array)
        assert main(["extract", "--input", str(root / "data"), "--out", str(root / "out"), "--min-frames", "6",
                     "--external-scores"]) == 0
        outs.append(checksum_dir(root / "out"))
    assert outs[0] == outs[1]


def test_verify_subcommand(pipeline_dirs, tmp_path):
    _, data, out = pipeline_dirs
    verification = tmp_path / "verification.json"
    assert main(["verify", "--truth", str(data / "ground_truth.json"),
                 "--features", str(out / "features.csv"), "--out", str(verification)]) == 0
    report = json.loads(verification.read_text())
    assert report["participants"] == 8
    assert report["groups"]["day"]["inter_session_rel_error"] < 0.15


@pytest.mark.parametrize("text, error", [
    ("not json\n", "ground_truth.json:1: invalid JSON: Expecting value"),
    ('{\n  "seed": 0,\n  oops\n}\n',
     "ground_truth.json:3: invalid JSON: Expecting property name enclosed in double quotes"),
    ('{\n  "seed": 0,\n  "knobs": {},\n  "informative_features": {}\n}\n',
     "ground_truth.json:1: missing key 'participants'"),
    ('{"seed": 0, "knobs": {}, "participants": 5, "informative_features": {}}\n',
     "ground_truth.json:1: participants is not an object"),
])
def test_verify_truth_that_is_no_ground_truth_exits_2(pipeline_dirs, tmp_path, capsys, text, error):
    _, _, out = pipeline_dirs
    truth = tmp_path / "ground_truth.json"
    truth.write_text(text)
    assert main(["verify", "--truth", str(truth), "--features", str(out / "features.csv")]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("entry", ["5", "[]", '{"participant_id": "p001"}'])
def test_verify_truth_with_a_participant_entry_that_is_no_truth_object_exits_2(pipeline_dirs, tmp_path, capsys, entry):
    _, data, out = pipeline_dirs
    payload = json.loads((data / "ground_truth.json").read_text())
    first = sorted(payload["participants"])[0]
    payload["participants"][first] = json.loads(entry)
    truth = tmp_path / "ground_truth.json"
    truth.write_text(json.dumps(payload))
    assert main(["verify", "--truth", str(truth), "--features", str(out / "features.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: ground_truth.json:1: participant {first!r} is not an object with the keys ")
    assert err.count("\n") == 1


BROKEN_REPORT = '{\n  "label": "pos_affect",\n  "cv_micro_f1": 0.5,,\n}\n'
BROKEN_REPORT_ERROR = "error: report.json:3: invalid JSON: Expecting property name enclosed in double quotes\n"


def test_verify_report_that_does_not_parse_exits_2(pipeline_dirs, tmp_path, capsys):
    _, data, out = pipeline_dirs
    (tmp_path / "report.json").write_text(BROKEN_REPORT)
    assert main(["verify", "--truth", str(data / "ground_truth.json"), "--features", str(out / "features.csv"),
                 "--report", str(tmp_path / "report.json")]) == 2
    assert capsys.readouterr().err == BROKEN_REPORT_ERROR


NOT_UTF8 = b'{\n  "label": "pos_affect",\r\n  "cv_micro_f1": \xff0.5\n}\n'  # the byte 0xff on line 3
NOT_UTF8_ERROR = "error: {}:3: not UTF-8 text\n"


@pytest.mark.parametrize("where", ["report", "verify --truth", "verify --report"])
def test_json_file_that_is_not_utf8_exits_2_at_its_line(pipeline_dirs, tmp_path, capsys, where):
    _, data, out = pipeline_dirs
    name = "ground_truth.json" if where == "verify --truth" else "report.json"
    (tmp_path / name).write_bytes(NOT_UTF8)
    truth = tmp_path / name if where == "verify --truth" else data / "ground_truth.json"
    argv = {"report": ["report", str(tmp_path)],
            "verify --truth": ["verify", "--truth", str(truth), "--features", str(out / "features.csv")],
            "verify --report": ["verify", "--truth", str(truth), "--features", str(out / "features.csv"),
                                "--report", str(tmp_path / name)]}[where]
    assert main(argv) == 2
    assert capsys.readouterr().err == NOT_UTF8_ERROR.format(name)


def test_report_json_that_starts_with_a_byte_that_is_not_utf8_exits_2(tmp_path, capsys):
    (tmp_path / "report.json").write_bytes(b"\xff" + BROKEN_REPORT.encode())
    assert main(["report", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: report.json:1: not UTF-8 text\n"


def test_report_subcommand(pipeline_dirs, capsys):
    _, _, out = pipeline_dirs
    assert main(["report", str(out)]) == 0
    text = capsys.readouterr().out
    assert "sessions:" in text
    assert "features: 8 participants" in text


def test_report_empty_dir_exits_2(tmp_path):
    assert main(["report", str(tmp_path)]) == 2


def test_report_on_a_report_json_that_does_not_parse_exits_2(tmp_path, capsys):
    (tmp_path / "report.json").write_text(BROKEN_REPORT)
    assert main(["report", str(tmp_path)]) == 2
    assert capsys.readouterr().err == BROKEN_REPORT_ERROR


def test_all_extract_artifacts_reparse(pipeline_dirs):
    _, _, out = pipeline_dirs
    assert reports.read_sessions_csv(out / "sessions.csv")
    assert reports.read_arousal_csv(out / "arousal.csv")
    assert reports.read_blocks_csv(out / "blocks.csv")
    ids, _, _, _ = reports.read_features_csv(out / "features.csv")
    assert ids
