from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from shifttalk import reports
from shifttalk.cli import main
from shifttalk.ingest import CANONICAL_FILES

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


def test_simulate_writes_six_files(pipeline_dirs):
    _, data, _ = pipeline_dirs
    for name in list(CANONICAL_FILES) + ["ground_truth.json"]:
        assert (data / name).is_file()


def test_simulate_missing_spec_exits_2(tmp_path):
    assert main(["simulate", str(tmp_path / "nope.spec"), "--out", str(tmp_path / "x")]) == 2


def test_simulate_bad_spec_exits_2(tmp_path):
    spec = write_spec(tmp_path, "unknown_key = 1\n")
    assert main(["simulate", str(spec), "--out", str(tmp_path / "x")]) == 2


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


def test_extract_min_frames_below_one_exits_2(pipeline_dirs, tmp_path, capsys):
    _, data, _ = pipeline_dirs
    assert main(["extract", "--input", str(data), "--out", str(tmp_path / "o"),
                 "--min-frames", "0", "--foreground-threshold", "0.99"]) == 2
    assert "--min-frames" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, value", [
    ("--foreground-threshold", "1.5"), ("--foreground-threshold", "-0.1"), ("--min-days", "0"),
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


def test_predict_deterministic(pipeline_dirs, tmp_path):
    _, _, out = pipeline_dirs
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["predict", str(out / "features.csv"), "--label", "pos_affect",
            "--seed", "11", "--folds", "2", "--n-trees", "10", "--max-depth", "4"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_subcommand(pipeline_dirs, tmp_path):
    _, data, out = pipeline_dirs
    verification = tmp_path / "verification.json"
    assert main(["verify", "--truth", str(data / "ground_truth.json"),
                 "--features", str(out / "features.csv"), "--out", str(verification)]) == 0
    report = json.loads(verification.read_text())
    assert report["participants"] == 8
    assert report["groups"]["day"]["inter_session_rel_error"] < 0.15


def test_report_subcommand(pipeline_dirs, capsys):
    _, _, out = pipeline_dirs
    assert main(["report", str(out)]) == 0
    text = capsys.readouterr().out
    assert "sessions:" in text
    assert "features: 8 participants" in text


def test_report_empty_dir_exits_2(tmp_path):
    assert main(["report", str(tmp_path)]) == 2


def test_all_extract_artifacts_reparse(pipeline_dirs):
    _, _, out = pipeline_dirs
    assert reports.read_sessions_csv(out / "sessions.csv")
    assert reports.read_arousal_csv(out / "arousal.csv")
    assert reports.read_blocks_csv(out / "blocks.csv")
    ids, _, _, _ = reports.read_features_csv(out / "features.csv")
    assert ids
