from __future__ import annotations

import filecmp
import json
from pathlib import Path

import numpy as np
import pytest

from shifttalk import simulate
from shifttalk.errors import InvalidSpec
from shifttalk.foreground import ForegroundFilter
from shifttalk import ingest
from shifttalk.ingest import CANONICAL_FILES, parse_cohort
from shifttalk.model import FrameBlock
from shifttalk.pipeline import ExtractionConfig, run_extraction
from shifttalk.simulate import (
    GRID_DECIMALS,
    CohortSpec,
    GroundTruth,
    generate,
    load_spec,
    verify_against_truth,
)

from conftest import assert_cohorts_equal

TINY = dict(n_per_cell=1, n_shifts=5, seed=3, frames_per_recording=24)


def spec_text(**overrides) -> str:
    values = dict(TINY)
    values.update(overrides)
    return "\n".join(f"{k} = {v}" for k, v in values.items()) + "\n"


def test_simulated_frames_lie_on_the_grid(tmp_path):
    generate(CohortSpec(**TINY), tmp_path)
    frames = parse_cohort(tmp_path).frames
    for name in FrameBlock.columns()[:4]:
        values = getattr(frames, name)
        values = values[~np.isnan(values)]
        assert len(values) and np.array_equal(np.round(values, GRID_DECIMALS), values), name


def test_load_spec_roundtrip(tmp_path):
    path = tmp_path / "cohort.spec"
    path.write_text(spec_text(inter_session_median_day=7.5) + "# trailing comment\n")
    spec = load_spec(path)
    assert spec.n_per_cell == 1
    assert spec.seed == 3
    assert spec.inter_session_median_day == 7.5


def test_load_spec_unknown_key(tmp_path):
    path = tmp_path / "cohort.spec"
    path.write_text("mystery_knob = 4\n")
    with pytest.raises(InvalidSpec):
        load_spec(path)


def test_load_spec_bad_value(tmp_path):
    path = tmp_path / "cohort.spec"
    path.write_text("n_per_cell = many\n")
    with pytest.raises(InvalidSpec):
        load_spec(path)


def test_invalid_occupancy_profile_rejected():
    with pytest.raises(InvalidSpec):
        CohortSpec(occ_icu_ns=0.9).validate()


def test_invalid_probability_rejected():
    with pytest.raises(InvalidSpec):
        CohortSpec(foreground_fraction=1.5).validate()


def test_generated_directory_parses_cleanly(tmp_path):
    generate(CohortSpec(**TINY), tmp_path)
    for name in CANONICAL_FILES:
        assert (tmp_path / name).is_file()
    cohort = parse_cohort(tmp_path)
    assert cohort.counts["participants"] == 4
    assert cohort.warnings == {}  # generator emits in-range rssi only
    minutes = cohort.recordings.minute_index
    assert min(minutes) >= 0 and max(minutes) < 720


def test_generation_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate(CohortSpec(**TINY), a)
    generate(CohortSpec(**TINY), b)
    for name in list(CANONICAL_FILES) + [ingest.FRAMES_FILE, "ground_truth.json"]:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_generate_returns_the_cohort_that_it_wrote(tmp_path):
    cohort, _ = generate(CohortSpec(**TINY), tmp_path)
    assert_cohorts_equal(cohort, parse_cohort(tmp_path))
    # a map of frames.bin
    assert not any(getattr(cohort.frames, name).flags.writeable for name in FrameBlock.columns()[:4])


def test_interrupted_generate_leaves_the_directory_as_it_was(tmp_path, monkeypatch):
    generate(CohortSpec(**TINY), tmp_path)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    shifts = []

    def interrupted(*args):  # on the third shift with recordings, after two were written
        shifts.append(args)
        if len(shifts) == 3:
            raise KeyboardInterrupt
        return emit_frames(*args)

    emit_frames = simulate._emit_frames
    monkeypatch.setattr(simulate, "_emit_frames", interrupted)
    with pytest.raises(KeyboardInterrupt):
        generate(CohortSpec(**{**TINY, "seed": 4}), tmp_path)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_seed_changes_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate(CohortSpec(**TINY), a)
    generate(CohortSpec(**{**TINY, "seed": 4}), b)
    assert (a / "frames.bin").read_bytes() != (b / "frames.bin").read_bytes()


def test_ground_truth_roundtrip(tmp_path):
    _, truth = generate(CohortSpec(**TINY), tmp_path)
    loaded = GroundTruth.read(tmp_path / "ground_truth.json")
    assert loaded.seed == truth.seed
    assert loaded.participants.keys() == truth.participants.keys()
    assert loaded.knobs == truth.knobs
    assert loaded.informative_features == truth.informative_features


def test_deterministic_gaps_recover_exactly(tmp_path):
    # no gap noise and all sessions one minute long: the extracted
    # inter-session time must equal the knob exactly
    spec = CohortSpec(n_per_cell=1, n_shifts=5, seed=9, frames_per_recording=24,
                      foreground_fraction=1.0,  # every recording stays valid
                      inter_session_sd=0.0, gt1min_ratio_day=0.0, gt1min_ratio_night=0.0,
                      inter_session_median_day=6.0, inter_session_median_night=9.0)
    generate(spec, tmp_path)
    cohort = parse_cohort(tmp_path)
    result = run_extraction(cohort, ExtractionConfig(min_frames=6))
    names = result.feature_names
    col = names.index("inter_session_time_mean")
    gt1 = names.index("gt1min_ratio_all_mean")
    for i, pid in enumerate(result.participant_ids):
        expected = 6.0 if cohort.profiles[pid].shift_type.value == "day" else 9.0
        assert result.matrix[i, col] == pytest.approx(expected, abs=1e-12)
        assert result.matrix[i, gt1] == 0.0


def test_knob_recovery_with_many_shifts(tmp_path):
    # convergence check: 50 shifts per participant brings the extracted
    # medians within 10% of the planted knobs
    spec = CohortSpec(n_per_cell=1, n_shifts=50, seed=11, frames_per_recording=24)
    generate(spec, tmp_path)
    cohort = parse_cohort(tmp_path)
    result = run_extraction(cohort, ExtractionConfig(min_frames=6))
    names = result.feature_names
    X = result.matrix
    day = np.array([cohort.profiles[p].shift_type.value == "day" for p in result.participant_ids])
    inter = X[:, names.index("inter_session_time_mean")]
    gt1 = X[:, names.index("gt1min_ratio_all_mean")]
    assert abs(np.median(inter[day]) - 6.0) / 6.0 < 0.10
    assert abs(np.median(inter[~day]) - 9.0) / 9.0 < 0.10
    assert abs(np.median(gt1[day]) - 0.38) / 0.38 < 0.10
    assert abs(np.median(gt1[~day]) - 0.31) / 0.31 < 0.10


def test_window_deltas_move_the_arousal_ratios_of_their_window(tmp_path):
    """neg_delta_day_end raises the day shifts' negative-arousal share in the
    last four hours, and pos_delta_night_start the night shifts' positive
    share in the first four, against the other end of the same shift."""
    spec = CohortSpec(n_per_cell=2, n_shifts=3, seed=23, frames_per_recording=24,
                      neg_delta_day_end=0.3, pos_delta_night_start=0.3)
    generate(spec, tmp_path)
    cohort = parse_cohort(tmp_path)
    result = run_extraction(cohort, ExtractionConfig(min_frames=6, min_days=1))
    assert len(result.participant_ids) == 8
    column = {name: result.matrix[:, j] for j, name in enumerate(result.feature_names)}
    day = np.array([cohort.profiles[pid].shift_type.value == "day" for pid in result.participant_ids])
    assert (column["neg_ratio_end"] - column["neg_ratio_start"])[day].min() > 0.1
    assert (column["pos_ratio_start"] - column["pos_ratio_end"])[~day].min() > 0.1


def test_verify_against_truth_reports_recovery(tmp_path):
    from shifttalk import reports

    spec = CohortSpec(n_per_cell=2, n_shifts=5, seed=13, frames_per_recording=24)
    _, truth = generate(spec, tmp_path / "data")
    cohort = parse_cohort(tmp_path / "data")
    result = run_extraction(cohort, ExtractionConfig(min_frames=6))
    labels = {
        name: [getattr(cohort.profiles[pid], name) for pid in result.participant_ids]
        for name in ("pos_affect", "neg_affect", "life_satisfaction")
    }
    features_path = tmp_path / "features.csv"
    reports.write_features_csv(features_path, result.participant_ids, labels, result.matrix)
    report = verify_against_truth(features_path, truth)
    assert report["participants"] == 8
    assert report["groups"]["day"]["inter_session_rel_error"] < 0.15
    assert report["groups"]["night"]["inter_session_rel_error"] < 0.15
    assert "units" in report
