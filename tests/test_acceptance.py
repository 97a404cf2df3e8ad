"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with its elapsed time.

Criterion 5's exact-vs-normal tolerance is asserted exactly as stated and
is a known red: the 0.02 bound is mathematically unattainable for the
continuity-corrected normal approximation at the smallest sample sizes
(the exact null distribution of U has probability atoms of mass ~0.1 when
one group has only 2 members, so no continuous approximation can track the
two-sided p that closely). test_stats.py pins the true deviation surface.
"""

from __future__ import annotations

import hashlib
import math
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from shifttalk import reports
from shifttalk.arousal import fusion_weights, percentile_score
from shifttalk.cli import main
from shifttalk.ingest import CANONICAL_FILES, FRAMES_FILE, parse_cohort
from shifttalk.locate import empty_timeline
from shifttalk.model import SHIFT_MINUTES, RecordingSegment
from shifttalk.sessions import build_sessions, gt1min_session_ratio, inter_session_times
from shifttalk.simulate import GroundTruth
from shifttalk.stats import mann_whitney_u

from conftest import D0, frames, recording


class timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def report_line(criterion: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {status} {criterion} ({elapsed:.2f}s) {detail}")


# --- criterion 1: worked session example ---


def test_criterion_1_session_worked_example():
    with timer() as t:
        recs = [recording("p1", minute=m) for m in (0, 1, 4)]
        sessions = build_sessions(recs, empty_timeline("p1", D0))
        ok = (
            [s.minute_indices for s in sessions] == [[0, 1], [4]]
            and [s.duration_min for s in sessions] == [2, 1]
            and inter_session_times(sessions) == [2]
            and gt1min_session_ratio(sessions) == 0.5
        )
    report_line("1 session worked example", ok and t.elapsed < 1.0, t.elapsed)
    assert ok
    assert t.elapsed < 1.0


# --- criterion 2: session grouping vs brute-force oracle ---


def oracle_runs(minutes: list[int]) -> list[list[int]]:
    minutes = sorted(set(minutes))
    runs: list[list[int]] = []
    for m in minutes:
        if runs and m - runs[-1][-1] < 2:
            runs[-1].append(m)
        else:
            runs.append([m])
    return runs


def test_criterion_2_session_oracle_equivalence():
    rng = np.random.default_rng(20)
    with timer() as t:
        # grouping reads only minute indices, so every recording shares one
        # frame block instead of building and validating ~360k of them
        block = frames(5)
        for _ in range(1000):
            size = int(rng.integers(0, SHIFT_MINUTES + 1))
            minutes = rng.permutation(SHIFT_MINUTES)[:size].tolist()
            recs = [RecordingSegment("p1", D0, m, block, False) for m in minutes]
            got = [s.minute_indices for s in build_sessions(recs, empty_timeline("p1", D0))]
            assert got == oracle_runs(minutes)
    report_line("2 session oracle equivalence (1000 sets)", t.elapsed < 5.0, t.elapsed)
    assert t.elapsed < 5.0


# --- criterion 3: percentile score oracle ---


def brute_force_score(x: float, pool: np.ndarray) -> float:
    below = int(np.sum(pool < x))
    equal = int(np.sum(pool == x))
    return 2.0 * ((below + 0.5 * equal) / len(pool)) - 1.0


def test_criterion_3_percentile_score_oracle():
    rng = np.random.default_rng(21)
    with timer() as t:
        for _ in range(10_000):
            n = int(rng.integers(1, 60))
            pool = np.sort(np.round(rng.normal(0, 1, n), 2))  # coarse grid forces ties
            x = float(np.round(rng.normal(0, 1), 2))
            got = percentile_score(x, pool)
            assert abs(got - brute_force_score(x, pool)) <= 1e-12
            # extremes are exactly +-1
            assert percentile_score(float(pool[-1]) + 1.0, pool) == 1.0
            assert percentile_score(float(pool[0]) - 1.0, pool) == -1.0
            # translation invariance of the score
            c = float(rng.uniform(-5, 5))
            assert abs(percentile_score(x + c, pool + c) - got) <= 1e-12
    report_line("3 percentile-score oracle (10000 cases)", t.elapsed < 60.0, t.elapsed)


# --- criterion 4: fusion weight contract ---


def test_criterion_4_fusion_weight_contract():
    rng = np.random.default_rng(22)
    with timer() as t:
        for _ in range(500):
            n = int(rng.integers(2, 30))
            scores = [tuple(rng.uniform(-1, 1, 3)) for _ in range(n)]
            w = fusion_weights(scores)
            assert math.sqrt(sum(v * v for v in w.w)) == pytest.approx(1.0, abs=1e-9)
        # constant-feature fallback engages without NaN
        flat = [(0.3, float(v), float(v)) for v in np.linspace(-0.5, 0.5, 7)]
        w = fusion_weights(flat)
        assert w.r[0] == 0.0
        assert not any(math.isnan(v) for v in w.w)
        assert math.sqrt(sum(v * v for v in w.w)) == pytest.approx(1.0, abs=1e-9)
        all_flat = [(0.1, 0.2, 0.3)] * 5
        w = fusion_weights(all_flat)
        assert w.fallback and not any(math.isnan(v) for v in w.w)
    report_line("4 fusion weight contract", True, t.elapsed)


# --- criterion 5: Mann-Whitney ---


def test_criterion_5_u_identity_and_null_calibration():
    rng = np.random.default_rng(23)
    with timer() as t:
        for _ in range(200):
            a = rng.normal(size=int(rng.integers(2, 25)))
            b = rng.normal(size=int(rng.integers(2, 25)))
            u_ab = mann_whitney_u(a, b).u_statistic
            u_ba = mann_whitney_u(b, a).u_statistic
            assert u_ab + u_ba == len(a) * len(b)
        flagged = 0
        trials = 2000
        for _ in range(trials):
            a = rng.normal(size=20)
            b = rng.normal(size=20)
            if mann_whitney_u(a, b).p_value < 0.05:
                flagged += 1
        rate = flagged / trials
        ok = 0.03 <= rate <= 0.07
    report_line("5 MWU identity + null calibration", ok and t.elapsed < 60.0, t.elapsed,
                f"null flag rate {rate:.3f}")
    assert ok
    assert t.elapsed < 60.0


def test_criterion_5_normal_approx_within_002_of_exact():
    """Stated tolerance: |p_exact - p_normal| <= 0.02 for all untied samples
    with n1, n2 in [2, 6]. KNOWN RED: the bound is unattainable at the small
    end (worst cases printed below), and the bound is at fault, not the
    program. test_stats.py pins both paths to scipy.stats.mannwhitneyu
    (method="exact", and method="asymptotic" with use_continuity=True)
    within 1e-12 on every configuration enumerated here. At (2, 2) the exact
    two-sided p-values are the atoms 1/3, 2/3 and 1, and U = 0 gets 0.2453
    from the normal approximation against an exact 1/3. The gap does not
    close while one group stays at 2: it is still 0.036 at (2, 12). The
    stats unit tests also pin the true deviation surface.
    """
    violations: list[tuple] = []
    with timer() as t:
        for n1 in range(2, 7):
            for n2 in range(2, 7):
                seen: set[float] = set()
                for subset in combinations(range(n1 + n2), n1):
                    a = np.array([i + 1.0 for i in subset])
                    b = np.array([i + 1.0 for i in range(n1 + n2) if i not in subset])
                    u = mann_whitney_u(a, b).u_statistic
                    if u in seen:
                        continue
                    seen.add(u)
                    exact = mann_whitney_u(a, b, method="exact").p_value
                    approx = mann_whitney_u(a, b, method="normal").p_value
                    if abs(exact - approx) > 0.02:
                        violations.append((n1, n2, u, round(exact, 4), round(approx, 4)))
    ok = not violations
    report_line("5 MWU normal-vs-exact <= 0.02 (stated tolerance)", ok, t.elapsed,
                f"{len(violations)} violating (n1,n2,u) configs" if violations else "")
    worst = sorted(violations, key=lambda v: abs(v[3] - v[4]), reverse=True)[:8]
    assert ok, (
        "continuity-corrected normal approximation cannot reach the stated 0.02 "
        f"tolerance at small sizes; worst (n1, n2, u, exact, approx): {worst}"
    )


# --- criteria 6-9: end-to-end on simulated cohorts ---

RECOVERY_SPEC = """\
n_per_cell = 25
n_shifts = 5
seed = 61
frames_per_recording = 80
inter_session_median_day = 6
inter_session_median_night = 9
neg_arousal_day = 0.26
neg_arousal_night = 0.30
"""

ML_SPEC = """\
n_per_cell = 50
n_shifts = 5
seed = 71
frames_per_recording = 48
arousal_between_sd = 0.08
label_coupling_neg = 16
label_noise_affect = 1.5
"""

SMALL_SPEC = """\
n_per_cell = 2
n_shifts = 5
seed = 81
frames_per_recording = 24
"""


def run_pipeline(tmp: Path, spec_text: str, min_frames: int) -> tuple[Path, Path]:
    spec = tmp / "cohort.spec"
    spec.write_text(spec_text)
    data = tmp / "data"
    out = tmp / "out"
    assert main(["simulate", str(spec), "--out", str(data)]) == 0
    assert main(["extract", "--input", str(data), "--out", str(out),
                 "--min-frames", str(min_frames)]) == 0
    return data, out


def test_criterion_6_directional_recovery(tmp_path):
    with timer() as t:
        data, out = run_pipeline(tmp_path, RECOVERY_SPEC, min_frames=20)
        comp_path = tmp_path / "comparisons.csv"
        assert main(["compare", str(out / "features.csv"), "--factor", "shift",
                     "--out", str(comp_path)]) == 0
        table = reports.read_comparisons_csv(comp_path)
        row = table.feature.tolist().index("inter_session_time_mean")
        inter = {name: getattr(table, name)[row] for name in table.columns()}
        assert inter["significant"] and inter["p"] < 0.05
        assert inter["group_a_median"] < inter["group_b_median"]  # day < night

        ids, _, X, names = reports.read_features_csv(out / "features.csv")
        night = X[:, names.index("shift_night")] == 1.0
        col = {n: i for i, n in enumerate(names)}
        day_inter = float(np.median(X[~night, col["inter_session_time_mean"]]))
        night_inter = float(np.median(X[night, col["inter_session_time_mean"]]))
        day_neg = float(np.median(X[~night, col["neg_ratio_all_mean"]]))
        night_neg = float(np.median(X[night, col["neg_ratio_all_mean"]]))
        assert abs(day_inter - 6.0) / 6.0 <= 0.15
        assert abs(night_inter - 9.0) / 9.0 <= 0.15
        assert abs(day_neg - 0.26) / 0.26 <= 0.15
        assert abs(night_neg - 0.30) / 0.30 <= 0.15
    detail = (f"inter {day_inter:.2f}/{night_inter:.2f} (knobs 6/9), "
              f"neg ratio {day_neg:.3f}/{night_neg:.3f} (knobs .26/.30), p={inter['p']:.2g}")
    report_line("6 directional recovery", t.elapsed < 60.0, t.elapsed, detail)
    assert t.elapsed < 60.0


@pytest.mark.slow
def test_criterion_7_ml_recovers_planted_coupling(tmp_path):
    with timer() as t:
        data, out = run_pipeline(tmp_path, ML_SPEC, min_frames=12)
        truth = GroundTruth.read(data / "ground_truth.json")
        planted = set(truth.informative_features["neg_affect"])

        report_path = tmp_path / "report.json"
        assert main(["predict", str(out / "features.csv"), "--label", "neg_affect",
                     "--seed", "7", "--n-trees", "100", "200", "--max-depth", "4", "8", "none",
                     "--min-leaf", "1", "5", "--out", str(report_path)]) == 0
        ml = reports.read_report_json(report_path)
        top3 = [imp["feature"] for imp in ml["importances"][:3]]
        assert set(top3) & planted, f"top-3 {top3} misses planted {sorted(planted)}"
        assert ml["cv_micro_f1"] >= 0.70

        # label-shuffled null: micro-F1 stays near chance for every seed
        ids, labels, X, names = reports.read_features_csv(out / "features.csv")
        shuffled_scores = []
        for seed in range(10):
            perm = np.random.default_rng(1000 + seed).permutation(len(ids))
            labels_shuffled = dict(labels)
            labels_shuffled["neg_affect"] = labels["neg_affect"][perm]
            shuffled_path = tmp_path / f"shuffled_{seed}.csv"
            reports.write_features_csv(shuffled_path, ids,
                                       {k: list(v) for k, v in labels_shuffled.items()}, X)
            out_path = tmp_path / f"shuffled_{seed}.json"
            assert main(["predict", str(shuffled_path), "--label", "neg_affect",
                         "--seed", str(seed), "--n-trees", "101", "--max-depth", "4",
                         "--min-leaf", "5", "--out", str(out_path)]) == 0
            shuffled_scores.append(reports.read_report_json(out_path)["cv_micro_f1"])
        assert all(0.35 <= s <= 0.65 for s in shuffled_scores), shuffled_scores
    detail = (f"micro-F1 {ml['cv_micro_f1']:.3f}, top-3 {top3}, "
              f"shuffled range [{min(shuffled_scores):.2f}, {max(shuffled_scores):.2f}]")
    report_line("7 ML planted-coupling recovery", t.elapsed < 120.0, t.elapsed, detail)
    assert t.elapsed < 120.0


def checksum_tree(root: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_criterion_8_byte_determinism(tmp_path):
    with timer() as t:
        runs = []
        for tag in ("a", "b"):
            base = tmp_path / tag
            base.mkdir()
            data, out = run_pipeline(base, SMALL_SPEC, min_frames=6)
            assert main(["predict", str(out / "features.csv"), "--label", "neg_affect",
                         "--seed", "5", "--folds", "2", "--n-trees", "25", "--max-depth", "4",
                         "--out", str(out / "report.json")]) == 0
            runs.append(checksum_tree(base))
        # spec file + all simulated inputs + all pipeline outputs, byte for byte
        assert runs[0] == runs[1]
    report_line("8 byte determinism (simulate+extract+predict twice)", True, t.elapsed,
                f"{len(runs[0])} files compared")


def test_criterion_9_round_trip_all_artifacts(tmp_path):
    with timer() as t:
        data, out = run_pipeline(tmp_path, SMALL_SPEC, min_frames=6)
        comp_path = out / "comparisons.csv"
        assert main(["compare", str(out / "features.csv"), "--factor", "shift",
                     "--out", str(comp_path)]) == 0
        assert main(["predict", str(out / "features.csv"), "--label", "pos_affect",
                     "--seed", "1", "--folds", "2", "--n-trees", "25", "--max-depth", "4",
                     "--out", str(out / "report.json")]) == 0

        # canonical inputs re-parse through the strict ingest readers
        cohort = parse_cohort(data)
        assert cohort.counts["participants"] == 8
        # and writing them back reproduces the generator's bytes
        rewritten = tmp_path / "rewritten"
        from shifttalk.ingest import write_cohort

        write_cohort(cohort, rewritten)
        for name in CANONICAL_FILES + (FRAMES_FILE,):
            assert (rewritten / name).read_bytes() == (data / name).read_bytes(), name

        # every analysis artifact re-parses through its paired reader
        assert reports.read_sessions_csv(out / "sessions.csv")
        assert reports.read_arousal_csv(out / "arousal.csv")
        assert reports.read_blocks_csv(out / "blocks.csv")
        ids, labels, X, names = reports.read_features_csv(out / "features.csv")
        assert len(ids) == 8 and not np.any(np.isnan(X))
        assert reports.read_comparisons_csv(comp_path)
        assert reports.read_report_json(out / "report.json")["label"] == "pos_affect"
        GroundTruth.read(data / "ground_truth.json")
        # the report subcommand consumes the whole directory without error
        assert main(["report", str(out)]) == 0
    report_line("9 round-trip of every artifact", True, t.elapsed)


# --- golden digests: simulate -> extract -> compare -> predict on SMALL_SPEC ---

# sha256 of every file the four stages write. A change that alters an output
# on purpose updates these digests and says so.
GOLDEN_DIGESTS = {
    "data/frames.bin": "1905f049b1c17ffb2714d6fa1d68a1d88f58dd4ea7d9e5a96f7cdbf5af4f2a06",
    "data/ground_truth.json": "50c60828ced67027800f12d01a47a0feeef78fdfc58a7f003a41d919144d7fea",
    "data/hubs.csv": "20cebae057ec41e24f248edb911d44b54fc8b71abf6e8071e5160779942ad2ba",
    "data/participants.csv": "0daa71cca36b73eddafbd4c09b97051697847dc4a4d8e35adfd13689e12cfeca",
    "data/physiology.csv": "97fa8040395ddcbdf3674083ad1b27e29e5d61d85bc1658c4b5347d728f66ddb",
    "data/recordings.jsonl": "a18876afa6acd0f6d9c7e3741ab23329c87a7c962218c28ec56971eb9cbf3d1e",
    "data/rssi.csv": "994359708d135d5bd52025555a833299e6239f89ffd31824aaa0113617dadde7",
    "out/arousal.csv": "85673f6837568c7aafa7a3969a985dddee7765d58b1545d919dd65717a060908",
    "out/blocks.csv": "63177785301ff7b31308c3ca7675612bc1b4a6432af7ab0c85e0c42692839acc",
    "out/comparisons.csv": "244db82824b4e783428f3baa3c14a26b8712b3f17f2e2d6a5eb4dbd0f1cd373b",
    "out/features.csv": "9eb4bd527c98ee3db88635e320f14b2428427ae177762991b1d7d5ac0fc9f35c",
    "out/report.json": "f3ecdccfc4b3295eb49bf8c5b52fd437255f467aabdb97f0891cf36e6745f94c",
    "out/sessions.csv": "15ed4cf647f02786a79823db3712e5f84957da26c79fead06e7517a32195e1aa",
}


def test_golden_digests_of_every_written_file(tmp_path):
    data, out = run_pipeline(tmp_path, SMALL_SPEC, min_frames=6)
    assert main(["compare", str(out / "features.csv"), "--factor", "shift",
                 "--out", str(out / "comparisons.csv")]) == 0
    assert main(["predict", str(out / "features.csv"), "--label", "neg_affect",
                 "--seed", "5", "--folds", "2", "--n-trees", "25", "--max-depth", "4",
                 "--out", str(out / "report.json")]) == 0
    written = {
        f"{p.parent.name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
        for root in (data, out) for p in sorted(root.iterdir())
    }
    assert written == GOLDEN_DIGESTS


# sha256 of what the CLI prints on SMALL_SPEC, the temporary directory
# written as <tmp>, and of the file that compare --within writes. compare
# runs at alpha 0.5 so that its per-row lines, report's significant rows and
# verify's flagged_features all show.
GOLDEN_STDOUT = {
    "simulate+extract": "f8db4aa42395f03689c81d86d9af1c4f26d6f7c0c5e9aab0c41de00240aa0d24",
    "compare": "6483f4f9027e73a801d3d9c17b70fca7bcd776ba92abdbd49ac9b1a8795adbcd",
    "predict": "74dc1dfa1ebbc08f1549abd47e9cdca7bd29b206255e76e92d5bc6e141f0e751",
    "verify": "9bdf576749fc66a6a7e6ea6f80db08df609c8fb17e70bec8a6c834fd77d296d3",
    "report": "43bcc6fb54d90383d94d73c09591ecd770964d8f95f9e226c78fb6d0c2b4c38d",
    "out/comparisons.csv": "d9313238b82c3d4f7f4eb0f0aa6b1629488ca3ed2a370eb19e2e0833cf64fcce",
}


def test_golden_stdout_of_every_command(tmp_path, capsys):
    data, out = run_pipeline(tmp_path, SMALL_SPEC, min_frames=6)
    features, comparisons, report = str(out / "features.csv"), str(out / "comparisons.csv"), str(out / "report.json")
    printed = {"simulate+extract": capsys.readouterr().out}
    for name, argv in (
        ("compare", ["compare", features, "--factor", "unit", "--within", "--alpha", "0.5", "--out", comparisons]),
        ("predict", ["predict", features, "--label", "neg_affect", "--seed", "5", "--folds", "2",
                     "--n-trees", "25", "--max-depth", "4", "--out", report]),
        ("verify", ["verify", "--truth", str(data / "ground_truth.json"), "--features", features,
                    "--comparisons", comparisons, "--report", report]),
        ("report", ["report", str(out)]),
    ):
        assert main(argv) == 0
        printed[name] = capsys.readouterr().out
    digests = {name: hashlib.sha256(text.replace(str(tmp_path), "<tmp>").encode()).hexdigest()
               for name, text in printed.items()}
    digests["out/comparisons.csv"] = hashlib.sha256((out / "comparisons.csv").read_bytes()).hexdigest()
    assert digests == GOLDEN_STDOUT, printed
