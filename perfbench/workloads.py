"""Workload definitions: one seeded simulated cohort plus the CLI arguments
of every stage run on it.

Sizes are chosen so that one repetition takes a few seconds on a 2-CPU
machine and several repetitions fit in one benchmark run. The reason for
each workload is its `why` in BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

COMPARE_ARGS = ("--factor", "unit", "--within")
LABEL = "neg_affect"
PREDICT_SEED = "7"
STAGES = ("simulate", "extract", "compare", "predict")
SMALL_GRID = ("--folds", "2", "--n-trees", "25", "--max-depth", "4")


@dataclass(frozen=True)
class Workload:
    name: str
    knobs: dict[str, float]  # CohortSpec knobs; the seed is added per run
    extract_args: tuple[str, ...]
    predict_args: tuple[str, ...]
    # The ML workload: simulate and extract run once per invocation, before
    # the repetitions, which time compare and predict; its gate also checks
    # that predict recovers the planted label coupling.
    ml: bool = False
    # inter-session and ML gates; they need the full cohort size
    gates: bool = True

    def spec_text(self, seed: int) -> str:
        lines = [f"{key} = {value}" for key, value in self.knobs.items()]
        return "\n".join([*lines, f"seed = {seed}"]) + "\n"

    def spec_hash(self, seed: int) -> str:
        return hashlib.sha256(self.spec_text(seed).encode()).hexdigest()

    @property
    def frames_per_recording(self) -> int:
        return int(self.knobs["frames_per_recording"])

    def stages(self, work: Path) -> dict[str, list[str]]:
        """`shifttalk` argv of each stage, in the order every commit runs them."""
        data, out = work / "data", work / "out"
        features = str(out / "features.csv")
        return {
            "simulate": ["simulate", str(work / "cohort.spec"), "--out", str(data)],
            "extract": ["extract", "--input", str(data), "--out", str(out), *self.extract_args],
            "compare": ["compare", features, *COMPARE_ARGS, "--out", str(out / "comparisons.csv")],
            "predict": ["predict", features, "--label", LABEL, "--seed", PREDICT_SEED,
                        *self.predict_args, "--out", str(out / "report.json")],
        }

    def verify_argv(self, work: Path) -> list[str]:
        out = work / "out"
        return ["verify", "--truth", str(work / "data" / "ground_truth.json"),
                "--features", str(out / "features.csv"),
                "--comparisons", str(out / "comparisons.csv"),
                "--report", str(out / "report.json"),
                "--out", str(work / "verification.json")]

    def shrunk(self) -> "Workload":
        """A tiny variant for the smoke test: same stages and hooks, no
        statistical gates."""
        knobs = {**self.knobs, "n_per_cell": 2, "frames_per_recording": 24}
        extract = list(self.extract_args)
        extract[extract.index("--min-frames") + 1] = "6"
        predict = ("--folds", "2", "--n-trees", "5", "--max-depth", "3")
        return replace(self, knobs=knobs, extract_args=tuple(extract), predict_args=predict,
                       gates=False)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            name="frames_heavy",
            # 12 participants x 1 shift: ~1.5 k recordings of 400 frames (~0.6 M frames)
            knobs={"n_per_cell": 3, "n_shifts": 1, "frames_per_recording": 400},
            extract_args=("--min-frames", "100", "--min-days", "1"),
            predict_args=SMALL_GRID,
        ),
        Workload(
            name="recordings_many",
            # 100 participants x 1 shift: ~12 k recordings of 24 frames (~0.3 M frames)
            knobs={"n_per_cell": 25, "n_shifts": 1, "frames_per_recording": 24},
            extract_args=("--min-frames", "6", "--min-days", "1"),
            predict_args=SMALL_GRID,
        ),
        Workload(
            # Not in BENCHMARK.json: its ML gate fails on some seeds (the
            # planted neg-ratio features miss the top 3 because pos-ratio
            # features, scored against the same per-speaker pool, carry the
            # neg_affect signal too), and a listed workload must pass on
            # every seed. It stays runnable with its gate intact.
            name="forest_grid",
            # criterion 7's cohort at 24 frames: 200 participants x 5 shifts,
            # ~126 k recordings; simulate + extract take about a minute
            knobs={
                "n_per_cell": 50, "n_shifts": 5, "frames_per_recording": 24,
                "arousal_between_sd": 0.08, "label_coupling_neg": 16, "label_noise_affect": 1.5,
            },
            extract_args=("--min-frames", "6", "--min-days", "5"),
            predict_args=("--n-trees", "100", "200", "--max-depth", "4", "8", "none",
                          "--min-leaf", "1", "5"),
            ml=True,
        ),
    ]
}
