"""One benchmark child in a fresh process: a repetition or, on forest_grid,
the simulate + extract that its repetitions read.

Runs the given stages through `shifttalk.cli.main` (timed, with
`gc.collect()` before each; `simulate` first writes the workload's spec),
then, untimed: if `predict` ran, runs `verify` and checks the outputs;
hashes every input and output file and writes one result JSON. With
--trace the hooks of `tracing.py` are installed before the first stage and
removed after the last one.

    python3 perfbench/child.py --workload NAME --seed N --dir WORK --stages simulate,extract,... \
        --result PATH [--trace] [--smoke]
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

from shifttalk.cli import main

from workloads import WORKLOADS

MAX_INTER_SESSION_REL_ERROR = 0.15  # acceptance criterion 6
MIN_CV_MICRO_F1 = 0.70  # acceptance criterion 7
CANONICAL_INPUTS = ("participants.csv", "hubs.csv", "rssi.csv", "recordings.jsonl", "physiology.csv")


def run_cli(argv: list[str]) -> int:
    try:
        return main(argv)
    except Exception:  # a crash is a failed operation, not a lost run
        traceback.print_exc()
        return -1


def digest_tree(work: Path) -> tuple[dict[str, str], dict[str, int]]:
    """sha256 of every file under data/ and out/, plus newline counts."""
    digests: dict[str, str] = {}
    lines: dict[str, int] = {}
    for sub in ("data", "out"):
        for path in sorted((work / sub).rglob("*")):
            if not path.is_file():
                continue
            h = hashlib.sha256()
            n = 0
            with path.open("rb") as fh:
                while chunk := fh.read(1 << 22):
                    h.update(chunk)
                    n += chunk.count(b"\n")
            key = path.relative_to(work).as_posix()
            digests[key] = h.hexdigest()
            lines[key] = n
    return digests, lines


def check_features(path: Path, participants_path: Path) -> bool:
    """features.csv holds one row per simulated participant, all numeric and finite."""
    with participants_path.open(newline="") as fh:
        expected = sorted(row[0] for row in list(csv.reader(fh))[1:])
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if sorted(row[0] for row in rows) != expected:
        return False
    try:
        return all(math.isfinite(float(v)) for row in rows for v in row[1:])
    except ValueError:  # an empty cell is a missing value
        return False


def run(args: argparse.Namespace) -> dict:
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.shrunk()
    work = Path(args.dir)
    work.mkdir(parents=True, exist_ok=True)
    argvs = workload.stages(work)
    names = args.stages.split(",")
    if "simulate" in names:
        (work / "cohort.spec").write_text(workload.spec_text(args.seed), encoding="utf-8")

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    first_stage_at = time.monotonic()
    stages: dict[str, dict] = {}
    ok = True
    try:
        for name in names:
            if not ok:
                stages[name] = {"rc": None, "s": None}  # never ran: still attempted
                continue
            gc.collect()
            t0 = time.perf_counter()
            rc = run_cli(argvs[name])
            stages[name] = {"rc": rc, "s": time.perf_counter() - t0}
            ok = rc == 0
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks: dict[str, bool] = {f"stage.{name}": st["rc"] == 0 for name, st in stages.items()}
    verification: dict = {}
    if "predict" in names:
        checks["features_rows"] = ok and check_features(
            work / "out" / "features.csv", work / "data" / "participants.csv")
        checks["verify_exit"] = ok and run_cli(workload.verify_argv(work)) == 0
        if checks["verify_exit"]:
            verification = json.loads((work / "verification.json").read_text(encoding="utf-8"))
        if workload.gates:
            for group in ("day", "night"):
                err = verification.get("groups", {}).get(group, {}).get("inter_session_rel_error")
                checks[f"inter_session_{group}"] = err is not None and err <= MAX_INTER_SESSION_REL_ERROR
        if workload.gates and workload.ml:
            ml = verification.get("ml", {})
            checks["ml_planted_in_top3"] = bool(ml.get("planted_in_top3"))
            checks["ml_cv_micro_f1"] = ml.get("cv_micro_f1", 0.0) >= MIN_CV_MICRO_F1

    digests, lines = digest_tree(work)
    data = work / "data"
    sizes = {}
    if ok:
        recordings = lines["data/recordings.jsonl"]
        sizes = {
            "participants": lines["data/participants.csv"] - 1,
            "recordings": recordings,
            # the simulator emits exactly frames_per_recording frames per recording
            "frames": recordings * workload.frames_per_recording,
            "rssi_rows": lines["data/rssi.csv"] - 1,
            "jsonl_bytes": (data / "recordings.jsonl").stat().st_size,
            "canonical_bytes": sum((data / n).stat().st_size for n in CANONICAL_INPUTS),
        }

    result = {
        "first_stage_at": first_stage_at,
        "stages": stages,
        "peak_rss_mb": peak_rss_mb,
        "checks": checks,
        "digests": digests,
        "sizes": sizes,
        "verification": verification,
    }
    if tracer is not None:
        result["missing_hooks"] = tracer.missing
        result["counts"] = tracer.counts
        spans_path = work / f"spans-{'-'.join(names)}.json"
        spans_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
        result["spans_file"] = str(spans_path)
    return result


def main_child() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--stages", required=True, help="comma-separated, in run order")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    result = run(args)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main_child())
