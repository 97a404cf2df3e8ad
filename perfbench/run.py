"""Benchmark of the `shifttalk` CLI: simulate -> extract -> compare -> predict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each repetition runs in a fresh,
single-threaded child (`child.py`) that drives `shifttalk.cli.main` on a
seeded simulated cohort; repetitions run one after another until S seconds
have passed, and each metric is the median over repetitions. On forest_grid
one child runs simulate and extract before the repetitions, which then time
compare and predict on that cohort; its simulate_s and extract_s are that
one child's. Every stage must exit 0 and the outputs must pass the
correctness gates; the sha256 of every input and output file must agree
across repetitions (and between traced and untraced ones). Metric names and
units are those of BENCHMARK.json.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics of the traced ones,
plus `trace.overhead_s` (traced minus untraced wall_s).

The last stdout line is one JSON object {correct, attempted, failed,
metrics}. The line before it is a JSON record of the environment, sizes,
digests and per-repetition figures; the same record is written under
`.perfbench_runs/results/`. Exit code 1 means a correctness check failed;
2 means the benchmark could not run (e.g. no `src/shifttalk` next to it).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
sys.path.insert(0, str(HERE))

from tracing import layer_metrics  # noqa: E402
from workloads import STAGES, WORKLOADS, Workload  # noqa: E402

HARD_LIMIT_S = 165.0  # the whole run must end well inside 180 s
CHILD_ENV = {  # one thread per child: no BLAS or OpenMP pools
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
PYTHONPATH = os.pathsep.join([str(SRC), str(HERE)])


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: Workload, seed: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "workload": workload.name,
        "seed": seed,
        "spec_text": workload.spec_text(seed),
        "spec_sha256": workload.spec_hash(seed),
    }


def expected_checks(workload: Workload, stages: list[str]) -> int:
    """Operations a child running `stages` is judged on (see child.py)."""
    n = len(stages)
    if "predict" in stages:
        n += 2 + (2 + 2 * workload.ml) * workload.gates
    return n


def run_child(workload: Workload, seed: int, work: Path, rep_dir: Path, stages: list[str],
              traced: bool, smoke: bool, timeout: float) -> dict:
    """One child running `stages` on the cohort in `work`; returns its result
    plus setup_s and, when traced, its spans. A crashed child fails every
    operation it would have been judged on."""
    rep_dir.mkdir(parents=True)
    result_path = rep_dir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload.name, "--seed", str(seed),
           "--dir", str(work), "--stages", ",".join(stages), "--result", str(result_path)]
    cmd += ["--trace"] * traced + ["--smoke"] * smoke
    env = {**os.environ, **CHILD_ENV, "PYTHONPATH": PYTHONPATH}
    with (rep_dir / "child.log").open("w") as log:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                  cwd=ROOT, timeout=max(timeout, 1.0), check=False)
            rc = proc.returncode
        except subprocess.TimeoutExpired:  # run() kills and reaps the child
            rc = "timeout"
    if rc != 0 or not result_path.is_file():
        tail = (rep_dir / "child.log").read_text(errors="replace")[-2000:]
        print(f"child failed ({rc}) on {workload.name} seed {seed}:\n{tail}", file=sys.stderr)
        n = expected_checks(workload, stages)
        return {"crashed": True, "traced": traced, "checks": {f"op{i}": False for i in range(n)}}
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["first_stage_at"] - spawned
    result["traced"] = traced
    if traced:
        result["spans"] = json.loads(Path(result.pop("spans_file")).read_text())
    return result


def traced_layers(rep: dict, prep: dict | None) -> tuple[dict[str, float], list[list]]:
    """Per-layer metrics of one traced repetition, together with the traced
    simulate + extract it read from when the workload prepares its cohort."""
    spans, counts = rep["spans"], dict(rep["counts"])
    if prep is not None:
        offset = len(prep["spans"])
        spans = prep["spans"] + [[n, s, e, p + offset if p >= 0 else -1] for n, s, e, p in spans]
        for key, n in prep["counts"].items():
            counts[key] = counts.get(key, 0) + n
    return layer_metrics(spans, counts, rep["sizes"]), spans


def median_metrics(per_rep: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}


def stage_metrics(rep: dict, prep: dict | None) -> dict[str, float]:
    """End-to-end metrics of one repetition. wall_s, peak_rss_mb and setup_s
    cover the repetition's own stages; simulate and extract come from the
    one-off preparation when the workload has one. predict_s is recorded,
    not printed: BENCHMARK.json lists no workload on which it is steady."""
    timed = {name: v["s"] for name, v in rep["stages"].items()}
    st = {**({name: v["s"] for name, v in prep["stages"].items()} if prep else {}), **timed}
    return {
        "wall_s": sum(timed.values()),
        "simulate_s": st["simulate"],
        "extract_s": st["extract"],
        "predict_s": st["predict"],
        "extract_frames_per_s": rep["sizes"]["frames"] / st["extract"],
        "peak_rss_mb": rep["peak_rss_mb"],
        "setup_s": rep["setup_s"],
    }


def count_operations(prep: dict | None, reps: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure notes) over every child's stages and
    checks, and each later repetition's digest comparison with the first."""
    attempted = failed = 0
    notes: list[str] = []
    children = [("prep", prep)] * (prep is not None) + [(f"rep {i}", r) for i, r in enumerate(reps)]
    for label, child in children:
        if child.get("crashed"):
            notes.append(f"{label}: crashed")
        for name, passed in child["checks"].items():
            attempted += 1
            if not passed:
                failed += 1
                notes.append(f"{label}: {name} failed")
        if child is not prep and child is not reps[0]:
            attempted += 1
            if child.get("digests") != reps[0].get("digests"):
                failed += 1
                notes.append(f"{label}: artifact digests differ from rep 0")
    return attempted, failed, notes


def story(traced: list[dict]) -> dict[str, float]:
    """Shares that say which layer dominates each workload's stages."""
    def share(layer: str, stage: str) -> float:
        return statistics.median(r["layers"][layer] / r["stage_s"][stage] for r in traced)

    return {
        "parse_recordings_share_of_extract": share("ingest.parse_recordings.s", "extract"),
        "run_extraction_share_of_extract": share("pipeline.run_extraction.s", "extract"),
        "write_cohort_share_of_simulate": share("ingest.write_cohort.s", "simulate"),
        "train_forest_share_of_predict": share("forest.train_forest.s", "predict"),
    }


def benchmark(workload_name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> tuple[dict, dict]:
    """Run repetitions for `seconds`; returns (result line, record)."""
    workload = WORKLOADS[workload_name]
    if smoke:
        workload = workload.shrunk()
    e2e_units, layer_units = metric_units()
    started = time.monotonic()
    work_root = RUNS / f"work-{os.getpid()}"
    shutil.rmtree(work_root, ignore_errors=True)
    # fill the bytecode cache so no repetition pays for compiling
    subprocess.run([sys.executable, "-c", "import shifttalk.cli, tracing, workloads"],
                   env={**os.environ, "PYTHONPATH": PYTHONPATH}, cwd=ROOT, check=False)
    reps: list[dict] = []
    prep = None
    spans_kept = None
    try:
        stages = list(STAGES)
        if workload.ml:
            # simulate + extract once; every repetition reads this cohort
            cohort = work_root / "cohort"
            prep = run_child(workload, seed, cohort, work_root / "prep", stages[:2],
                             trace, smoke, HARD_LIMIT_S)
            stages = stages[2:]
            if not all(prep["checks"].values()):
                stages = []
        reps_started = time.monotonic()
        durations: list[float] = []
        while stages:
            elapsed = time.monotonic() - reps_started
            kinds = {r["traced"] for r in reps if not r.get("crashed")}
            have_all = kinds >= {False, True} if trace else False in kinds
            # start no repetition that would end after `seconds` (once every
            # kind has run) or near the hard limit
            if have_all and elapsed + statistics.median(durations) > seconds:
                break
            if durations and time.monotonic() - started + 1.5 * max(durations) > HARD_LIMIT_S:
                break
            if len(reps) >= 2 and not kinds:  # the program fails outright
                break
            traced = trace and len(reps) % 2 == 1
            rep_dir = work_root / f"rep{len(reps)}"
            work = cohort if workload.ml else rep_dir
            rep = run_child(workload, seed, work, rep_dir, stages, traced, smoke,
                            HARD_LIMIT_S - (time.monotonic() - started))
            durations.append(time.monotonic() - reps_started - elapsed)
            reps.append(rep)
            if traced and not rep.get("crashed") and all(rep["checks"].values()):
                rep["layers"], spans = traced_layers(rep, prep)
                rep["stage_s"] = {name: v["s"] for c in (prep, rep) if c for name, v in c["stages"].items()}
                spans_kept = RUNS / "results" / f"{workload_name}-seed{seed}-spans.json"
                spans_kept.parent.mkdir(parents=True, exist_ok=True)
                spans_kept.write_text(json.dumps(spans))
            rep.pop("spans", None)
            shutil.rmtree(rep_dir, ignore_errors=True)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    attempted, failed, notes = count_operations(prep, reps)
    good = [r for r in reps if not r.get("crashed") and all(r["checks"].values())]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    missing = sorted({h for c in [prep or {}, *reps] for h in c.get("missing_hooks", [])})
    # a missing hook loses a layer, not correctness: it is reported, not fatal
    correct = failed == 0 and bool(untraced) and (not trace or bool(traced))
    if missing:
        notes.append(f"missing hooks: {missing}")

    e2e = [stage_metrics(r, prep) for r in untraced]
    metrics: dict[str, dict] = {}
    if trace and traced and untraced:
        layers = median_metrics([r["layers"] for r in traced])
        wall_traced = statistics.median(stage_metrics(r, prep)["wall_s"] for r in traced)
        layers["trace.overhead_s"] = wall_traced - statistics.median(m["wall_s"] for m in e2e)
        layers["trace.hooks_missing"] = len(missing)
        metrics = {k: {"value": layers[k], "unit": u} for k, u in layer_units.items()}
    elif not trace and e2e:
        medians = median_metrics(e2e)
        metrics = {k: {"value": medians[k], "unit": u} for k, u in e2e_units.items()}
    record = {
        "environment": environment(workload, seed),
        "sizes": untraced[0]["sizes"] if untraced else {},
        "digests": untraced[0]["digests"] if untraced else {},
        "repetitions": {"untraced": len(untraced), "traced": len(traced), "all": len(reps)},
        "prepared_cohort": prep is not None,
        "per_repetition": e2e,
        "medians": median_metrics(e2e) if e2e else {},
        "failed_ratio": failed / attempted,
        "notes": notes,
        "verification": untraced[0]["verification"] if untraced else {},
        "missing_hooks": missing,
        "spans_file": str(spans_kept.relative_to(ROOT)) if spans_kept else None,
    }
    if trace and traced:
        record["story"] = story(traced)
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return line, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "shifttalk" / "cli.py").is_file():
        print(f"error: no shifttalk sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    line, record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    results = RUNS / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": line, **record}, indent=2, sort_keys=True) + "\n")
    print(f"failed_ratio {record['failed_ratio']:.4g} 1 ({line['failed']}/{line['attempted']})")
    for note in record["notes"]:
        print(f"note: {note}", file=sys.stderr)
    for name, m in line["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
