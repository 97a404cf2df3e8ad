"""Batch command-line driver for the speaking-pattern pipeline.

Subcommands: simulate, extract, compare, predict, verify, report.
Exit codes: 0 ok, 2 usage/bad input, 3 empty cohort after filters,
4 empty comparison group, 5 degenerate label. All randomness flows from
--seed, and every subcommand rerun on identical inputs writes identical
bytes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .aggregate import LABEL_COLUMNS
from .arousal import AROUSAL_THRESHOLD, arousal_flags
from .errors import DegenerateLabel, EmptyGroup, ShiftTalkError
from .foreground import FilterKind, ForegroundFilter
from .forest import ForestParams
from .ingest import parse_cohort
from .pipeline import ExtractionConfig, run_extraction
from .predict import DEFAULT_GRID, binarize_label, cross_validate
from .simulate import GROUND_TRUTH_FILE, GroundTruth, generate, load_spec, verify_against_truth
from .stats import ComparisonTable, compare_groups
from . import reports

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_EMPTY_COHORT = 3
EXIT_EMPTY_GROUP = 4
EXIT_DEGENERATE_LABEL = 5


def cmd_simulate(args: argparse.Namespace) -> int:
    spec_path = Path(args.spec)
    if not spec_path.is_file():
        print(f"error: spec file not found: {spec_path}", file=sys.stderr)
        return EXIT_USAGE
    spec = load_spec(spec_path)
    if args.seed is not None:
        spec.seed = args.seed
    cohort, truth = generate(spec, args.out)
    print(f"simulated cohort: {len(truth.participants)} participants, "
          f"{spec.n_shifts} shifts each, {len(cohort.recordings)} recordings -> {args.out}")
    return EXIT_OK


def cmd_extract(args: argparse.Namespace) -> int:
    kind = FilterKind.EXTERNAL_SCORES if args.external_scores else FilterKind.THRESHOLD_BASELINE
    try:
        foreground = ForegroundFilter(kind=kind, threshold=args.foreground_threshold)
    except ValueError as exc:
        print(f"error: --foreground-threshold: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        config = ExtractionConfig(
            foreground=foreground,
            min_frames=args.min_frames,
            min_days=args.min_days,
            rssi_floor=args.rssi_floor,
            arousal_threshold=args.arousal_threshold,
        )
    except ValueError as exc:  # the config checks min_frames, then min_days
        flag = "--min-frames" if args.min_frames < 1 else "--min-days"
        print(f"error: {flag}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    cohort = parse_cohort(args.input)
    result = run_extraction(cohort, config)
    if not result.participant_ids:
        print("error: no participant passed the filters (empty cohort)", file=sys.stderr)
        return EXIT_EMPTY_COHORT
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    labels = {
        name: [getattr(result.cohort.profiles[pid], name) for pid in result.participant_ids]
        for name in LABEL_COLUMNS
    }
    reports.write_sessions_csv(out / reports.SESSIONS_FILE, result.sessions)
    reports.write_arousal_csv(out / reports.AROUSAL_FILE, result.rated)
    reports.write_blocks_csv(out / reports.BLOCKS_FILE, result.blocks)
    reports.write_features_csv(out / reports.FEATURES_FILE, result.participant_ids, labels, result.matrix)
    print(f"parsed rows: {result.cohort.counts}")
    if result.cohort.warnings:
        print(f"warnings: {result.cohort.warnings}")
    print(f"dropped outside shift window: {result.dropped}")
    print(f"extracted {len(result.participant_ids)} participants, "
          f"{len(result.sessions)} sessions, {len(result.rated)} rated recordings -> {out}")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    ids, _, X, names = reports.read_features_csv(args.features)
    if args.within and args.factor != "unit":
        print("error: --within applies only to --factor unit", file=sys.stderr)
        return EXIT_USAGE
    # group a is the day shift (--factor shift) or the ICU (--factor unit)
    factor, a_value = ("shift_night", 0.0) if args.factor == "shift" else ("unit_icu", 1.0)
    in_a = X[:, names.index(factor)] == a_value
    compared = [n for n in names if n != factor]
    strata = [("all", np.ones(len(X), dtype=bool))]
    if args.within:
        night = X[:, names.index("shift_night")] == 1.0
        strata = [("day", ~night), ("night", night)]
    parts = []
    for stratum, mask in strata:
        part = compare_groups(X[mask], names, in_a[mask], compared, args.alpha)
        part.stratum[:] = stratum
        parts.append(part)
    table = ComparisonTable.concat(parts)
    reports.write_comparisons_csv(args.out, table)
    print(f"compared {len(table)} (stratum, feature) pairs; {int(table.significant.sum())} significant "
          f"at alpha={args.alpha}")
    print("note: p-values are per-feature; no multiple-comparison correction is applied")
    for i in np.flatnonzero(table.significant).tolist():
        print(f"  [{table.stratum[i]}] {table.feature[i]}: a={table.group_a_median[i]:.4g} "
              f"b={table.group_b_median[i]:.4g} p={table.p[i]:.4g}")
    return EXIT_OK


def _grid_from_args(args: argparse.Namespace) -> list[ForestParams] | None:
    if not (args.n_trees or args.max_depth or args.min_leaf):
        return None
    n_trees = args.n_trees or [p.n_trees for p in DEFAULT_GRID[:1]]
    depths_raw = args.max_depth or ["none"]
    min_leaf = args.min_leaf or [1]
    depths = [None if d.lower() == "none" else int(d) for d in depths_raw]
    return [
        ForestParams(n_trees=t, max_depth=d, min_leaf=m)
        for t in n_trees for d in depths for m in min_leaf
    ]


def cmd_predict(args: argparse.Namespace) -> int:
    ids, labels, X, names = reports.read_features_csv(args.features)
    if args.label not in labels:
        print(f"error: unknown label {args.label!r}", file=sys.stderr)
        return EXIT_USAGE
    y = binarize_label(labels[args.label])
    grid = _grid_from_args(args)
    report = cross_validate(X, y, names, grid=grid, k=args.folds, seed=args.seed, label_name=args.label)
    reports.write_report_json(args.out, report)
    print(f"label={args.label} n={len(y)} best=({report.best_params.label()}) "
          f"cv micro-F1={report.best_micro_f1:.4f}")
    print("top 10 importances:")
    for name, weight in report.importances[:10]:
        print(f"  {weight:.4f}  {name}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    truth = GroundTruth.from_json(Path(args.truth).read_text(encoding="utf-8"))
    report = verify_against_truth(args.features, truth, args.comparisons, args.report)
    import json

    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    out = Path(args.dir)
    summary: list[str] = []
    sessions_path = out / reports.SESSIONS_FILE
    if sessions_path.is_file():
        sessions = reports.read_sessions_csv(sessions_path)
        summary.append(f"sessions: {len(sessions)} rows, {int(sessions.duration_min.sum())} session-minutes")
    arousal_path = out / reports.AROUSAL_FILE
    if arousal_path.is_file():
        fused = reports.read_arousal_csv(arousal_path).fused
        if len(fused):
            summary.append(f"arousal: {len(fused)} rated recordings, "
                           f"fused mean {fused.mean():.3f}, "
                           f"pos>{AROUSAL_THRESHOLD}: {arousal_flags(fused)[0].mean():.3f}")
    blocks_path = out / reports.BLOCKS_FILE
    if blocks_path.is_file():
        summary.append(f"blocks: {len(reports.read_blocks_csv(blocks_path))} (shift, block) rows")
    features_path = out / reports.FEATURES_FILE
    if features_path.is_file():
        ids, _, X, names = reports.read_features_csv(features_path)
        summary.append(f"features: {len(ids)} participants x {X.shape[1]} columns")
    comparisons_path = out / reports.COMPARISONS_FILE
    if comparisons_path.is_file():
        comparisons = reports.read_comparisons_csv(comparisons_path)
        sig = np.flatnonzero(comparisons.significant).tolist()
        summary.append(f"comparisons: {len(comparisons)} rows, {len(sig)} significant")
        for i in sig:
            summary.append(f"  [{comparisons.stratum[i]}] {comparisons.feature[i]}: p={comparisons.p[i]:.4g}")
    report_path = out / reports.REPORT_FILE
    if report_path.is_file():
        ml = reports.read_report_json(report_path)
        summary.append(f"prediction: label={ml['label']} cv micro-F1={ml['cv_micro_f1']:.4f}")
    if not summary:
        print(f"error: no known artifacts in {out}", file=sys.stderr)
        return EXIT_USAGE
    print("\n".join(summary))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shifttalk", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic cohort from a spec file")
    p.add_argument("spec", help="flat key=value spec file")
    p.add_argument("--out", required=True, help="output directory for the canonical files")
    p.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    p.set_defaults(func=cmd_simulate)

    defaults = ExtractionConfig()
    p = sub.add_parser("extract", help="run the feature-extraction pipeline")
    p.add_argument("--input", required=True, help="canonical input directory")
    p.add_argument("--out", required=True, help="output directory for csv artifacts")
    p.add_argument("--foreground-threshold", type=float, default=defaults.foreground.threshold)
    p.add_argument("--external-scores", action="store_true",
                   help="trust per-frame foreground booleans where present")
    p.add_argument("--min-frames", type=int, default=defaults.min_frames,
                   help="foreground frames needed for a valid recording")
    p.add_argument("--min-days", type=int, default=defaults.min_days)
    p.add_argument("--rssi-floor", type=int, default=defaults.rssi_floor)
    p.add_argument("--arousal-threshold", type=float, default=defaults.arousal_threshold)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("compare", help="Mann-Whitney group comparisons over features.csv")
    p.add_argument("features", help="features.csv from extract")
    p.add_argument("--factor", choices=["shift", "unit"], required=True)
    p.add_argument("--within", action="store_true",
                   help="stratify unit comparisons by shift")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", required=True, help="comparisons.csv path")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("predict", help="predict a binarized self-report label")
    p.add_argument("features", help="features.csv from extract")
    p.add_argument("--label", choices=LABEL_COLUMNS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--n-trees", type=int, nargs="+", default=None, help="grid override")
    p.add_argument("--max-depth", nargs="+", default=None, help="grid override; use 'none' for unlimited")
    p.add_argument("--min-leaf", type=int, nargs="+", default=None, help="grid override")
    p.add_argument("--out", required=True, help="report.json path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("verify", help="check pipeline outputs against planted ground truth")
    p.add_argument("--truth", required=True, help=GROUND_TRUTH_FILE)
    p.add_argument("--features", required=True, help="features.csv from extract")
    p.add_argument("--comparisons", default=None, help="comparisons.csv (optional)")
    p.add_argument("--report", default=None, help="report.json (optional)")
    p.add_argument("--out", default=None, help="verification.json path (optional)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="summarize the artifacts in an output directory")
    p.add_argument("dir", help="directory holding extract/compare/predict outputs")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EmptyGroup as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_GROUP
    except DegenerateLabel as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE_LABEL
    except ShiftTalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
