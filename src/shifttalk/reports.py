"""Writers and readers for the pipeline's output artifacts.

Every artifact written here can be read back by its paired reader; the
readers validate structure so downstream commands fail fast on hand-edited
files. Float formatting uses the shortest exact repr, so write -> read ->
write is byte-stable.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .aggregate import FEATURE_COLUMNS, LABEL_COLUMNS, N_BLOCKS, ShiftFeatures
from .arousal import RatedTable
from .errors import MalformedRow
from .forest import ForestParams
from .model import ColumnTable
from .predict import CvReport
from .sessions import SessionTable
from .stats import ComparisonRow

SESSIONS_FILE = "sessions.csv"
AROUSAL_FILE = "arousal.csv"
FEATURES_FILE = "features.csv"
BLOCKS_FILE = "blocks.csv"
COMPARISONS_FILE = "comparisons.csv"
REPORT_FILE = "report.json"


def _fmt(value: float) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return repr(float(value))


def _read_rows(path: str | Path, convert) -> list[dict]:
    """convert() of each csv.DictReader row; a row it cannot convert raises
    MalformedRow with its line number."""
    rows = []
    with Path(path).open(newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.DictReader(fh), start=2):
            try:
                rows.append(convert(row))
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedRow(Path(path).name, lineno, str(exc)) from None
    return rows


def _write_table(path: str | Path, table: ColumnTable) -> None:
    """One csv row per table row, under the column names."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(table.columns())
        w.writerows(table.text_rows())


def write_sessions_csv(path: str | Path, sessions: SessionTable) -> None:
    _write_table(path, sessions)


def read_sessions_csv(path: str | Path) -> list[dict]:
    return _read_rows(path, lambda row: {
        "participant_id": row["participant_id"],
        "shift_date": row["shift_date"],
        "start": int(row["start"]),
        "duration_min": int(row["duration_min"]),
        "ns_min": int(row["ns_min"]),
        "pat_min": int(row["pat_min"]),
        "loungemed_min": int(row["loungemed_min"]),
        "outside_min": int(row["outside_min"]),
    })


def write_arousal_csv(path: str | Path, rated: RatedTable) -> None:
    _write_table(path, rated)


def read_arousal_csv(path: str | Path) -> list[dict]:
    return _read_rows(path, lambda row: {
        "participant_id": row["participant_id"],
        "shift_date": row["shift_date"],
        "minute_index": int(row["minute_index"]),
        "p": (float(row["p_pitch"]), float(row["p_intensity"]), float(row["p_hflf"])),
        "fused": float(row["fused"]),
    })


def write_blocks_csv(path: str | Path, shift_features: list[ShiftFeatures]) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["participant_id", "shift_date", "block", "recordings", "pos_ratio", "neg_ratio"])
        for sf in shift_features:
            for b in range(N_BLOCKS):
                w.writerow([
                    sf.participant_id, sf.shift_date.isoformat(), b, sf.recordings_per_block[b],
                    _fmt(sf.pos_blocks[b]) if sf.pos_blocks[b] is not None else "",
                    _fmt(sf.neg_blocks[b]) if sf.neg_blocks[b] is not None else "",
                ])


def read_blocks_csv(path: str | Path) -> list[dict]:
    return _read_rows(path, lambda row: {
        "participant_id": row["participant_id"],
        "shift_date": row["shift_date"],
        "block": int(row["block"]),
        "recordings": int(row["recordings"]),
        "pos_ratio": float(row["pos_ratio"]) if row["pos_ratio"] else None,
        "neg_ratio": float(row["neg_ratio"]) if row["neg_ratio"] else None,
    })


def write_features_csv(
    path: str | Path,
    participant_ids: list[str],
    labels: dict[str, list[float]],
    matrix: np.ndarray,
) -> None:
    """features.csv rows: participant_id, the three self-report labels, then
    the full feature schema (imputed, so never empty)."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["participant_id", *LABEL_COLUMNS, *FEATURE_COLUMNS])
        for i, pid in enumerate(participant_ids):
            w.writerow([
                pid,
                *[_fmt(labels[name][i]) for name in LABEL_COLUMNS],
                *[_fmt(v) for v in matrix[i]],
            ])


def read_features_csv(path: str | Path) -> tuple[list[str], dict[str, np.ndarray], np.ndarray, list[str]]:
    """Returns (participant_ids, labels, matrix, feature_names)."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = ["participant_id", *LABEL_COLUMNS, *FEATURE_COLUMNS]
        if header != expected:
            raise MalformedRow(path.name, 1, "unexpected features.csv header")
        ids: list[str] = []
        label_rows: list[list[float]] = []
        feat_rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected):
                raise MalformedRow(path.name, lineno, f"expected {len(expected)} fields, got {len(row)}")
            try:
                ids.append(row[0])
                label_rows.append([float(v) for v in row[1 : 1 + len(LABEL_COLUMNS)]])
                feat_rows.append([float(v) for v in row[1 + len(LABEL_COLUMNS) :]])
            except ValueError as exc:
                raise MalformedRow(path.name, lineno, str(exc)) from None
    labels_arr = np.asarray(label_rows, dtype=float)
    labels = {name: labels_arr[:, i] for i, name in enumerate(LABEL_COLUMNS)}
    return ids, labels, np.asarray(feat_rows, dtype=float), list(FEATURE_COLUMNS)


def write_comparisons_csv(path: str | Path, rows: list[tuple[str, ComparisonRow]]) -> None:
    """rows: (stratum, comparison); stratum is 'all' for unstratified runs."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["stratum", "feature", "group_a_median", "group_a_mean",
                    "group_b_median", "group_b_mean", "u", "p", "method", "significant"])
        for stratum, r in rows:
            w.writerow([stratum, r.feature, _fmt(r.group_a_median), _fmt(r.group_a_mean),
                        _fmt(r.group_b_median), _fmt(r.group_b_mean),
                        _fmt(r.u), _fmt(r.p), r.method.value, int(r.significant)])


def read_comparisons_csv(path: str | Path) -> list[dict]:
    return _read_rows(path, lambda row: {
        "stratum": row["stratum"],
        "feature": row["feature"],
        "group_a_median": float(row["group_a_median"]),
        "group_a_mean": float(row["group_a_mean"]),
        "group_b_median": float(row["group_b_median"]),
        "group_b_mean": float(row["group_b_mean"]),
        "u": float(row["u"]),
        "p": float(row["p"]),
        "method": row["method"],
        "significant": bool(int(row["significant"])),
    })


def write_report_json(path: str | Path, report: CvReport) -> None:
    payload = {
        "label": report.label_name,
        "best_config": {
            "n_trees": report.best_params.n_trees,
            "max_depth": report.best_params.max_depth,
            "min_leaf": report.best_params.min_leaf,
        },
        "cv_micro_f1": report.best_micro_f1,
        "importances": [{"feature": name, "weight": weight} for name, weight in report.importances],
        "seed": report.seed,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def read_report_json(path: str | Path) -> dict:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    for key in ("label", "best_config", "cv_micro_f1", "importances", "seed"):
        if key not in payload:
            raise MalformedRow(Path(path).name, 1, f"missing key {key!r}")
    payload["best_params"] = ForestParams(
        n_trees=int(payload["best_config"]["n_trees"]),
        max_depth=payload["best_config"]["max_depth"],
        min_leaf=int(payload["best_config"]["min_leaf"]),
    )
    return payload
