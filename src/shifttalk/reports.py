"""Writers and readers for the pipeline's output artifacts.

Every artifact written here can be read back by its paired reader. The csv
artifacts follow model's one CSV rule (exact header, one field per column,
floats as their shortest exact repr, NaN as an empty field, MalformedRow
naming file:line), so write -> read -> write is byte-stable: sessions,
arousal, blocks and comparisons are ColumnTables that write and read
themselves, and features.csv, whose columns follow FEATURE_COLUMNS, is
written and read on the same primitives. Every csv file goes through
model.write_csv, which builds the text column by column.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .aggregate import FEATURE_COLUMNS, LABEL_COLUMNS, BlockTable
from .arousal import RatedTable
from .errors import MalformedRow
from .forest import ForestParams
from .model import read_columns, write_csv
from .predict import CvReport
from .sessions import SessionTable
from .stats import ComparisonTable

SESSIONS_FILE = "sessions.csv"
AROUSAL_FILE = "arousal.csv"
FEATURES_FILE = "features.csv"
BLOCKS_FILE = "blocks.csv"
COMPARISONS_FILE = "comparisons.csv"
REPORT_FILE = "report.json"

FEATURES_HEADER = ["participant_id", *LABEL_COLUMNS, *FEATURE_COLUMNS]


# Each table reader returns the table that its writer took. The writers stay
# functions of this module: perfbench's tracer times them by these names.
read_sessions_csv = SessionTable.read_csv
read_arousal_csv = RatedTable.read_csv
read_blocks_csv = BlockTable.read_csv
read_comparisons_csv = ComparisonTable.read_csv


def write_sessions_csv(path: str | Path, sessions: SessionTable) -> None:
    sessions.write_csv(path)


def write_arousal_csv(path: str | Path, rated: RatedTable) -> None:
    rated.write_csv(path)


def write_blocks_csv(path: str | Path, blocks: BlockTable) -> None:
    blocks.write_csv(path)


def write_features_csv(
    path: str | Path,
    participant_ids: list[str],
    labels: dict[str, list[float]],
    matrix: np.ndarray,
) -> None:
    """features.csv rows: participant_id, the three self-report labels, then
    the full feature schema (imputed, so never empty)."""
    columns = [np.asarray(participant_ids, dtype=object),
               *(np.asarray(labels[name], dtype=float) for name in LABEL_COLUMNS),
               *np.asarray(matrix, dtype=float).T]
    write_csv(path, FEATURES_HEADER, columns)


def read_features_csv(path: str | Path) -> tuple[list[str], dict[str, np.ndarray], np.ndarray, list[str]]:
    """Returns (participant_ids, labels, matrix, feature_names)."""
    ids, *values = read_columns(path, FEATURES_HEADER, (object,) + (np.float64,) * (len(FEATURES_HEADER) - 1))
    labels = {name: np.asarray(column, dtype=float) for name, column in zip(LABEL_COLUMNS, values)}
    matrix = np.array(values[len(LABEL_COLUMNS):], dtype=float).T
    return ids, labels, matrix, list(FEATURE_COLUMNS)


def write_comparisons_csv(path: str | Path, comparisons: ComparisonTable) -> None:
    comparisons.write_csv(path)


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
