"""The benchmark's tracing hooks (perfbench/tracing.py) still find every
name they patch, so a refactor that drops or moves a traced name fails here
rather than leaving a traced benchmark run without that layer."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from shifttalk import pipeline, reports

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_finds_every_hooked_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = (pipeline.build_sessions, pipeline.per_shift_features, reports.write_sessions_csv)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert pipeline.build_sessions is not originals[0]
    finally:
        tracer.uninstall()
    assert (pipeline.build_sessions, pipeline.per_shift_features, reports.write_sessions_csv) == originals
