"""The benchmark's tracing hooks (perfbench/tracing.py) still find every
name they patch, so a refactor that drops or moves a traced name fails here
rather than leaving a traced benchmark run without that layer."""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

from shifttalk import ingest, pipeline, reports

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_finds_every_hooked_name():
    tracing = load_tracing()
    originals = (pipeline.build_sessions, pipeline.per_shift_features, reports.write_sessions_csv)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert pipeline.build_sessions is not originals[0]
    finally:
        tracer.uninstall()
    assert (pipeline.build_sessions, pipeline.per_shift_features, reports.write_sessions_csv) == originals


def test_summed_span_names_are_functions_of_their_modules():
    # reports.write.s, reports.read_features_csv.s and ingest.parse_other.s
    # add up spans by these names; the `reports.*` and `parse_*` patterns
    # would patch the rest without reporting one that vanished, and the
    # metric would silently read less
    tracing = load_tracing()
    for module, names in ((reports, tracing.EXTRACT_WRITERS + ("read_features_csv",)),
                          (ingest, tracing.PARSE_OTHER)):
        for name in names:
            fn = getattr(module, name, None)
            assert inspect.isfunction(fn) and fn.__module__ == module.__name__, f"{module.__name__}.{name}"
