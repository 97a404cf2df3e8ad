"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each hooked name with a wrapper that records a
span (name, start, end, parent span) in memory; `uninstall()` puts every
original back. A name is patched where its caller looks it up: `from .x
import y` binds `y` into the caller's module, so that module's attribute is
the one replaced. A name that no longer exists is listed in `missing` and
the run goes on without it.

No untraced child imports this module: it calls the CLI with nothing
patched.
"""

from __future__ import annotations

import importlib
import inspect
import time
from typing import Callable

# (module, attribute or `prefix*` pattern, span name prefix). A pattern
# span is named `<prefix>.<attribute>`; an exact one is named `<prefix>`.
HOOKS: list[tuple[str, str, str]] = [
    ("shifttalk.cli", "generate", "simulate.generate"),
    ("shifttalk.simulate", "write_cohort", "ingest.write_cohort"),
    ("shifttalk.cli", "parse_cohort", "ingest.parse_cohort"),
    ("shifttalk.ingest", "parse_*", "ingest"),
    ("shifttalk.cli", "run_extraction", "pipeline.run_extraction"),
    ("shifttalk.pipeline", "filter_shift_window", "ingest.filter_shift_window"),
    ("shifttalk.pipeline", "filter_min_days", "ingest.filter_min_days"),
    ("shifttalk.pipeline", "estimate_timeline", "locate.estimate_timeline"),
    ("shifttalk.pipeline", "filter_frames", "foreground.filter_frames"),
    ("shifttalk.pipeline", "is_valid_recording", "foreground.is_valid_recording"),
    ("shifttalk.arousal", "build_neutral", "arousal.build_neutral"),
    ("shifttalk.arousal", "score_recording", "arousal.score_recording"),
    ("shifttalk.arousal", "fusion_weights", "arousal.fusion_weights"),
    ("shifttalk.arousal", "rate_recording", "arousal.rate_recording"),
    ("shifttalk.arousal", "spearman_rho", "stats.spearman_rho"),
    ("shifttalk.pipeline", "build_sessions", "sessions.build_sessions"),
    ("shifttalk.pipeline", "per_shift_features", "aggregate.per_shift_features"),
    ("shifttalk.pipeline", "participant_vector", "aggregate.participant_vector"),
    ("shifttalk.pipeline", "build_feature_matrix", "aggregate.build_feature_matrix"),
    ("shifttalk.reports", "*", "reports"),
    ("shifttalk.cli", "cross_validate", "predict.cross_validate"),
    ("shifttalk.predict", "train_forest", "forest.train_forest"),
    ("shifttalk.forest", "ForestModel.predict", "forest.ForestModel.predict"),
    ("shifttalk.cli", "compare_groups", "stats.compare_groups"),
    ("shifttalk.stats", "mann_whitney_u", "stats.mann_whitney_u"),
    ("shifttalk.stats", "midranks", "stats.midranks"),
]

EXTRACT_WRITERS = ("write_sessions_csv", "write_arousal_csv", "write_blocks_csv", "write_features_csv")
PARSE_OTHER = ("parse_participants", "parse_hubs", "parse_physiology")


class Tracer:
    def __init__(self, hooks: list[tuple[str, str, str]] = HOOKS) -> None:
        self.hooks = hooks
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            result = error = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if observe is not None:
                    observe(self, result, error)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, pattern, prefix in self.hooks:
            target = f"{module_name}.{pattern}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(target)
                continue
            if pattern.endswith("*"):
                stem = pattern[:-1]
                names = [
                    n for n, obj in vars(module).items()
                    if n.startswith(stem) and not n.startswith("_")
                    and inspect.isfunction(obj) and obj.__module__ == module_name
                ]
                if not names:
                    self.missing.append(target)
                for n in sorted(names):
                    self._patch(module, n, f"{prefix}.{n}")
                continue
            owner, _, attr = pattern.rpartition(".")
            holder = module
            for part in filter(None, owner.split(".")):
                holder = getattr(holder, part, None)
            if holder is None or not callable(getattr(holder, attr, None)):
                self.missing.append(target)
                continue
            self._patch(holder, attr, prefix)

    def _patch(self, holder: object, attr: str, name: str) -> None:
        original = getattr(holder, attr)
        self._patched.append((holder, attr, original))
        setattr(holder, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    def dump(self) -> list[list]:
        """Spans with times relative to the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[n, round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in self.spans]


def _observe_valid(tracer: Tracer, result, exc) -> None:
    if exc is None and result:
        tracer.count("foreground.valid")


def _observe_fusion(tracer: Tracer, result, exc) -> None:
    # TooFewRecordings makes the pipeline fall back to uniform weights;
    # all-zero correlations return the uniform weights flagged as fallback.
    if exc is not None or getattr(result, "fallback", False):
        tracer.count("arousal.fusion_weights.fallback")


def _observe_forest(tracer: Tracer, result, exc) -> None:
    if exc is not None:
        return
    trees = getattr(result, "trees", None)
    try:
        tracer.count("forest.trees", len(trees))
        tracer.count("forest.nodes", sum(len(t.feature) for t in trees))
    except (TypeError, AttributeError):
        if "forest.nodes" not in tracer.missing:
            tracer.missing.append("forest.nodes")


_OBSERVERS = {
    "foreground.is_valid_recording": _observe_valid,
    "arousal.fusion_weights": _observe_fusion,
    "forest.train_forest": _observe_forest,
}


def layer_totals(spans: list[list]) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Busy time, self time and call count per span name."""
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, start, end, parent in spans:
        d = end - start
        busy[name] = busy.get(name, 0.0) + d
        own[name] = own.get(name, 0.0) + d
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            pname = spans[parent][0]
            own[pname] = own.get(pname, 0.0) - d
    return busy, own, calls


def layer_metrics(spans: list[list], counts: dict[str, int], sizes: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics of one traced repetition, by name."""
    busy, own, calls = layer_totals(spans)

    def s(name: str) -> float:
        return busy.get(name, 0.0)

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    def ratio(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    mib = 1024 * 1024
    train_s = s("forest.train_forest")
    return {
        "ingest.write_cohort.s": s("ingest.write_cohort"),
        "ingest.write_cohort.mb_per_s": rate(sizes["canonical_bytes"] / mib, s("ingest.write_cohort")),
        "ingest.parse_recordings.s": s("ingest.parse_recordings"),
        "ingest.parse_recordings.frames_per_s": rate(sizes["frames"], s("ingest.parse_recordings")),
        "ingest.parse_rssi.s": s("ingest.parse_rssi"),
        "ingest.parse_rssi.rows_per_s": rate(sizes["rssi_rows"], s("ingest.parse_rssi")),
        "ingest.parse_other.s": sum(s(f"ingest.{n}") for n in PARSE_OTHER),
        "ingest.filter_shift_window.s": s("ingest.filter_shift_window"),
        "ingest.filter_min_days.s": s("ingest.filter_min_days"),
        "simulate.generate.self_s": own.get("simulate.generate", 0.0),
        "pipeline.run_extraction.s": s("pipeline.run_extraction"),
        "pipeline.run_extraction.self_s": own.get("pipeline.run_extraction", 0.0),
        "locate.estimate_timeline.s": s("locate.estimate_timeline"),
        "locate.estimate_timeline.calls": calls.get("locate.estimate_timeline", 0),
        "foreground.filter_frames.s": s("foreground.filter_frames"),
        "foreground.filter_frames.calls": calls.get("foreground.filter_frames", 0),
        "foreground.valid_ratio": ratio(counts.get("foreground.valid", 0),
                                        calls.get("foreground.is_valid_recording", 0)),
        "arousal.build_neutral.s": s("arousal.build_neutral"),
        "arousal.score_recording.s": s("arousal.score_recording"),
        "arousal.score_recording.calls": calls.get("arousal.score_recording", 0),
        "arousal.fusion_weights.s": s("arousal.fusion_weights"),
        "arousal.fusion_weights.fallback_ratio": ratio(counts.get("arousal.fusion_weights.fallback", 0),
                                                       calls.get("arousal.fusion_weights", 0)),
        "arousal.rate_recording.s": s("arousal.rate_recording"),
        "sessions.build_sessions.s": s("sessions.build_sessions"),
        "sessions.build_sessions.calls": calls.get("sessions.build_sessions", 0),
        "aggregate.per_shift_features.s": s("aggregate.per_shift_features"),
        "aggregate.participant_vector.s": s("aggregate.participant_vector"),
        "aggregate.build_feature_matrix.s": s("aggregate.build_feature_matrix"),
        "reports.write.s": sum(s(f"reports.{n}") for n in EXTRACT_WRITERS),
        "reports.read_features_csv.s": s("reports.read_features_csv"),
        "predict.cross_validate.s": s("predict.cross_validate"),
        "predict.cross_validate.self_s": own.get("predict.cross_validate", 0.0),
        "forest.train_forest.s": train_s,
        "forest.train_forest.calls": calls.get("forest.train_forest", 0),
        "forest.trees": counts.get("forest.trees", 0),
        "forest.nodes": counts.get("forest.nodes", 0),
        "forest.nodes_per_s": rate(counts.get("forest.nodes", 0), train_s),
        "forest.ForestModel.predict.s": s("forest.ForestModel.predict"),
        "stats.compare_groups.s": s("stats.compare_groups"),
        "stats.mann_whitney_u.calls": calls.get("stats.mann_whitney_u", 0),
        "stats.midranks.s": s("stats.midranks"),
        "stats.spearman_rho.s": s("stats.spearman_rho"),
    }
