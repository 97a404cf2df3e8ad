"""Smoke test of the benchmark itself, at a shrunken spec.

Runs every workload with --trace 0 and with --trace 1 (which runs one
untraced and one traced repetition), then asserts that all stages and
checks passed, that every artifact digest agrees across the three
repetitions, that every tracing hook resolved and that the printed metrics
are the ones BENCHMARK.json lists, with its units.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import sys

from run import SRC, benchmark, metric_units
from tracing import Tracer
from workloads import WORKLOADS


def check_missing_hooks_reported() -> None:
    """A hooked name that no longer exists is listed, not fatal, and every
    patch that did apply is undone."""
    sys.path.insert(0, str(SRC))
    import shifttalk.stats as stats

    original = stats.midranks
    tracer = Tracer(hooks=[("shifttalk.stats", "midranks", "stats.midranks"),
                           ("shifttalk.stats", "no_such_function", "stats.gone"),
                           ("shifttalk.no_such_module", "f", "gone"),
                           ("shifttalk.stats", "no_such_prefix_*", "stats")])
    tracer.install()
    assert stats.midranks is not original
    stats.midranks([1.0, 2.0])
    tracer.uninstall()
    assert stats.midranks is original
    assert [s[0] for s in tracer.spans] == ["stats.midranks"], tracer.spans
    assert tracer.missing == ["shifttalk.stats.no_such_function", "shifttalk.no_such_module.f",
                              "shifttalk.stats.no_such_prefix_*"], tracer.missing
    print("ok missing hooks are reported and patches restored")


def main() -> int:
    check_missing_hooks_reported()
    e2e_units, layer_units = metric_units()
    for name in WORKLOADS:
        plain, plain_record = benchmark(name, seed=1, seconds=0, trace=False, smoke=True)
        line, record = benchmark(name, seed=1, seconds=0, trace=True, smoke=True)
        reps = record["repetitions"]
        assert reps["untraced"] == 1 and reps["traced"] == 1, (name, reps, record["notes"])
        assert not record["missing_hooks"], (name, record["missing_hooks"])
        for result, notes in ((plain, plain_record["notes"]), (line, record["notes"])):
            assert result["failed"] == 0 and result["correct"], (name, notes)
        assert plain_record["digests"] == record["digests"], name
        for result, units in ((plain, e2e_units), (line, layer_units)):
            assert {k: m["unit"] for k, m in result["metrics"].items()} == units, name
        print(f"ok {name}: {line['attempted']} operations, digests equal, all hooks resolved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
