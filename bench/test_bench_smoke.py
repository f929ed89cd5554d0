"""Smoke test of the benchmark harness at tiny input sizes.

Runs every workload in-process through the same measurement loop,
output checks, digest comparison and traced path that ``run.py`` drives
in child processes, and asserts that every metric ``BENCHMARK.json``
declares is emitted and finite.
"""

from __future__ import annotations

import json
import math
import time

import pytest

import measure
import run
import tracing
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_emits_every_declared_metric(name, tmp_path):
    child = measure.measure(
        name,
        workloads.SMOKE[name],
        seed=7,
        seconds=0.0,
        traced=True,
        check=True,
        workdir=tmp_path,
        started=time.perf_counter(),
    )
    assert [it["kind"] for it in child["iterations"]] == ["warmup", "untraced", "traced"]
    assert child["checked"] and child["check_errors"] == []

    end_to_end = run.aggregate([child], trace=False)
    per_layer = run.aggregate([child], trace=True)
    for summary in (end_to_end, per_layer):
        assert summary["correct"], summary["errors"]
        assert summary["failed"] == 0 and summary["attempted"] == 3

    e2e = run.metric_stats(SPEC["end_to_end"], end_to_end["samples"])
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    for metric, values in e2e.items():
        assert values["n"] >= 1 and math.isfinite(values["median"]), metric
        assert values["median"] > 0, metric

    layers = run.metric_stats(SPEC["per_layer"], per_layer["samples"])
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    for metric, values in layers.items():
        assert math.isfinite(values["median"]), metric
    assert layers["bench.span_coverage"]["median"] > 0.9
    assert layers["bench.trace_overhead_frac"]["n"] == 1


def test_traced_block_restores_every_patched_callable():
    points = tracing._patch_points(tracing.Tracer())
    before = [owner.__dict__[attribute] for owner, attribute, _ in points]
    with tracing.traced(tracing.Tracer()):
        during = [owner.__dict__[attribute] for owner, attribute, _ in points]
    after = [owner.__dict__[attribute] for owner, attribute, _ in points]
    assert not any(a is b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, after))
