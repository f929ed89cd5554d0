"""Zero-fault injection overhead benchmark.

The fault subsystem is gated so that a disabled :class:`FaultPlan` costs
(nearly) nothing: ``FaultPlan.none()`` builds no injector, consumes no
RNG, wires no delivery-delay hook, and schedules no events — the hot
dispatch path only pays one attribute check.  This benchmark replays the
same workload with no fault plan and with a zero-fault plan, asserts the
results are identical, and requires the zero-fault configuration to stay
within **5%** of the plain replay's wall-clock time (best-of-N timing,
so scheduler noise does not flake the bound).

Carries the ``slow_bench`` marker: runs nightly, not in tier-1::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_fault_overhead.py -m slow_bench
"""

from __future__ import annotations

import time

import pytest

from repro.platform.cluster import ClusterConfig
from repro.platform.faults import FaultPlan
from repro.platform.replay import ReplayConfig, ReplayFeed, TraceReplayer
from repro.policies.registry import fixed_keepalive_factory
from repro.trace.generator import GeneratorConfig, WorkloadGenerator

pytestmark = pytest.mark.slow_bench

#: Allowed wall-clock overhead of a zero-fault plan over a plain replay.
MAX_OVERHEAD_FRACTION = 0.05

#: Timing repetitions; the minimum is compared (noise shrinks it toward
#: the true cost, never away from it).
REPETITIONS = 5


def _best_of(run, repetitions: int = REPETITIONS) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repetitions):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_zero_fault_plan_overhead_within_budget(record_bench):
    workload = WorkloadGenerator(
        GeneratorConfig(
            num_apps=120, duration_minutes=1440.0, seed=31, max_daily_rate=2000.0
        )
    ).generate()
    replay_config = ReplayConfig(duration_minutes=1440.0, seed=7)
    feed = ReplayFeed(workload, replay_config)  # shared: feed build isn't measured
    factory = fixed_keepalive_factory(10.0)

    def plain():
        return TraceReplayer(
            workload,
            replay_config=replay_config,
            cluster_config=ClusterConfig(num_invokers=8, invoker_memory_mb=2048.0),
            feed=feed,
        ).run(factory)

    def zero_fault():
        return TraceReplayer(
            workload,
            replay_config=replay_config,
            cluster_config=ClusterConfig(
                num_invokers=8,
                invoker_memory_mb=2048.0,
                fault_plan=FaultPlan.none(),
            ),
            feed=feed,
        ).run(factory)

    # Warm both paths once (imports, allocator), then time best-of-N.
    plain()
    zero_fault()
    plain_seconds, plain_result = _best_of(plain)
    gated_seconds, gated_result = _best_of(zero_fault)

    # The gate must not change a single simulated quantity.
    plain_summary = plain_result.metrics.summary()
    gated_summary = gated_result.metrics.summary()
    assert gated_summary == plain_summary

    overhead = gated_seconds / plain_seconds - 1.0
    print(
        f"\nplain replay: {plain_seconds:.3f}s  zero-fault plan: {gated_seconds:.3f}s  "
        f"overhead: {overhead * 100.0:+.2f}% (budget {MAX_OVERHEAD_FRACTION * 100.0:.0f}%)"
    )
    passed = overhead <= MAX_OVERHEAD_FRACTION
    record_bench(
        "platform/zero-fault-plan-overhead",
        statistic=f"best of {REPETITIONS} runs per leg",
        bar=f"zero-fault plan within {MAX_OVERHEAD_FRACTION:.0%} of the plain replay",
        passed=passed,
        plain_seconds=plain_seconds,
        gated_seconds=gated_seconds,
        overhead_fraction=round(overhead, 4),
    )
    assert passed, (
        f"zero-fault injection costs {overhead * 100.0:.1f}% "
        f"(> {MAX_OVERHEAD_FRACTION * 100.0:.0f}%) over the plain replay"
    )
