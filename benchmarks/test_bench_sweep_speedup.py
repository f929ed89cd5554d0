"""Shared-state sweep engine speedup benchmark (the PR 4 acceptance bar).

Runs the combined Figure 14 + 16 + 18 policy list — the full fixed
keep-alive grid, the no-unloading bound, the six head/tail cutoff
configurations, and the four CV-threshold configurations — over the
session workload (150 apps, 3 days), twice:

* **per-config**: ``sweep="per-policy"``, every configuration as a family
  of one (one closed-form pass per fixed window, one recording pass per
  hybrid configuration) — the baseline;
* **family**: the shared-state sweep engine
  (:mod:`repro.simulation.sweep_engine`), which evaluates the fixed grid
  in one closed-form pass over shared gaps and all ten hybrid
  configurations from one shared histogram pass plus per-config decision
  masks.

Asserts the acceptance criterion directly: the family sweep is at least
3x faster, while the per-application results match the per-config runs —
cold-start counts exactly, wasted memory within 1e-9.

A second leg adds Figure 15's histogram-range sweep (1-4 h hybrids) to
the list.  All four ranges share one recording pass, so that leg tracks
the range-nested family under its own ``BENCH_results.json`` key (the
first key's trend history stays comparable).

The module carries the ``slow_bench`` marker, so it stays out of the
default (tier-1) run; CI exercises it in the nightly/workflow-dispatch
job (.github/workflows/nightly.yml)::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_sweep_speedup.py -m slow_bench
"""

from __future__ import annotations

import time

import pytest

from repro.policies.registry import FAMILY_HYBRID_HISTOGRAM
from repro.simulation.runner import RunnerOptions, WorkloadRunner
from repro.simulation.sweep import combined_figure_factories

pytestmark = pytest.mark.slow_bench

WASTE_TOLERANCE = 1e-9
SWEEP_FIGURES = ("fig14", "fig16", "fig18")
RANGE_SWEEP_FIGURES = ("fig14", "fig15", "fig16", "fig18")


@pytest.fixture(scope="module")
def workload(experiment_context):
    return experiment_context.workload


@pytest.fixture(scope="module")
def factories():
    return combined_figure_factories(SWEEP_FIGURES)


def _assert_family_matches(family_results, reference) -> None:
    """Per-app cold starts exact, waste within 1e-9, mode usage exact."""
    assert set(family_results) == set(reference)
    for name, expected in reference.items():
        actual = family_results[name]
        assert len(actual.app_results) == len(expected.app_results)
        for reference_app, actual_app in zip(expected.app_results, actual.app_results):
            assert actual_app.app_id == reference_app.app_id
            assert actual_app.cold_starts == reference_app.cold_starts
            assert actual_app.wasted_memory_minutes == pytest.approx(
                reference_app.wasted_memory_minutes,
                abs=WASTE_TOLERANCE,
                rel=WASTE_TOLERANCE,
            )
        assert actual.mode_usage() == expected.mode_usage()


def _best_of(runs: int, fn) -> float:
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_sweep_engine_matches_and_is_at_least_3x(workload, factories, record_bench):
    """The PR 4 acceptance criterion, asserted directly."""
    per_config = WorkloadRunner(workload, RunnerOptions(sweep="per-policy"))
    family = WorkloadRunner(workload, RunnerOptions())

    family_results = family.run_policies(factories)  # also warms both paths
    reference = per_config.run_policies(factories)

    # Equivalence first: a fast sweep that disagrees with the per-config
    # runs would be worthless.
    _assert_family_matches(family_results, reference)

    per_config_best = _best_of(2, lambda: per_config.run_policies(factories))
    family_best = _best_of(3, lambda: family.run_policies(factories))
    speedup = per_config_best / family_best
    print(
        f"\ncombined {'+'.join(SWEEP_FIGURES)} sweep ({len(factories)} configs): "
        f"per-config best {per_config_best * 1e3:.0f} ms, "
        f"family best {family_best * 1e3:.0f} ms, speedup {speedup:.1f}x"
    )
    passed = speedup >= 3.0
    record_bench(
        "sweep/family-vs-per-config",
        statistic="best of 2 (per-config) and 3 (family) runs",
        bar="family results equal per-config results; family >= 3x per-config",
        passed=passed,
        speedup=speedup,
        per_config_seconds=per_config_best,
        family_seconds=family_best,
        configs=len(factories),
    )
    assert passed, f"family sweep speedup {speedup:.2f}x below 3x"


def test_range_sweep_family_matches_per_config(workload, record_bench):
    """Figures 14+15+16+18: all four histogram ranges in one family pass."""
    factories = combined_figure_factories(RANGE_SWEEP_FIGURES)
    per_config = WorkloadRunner(workload, RunnerOptions(sweep="per-policy"))
    family = WorkloadRunner(workload, RunnerOptions())
    hybrid_groups = [
        group
        for group in family.sweep_groups(factories)
        if group.key and group.key[0] == FAMILY_HYBRID_HISTOGRAM
    ]
    assert len(hybrid_groups) == 1

    family_results = family.run_policies(factories)  # also warms both paths
    _assert_family_matches(family_results, per_config.run_policies(factories))

    per_config_best = _best_of(2, lambda: per_config.run_policies(factories))
    family_best = _best_of(3, lambda: family.run_policies(factories))
    speedup = per_config_best / family_best
    print(
        f"\ncombined {'+'.join(RANGE_SWEEP_FIGURES)} sweep ({len(factories)} configs): "
        f"per-config best {per_config_best * 1e3:.0f} ms, "
        f"family best {family_best * 1e3:.0f} ms, speedup {speedup:.1f}x"
    )
    # The bar is the equality asserted above, before any timing.
    record_bench(
        "sweep/range-family-vs-per-config",
        statistic="best of 2 (per-config) and 3 (family) runs",
        bar="family results equal per-config results",
        passed=True,
        speedup=speedup,
        per_config_seconds=per_config_best,
        family_seconds=family_best,
        configs=len(factories),
    )


@pytest.mark.parametrize("sweep", ["per-policy", "auto"])
def test_bench_combined_figure_sweep(benchmark, workload, factories, sweep):
    """Head-to-head pytest-benchmark group: per-config vs family sweep."""
    runner = WorkloadRunner(workload, RunnerOptions(sweep=sweep))
    benchmark.group = "combined fig14+16+18 sweep over session workload"
    results = benchmark.pedantic(
        runner.run_policies, args=(factories,), iterations=1, rounds=1, warmup_rounds=1
    )
    assert len(results) == len(factories)
