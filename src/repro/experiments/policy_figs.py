"""Experiment drivers for the policy-evaluation figures (Figures 14–19).

Each driver wraps the corresponding sweep from :mod:`repro.simulation.sweep`
and formats the results as the rows the paper's figure reports: CDFs of
per-application cold-start percentages, 3rd-quartile cold-start vs
normalized wasted memory trade-offs, and always-cold application shares.

Drivers forward ``context.runner_options`` to their sweeps, so the CLI's
``--execution``/``--workers``/``--sweep`` flags pick the evaluator
(``auto`` or the ``serial`` reference), the worker processes to shard
over, and the sweep grouping for every figure.  Under the default
``auto`` grouping each figure's policy family is evaluated in one
shared-state pass by the sweep engine
(:mod:`repro.simulation.sweep_engine`): the whole fixed keep-alive grid
of Figure 14 in one closed-form scan, and the hybrid configurations
behind Figures 15–19 from one shared histogram-update pass with
per-configuration decision masks (ARIMA forecasts fitted once per
application and reused across configurations).  ``--sweep per-policy``
evaluates every configuration as a family of one, and ``--execution
serial`` replays each through the scalar reference loop.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import (
    ExperimentContext,
    ExperimentResult,
    register_experiment,
)
from repro.simulation.metrics import AggregateResult
from repro.simulation.pareto import compare_frontiers
from repro.simulation.sweep import (
    sweep_arima_contribution,
    sweep_cutoffs,
    sweep_cv_threshold,
    sweep_fixed_and_hybrid,
    sweep_fixed_keepalive,
    sweep_prewarming,
)

#: Per-app cold-start percentiles reported for the CDF-style figures.
CDF_PERCENTILES = (25, 50, 75, 90, 95)


def _cdf_row(name: str, result: AggregateResult, baseline: AggregateResult) -> dict[str, object]:
    row: dict[str, object] = {"policy": name}
    values = result.cold_start_percentages()
    for percentile in CDF_PERCENTILES:
        row[f"app_cold_start_p{percentile}"] = (
            float(np.percentile(values, percentile)) if values.size else 0.0
        )
    row["normalized_wasted_memory_pct"] = result.normalized_wasted_memory(baseline)
    row["always_cold_pct"] = 100.0 * result.always_cold_fraction
    return row


@register_experiment("fig14")
def fixed_keepalive_cold_starts(context: ExperimentContext) -> ExperimentResult:
    """Figure 14: cold-start behaviour of the fixed keep-alive policy."""
    sweep = sweep_fixed_keepalive(context.workload, options=context.runner_options)
    rows = [
        _cdf_row(name, result, sweep.baseline) for name, result in sweep.results.items()
    ]
    ten_minute = sweep.results["fixed-10min"].third_quartile_cold_start_percentage
    hour = (
        sweep.results["fixed-60min"].third_quartile_cold_start_percentage
        if "fixed-60min" in sweep.results
        else float("nan")
    )
    return ExperimentResult(
        experiment_id="fig14",
        title="Cold-start behaviour of the fixed keep-alive policy vs keep-alive length",
        rows=rows,
        series={
            name: result.cold_start_cdf() for name, result in sweep.results.items()
        },
        notes=[
            "paper: the 75th-percentile app sees 50.3% cold starts with a 10-minute "
            "keep-alive and 25% with a 1-hour keep-alive; measured: "
            f"{ten_minute:.1f}% and {hour:.1f}%",
            "expected shape: longer keep-alive monotonically reduces cold starts",
        ],
    )


@register_experiment("fig15")
def pareto_fixed_vs_hybrid(context: ExperimentContext) -> ExperimentResult:
    """Figure 15: cold-start vs wasted-memory trade-off, fixed vs hybrid."""
    sweep = sweep_fixed_and_hybrid(context.workload, options=context.runner_options)
    rows = sweep.rows()
    fixed_names = [name for name in sweep.results if name.startswith("fixed")]
    hybrid_names = [name for name in sweep.results if name.startswith("hybrid")]
    fixed_points = sweep.points(fixed_names)
    hybrid_points = sweep.points(hybrid_names)
    notes = [
        "expected shape: the hybrid frontier lies below/left of the fixed frontier",
    ]
    try:
        comparison = compare_frontiers(hybrid_points, fixed_points)
        notes.append(
            "paper: the 10-minute fixed policy has ~2.5x the cold starts of the 4-hour "
            "hybrid at equal memory, and a fixed 2-hour keep-alive needs ~1.5x the "
            "memory for the same cold starts; measured: "
            + comparison.describe()
        )
    except ValueError:
        notes.append("frontier comparison unavailable (degenerate frontier)")
    return ExperimentResult(
        experiment_id="fig15",
        title="Trade-off between cold starts and wasted memory time (fixed vs hybrid)",
        rows=rows,
        series={
            "fixed_frontier": sweep.frontier(fixed_names),
            "hybrid_frontier": sweep.frontier(hybrid_names),
        },
        notes=notes,
    )


@register_experiment("fig16")
def cutoff_sensitivity(context: ExperimentContext) -> ExperimentResult:
    """Figure 16: impact of the histogram head/tail cutoff percentiles."""
    sweep = sweep_cutoffs(context.workload, options=context.runner_options)
    rows = [
        _cdf_row(name, result, sweep.baseline) for name, result in sweep.results.items()
    ]
    results = sweep.results
    full = next((n for n in results if "[0,100]" in n), None)
    trimmed = next((n for n in results if "[5,99]" in n or n.endswith("hybrid-4h")), None)
    notes = [
        "paper: [5,99] cutoffs reduce wasted memory by ~15% relative to [0,100] "
        "with no noticeable cold-start degradation",
    ]
    if full and trimmed:
        saving = sweep.normalized_memory(full) - sweep.normalized_memory(trimmed)
        notes.append(
            f"measured memory saving of {trimmed} vs {full}: {saving:.1f} points "
            f"({sweep.normalized_memory(full):.1f}% -> {sweep.normalized_memory(trimmed):.1f}%)"
        )
    return ExperimentResult(
        experiment_id="fig16",
        title="Impact of excluding IT-distribution outliers (head/tail cutoffs)",
        rows=rows,
        notes=notes,
    )


@register_experiment("fig17")
def prewarming_impact(context: ExperimentContext) -> ExperimentResult:
    """Figure 17: impact of unloading + pre-warming on wasted memory."""
    sweep = sweep_prewarming(context.workload, options=context.runner_options)
    rows = [
        _cdf_row(name, result, sweep.baseline) for name, result in sweep.results.items()
    ]
    no_pw = next((n for n in sweep.results if n.endswith("-nopw")), None)
    with_pw = next(
        (n for n in sweep.results if n.startswith("hybrid") and not n.endswith("-nopw")), None
    )
    notes = [
        "paper: pre-warming significantly reduces wasted memory at the cost of a "
        "slight cold-start increase",
    ]
    if no_pw and with_pw:
        notes.append(
            f"measured: {no_pw} uses {sweep.normalized_memory(no_pw):.1f}% memory vs "
            f"{sweep.normalized_memory(with_pw):.1f}% for {with_pw}; "
            f"3rd-quartile cold starts {sweep.third_quartile(no_pw):.1f}% vs "
            f"{sweep.third_quartile(with_pw):.1f}%"
        )
    return ExperimentResult(
        experiment_id="fig17",
        title="Impact of unloading after execution plus pre-warming",
        rows=rows,
        notes=notes,
    )


@register_experiment("fig18")
def cv_threshold_sensitivity(context: ExperimentContext) -> ExperimentResult:
    """Figure 18: impact of the histogram-representativeness CV threshold."""
    sweep = sweep_cv_threshold(context.workload, options=context.runner_options)
    rows = [
        _cdf_row(name, result, sweep.baseline) for name, result in sweep.results.items()
    ]
    return ExperimentResult(
        experiment_id="fig18",
        title="Impact of the CV threshold used to judge histogram representativeness",
        rows=rows,
        notes=[
            "paper: a small non-zero threshold (CV=2) noticeably reduces cold starts; "
            "increasing it further brings little benefit at higher memory cost",
        ],
    )


@register_experiment("fig19")
def arima_always_cold(context: ExperimentContext) -> ExperimentResult:
    """Figure 19: applications that always experience cold starts."""
    comparison = sweep_arima_contribution(context.workload, options=context.runner_options)
    rows = comparison.rows()
    fixed_pct = 100.0 * comparison.fixed.always_cold_fraction
    no_arima_pct = 100.0 * comparison.hybrid_without_arima.always_cold_fraction
    full_pct = 100.0 * comparison.hybrid.always_cold_fraction
    return ExperimentResult(
        experiment_id="fig19",
        title="Percentage of always-cold applications per policy",
        rows=rows,
        notes=[
            "paper: ARIMA halves the share of always-cold apps (10.5% -> 5.2%); "
            f"measured: fixed {fixed_pct:.1f}%, hybrid w/o ARIMA {no_arima_pct:.1f}%, "
            f"hybrid {full_pct:.1f}%",
            "expected shape: fixed >= hybrid-without-ARIMA >= hybrid",
        ],
    )
