"""Parameter sweeps behind Figures 14–19.

Each sweep function evaluates a family of policy configurations over the
same workload and returns the per-configuration aggregates, normalized to
the 10-minute fixed keep-alive baseline where the paper does so.  The
experiment drivers in :mod:`repro.experiments` format these results into
the paper's tables and series.

Every sweep accepts a :class:`RunnerOptions`: ``execution`` picks the
evaluator (``auto`` or the ``serial`` reference loop, see
:mod:`repro.simulation.engine`) and ``workers`` the processes to shard
applications over; e.g.
``sweep_fixed_keepalive(workload, options=RunnerOptions(workers=4))``
shards the fixed-policy family across four worker processes.

Every sweep runs through :meth:`WorkloadRunner.run_policies` and
therefore through the shared-state sweep engine
(:mod:`repro.simulation.sweep_engine`): under the default ``auto``
grouping, the whole fixed keep-alive grid is evaluated in one closed-form
pass over shared per-app gaps, and hybrid configurations sharing a bin
width (all of Figures 15–19: every histogram range nests exactly in the
widest one) share one histogram-update pass, with per-configuration
ranges/cutoffs/CV thresholds evaluated as decision masks and ARIMA
forecasts fitted once per application.  Pass
``RunnerOptions(sweep="per-policy")`` to evaluate every configuration as
a family of one.

:func:`figure_factories` exposes each figure's default factory list (and
:func:`combined_figure_factories` their deduplicated union) for the
``repro sweep`` CLI and the sweep benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.config import HybridPolicyConfig
from repro.policies.fixed import FIGURE_14_KEEPALIVE_MINUTES
from repro.policies.registry import (
    PolicyFactory,
    fixed_keepalive_factory,
    hybrid_factory,
    no_unloading_factory,
)
from repro.simulation.metrics import AggregateResult
from repro.simulation.pareto import TradeOffPoint, pareto_frontier, trade_off_points
from repro.simulation.runner import RunnerOptions, WorkloadRunner
from repro.trace.schema import Workload

#: Histogram ranges, in hours, evaluated for the hybrid policy in Figure 15.
FIGURE_15_HYBRID_RANGE_HOURS: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0)

#: Head/tail cutoff pairs evaluated in Figure 16.
FIGURE_16_CUTOFFS: tuple[tuple[float, float], ...] = (
    (0.0, 100.0),
    (5.0, 100.0),
    (1.0, 99.0),
    (5.0, 99.0),
    (1.0, 95.0),
    (5.0, 95.0),
)

#: CV thresholds evaluated in Figure 18.
FIGURE_18_CV_THRESHOLDS: tuple[float, ...] = (0.0, 2.0, 5.0, 10.0)

BASELINE_KEEPALIVE_MINUTES = 10.0


@dataclass
class SweepResult:
    """Results of one sweep: aggregates keyed by configuration label."""

    results: dict[str, AggregateResult]
    baseline_name: str

    @property
    def baseline(self) -> AggregateResult:
        return self.results[self.baseline_name]

    def normalized_memory(self, name: str) -> float:
        """Wasted memory of one configuration, % of the baseline's."""
        return self.results[name].normalized_wasted_memory(self.baseline)

    def third_quartile(self, name: str) -> float:
        return self.results[name].third_quartile_cold_start_percentage

    def points(self, names: Sequence[str] | None = None) -> list[TradeOffPoint]:
        """Trade-off points for (a subset of) the sweep configurations."""
        selected = (
            {name: self.results[name] for name in names} if names is not None else self.results
        )
        return trade_off_points(selected, self.baseline)

    def frontier(self, names: Sequence[str] | None = None) -> list[TradeOffPoint]:
        return pareto_frontier(self.points(names))

    def rows(self) -> list[dict[str, float | str]]:
        baseline = self.baseline
        return [
            {
                "policy": name,
                "third_quartile_app_cold_start_pct": (
                    result.third_quartile_cold_start_percentage
                ),
                "normalized_wasted_memory_pct": result.normalized_wasted_memory(baseline),
                "always_cold_pct": 100.0 * result.always_cold_fraction,
            }
            for name, result in self.results.items()
        ]


def _run(
    workload: Workload,
    factories: Sequence[PolicyFactory],
    *,
    baseline_minutes: float = BASELINE_KEEPALIVE_MINUTES,
    options: RunnerOptions | None = None,
) -> SweepResult:
    """Run factories plus the normalization baseline over the workload.

    The evaluator (``auto`` / ``serial``) and the worker count come from
    ``options``; the runner routes shareable policy families through the
    sweep engine (:mod:`repro.simulation.sweep_engine`) per
    ``options.sweep``.
    Duplicate factory names raise ``ValueError`` (results are keyed by
    name and would silently overwrite each other).
    """
    baseline_factory = fixed_keepalive_factory(baseline_minutes)
    all_factories = list(factories)
    if all(factory.name != baseline_factory.name for factory in all_factories):
        all_factories.append(baseline_factory)
    runner = WorkloadRunner(workload, options)
    results = runner.run_policies(all_factories)
    return SweepResult(results=results, baseline_name=baseline_factory.name)


# --------------------------------------------------------------------------- #
# Figure 14: fixed keep-alive lengths (plus the no-unloading upper bound)
# --------------------------------------------------------------------------- #
def sweep_fixed_keepalive(
    workload: Workload,
    keepalive_minutes: Sequence[float] = FIGURE_14_KEEPALIVE_MINUTES,
    *,
    include_no_unloading: bool = True,
    options: RunnerOptions | None = None,
) -> SweepResult:
    """Evaluate the fixed keep-alive policy for several window lengths."""
    factories: list[PolicyFactory] = [fixed_keepalive_factory(m) for m in keepalive_minutes]
    if include_no_unloading:
        factories.append(no_unloading_factory())
    return _run(workload, factories, options=options)


# --------------------------------------------------------------------------- #
# Figure 15: fixed family vs hybrid family (histogram range sweep)
# --------------------------------------------------------------------------- #
def sweep_hybrid_ranges(
    workload: Workload,
    range_hours: Sequence[float] = FIGURE_15_HYBRID_RANGE_HOURS,
    *,
    base_config: HybridPolicyConfig | None = None,
    options: RunnerOptions | None = None,
) -> SweepResult:
    """Evaluate the hybrid policy for several histogram ranges."""
    base = base_config or HybridPolicyConfig()
    factories = [hybrid_factory(base.with_range_hours(hours)) for hours in range_hours]
    return _run(workload, factories, options=options)


def sweep_fixed_and_hybrid(
    workload: Workload,
    *,
    keepalive_minutes: Sequence[float] = FIGURE_14_KEEPALIVE_MINUTES,
    range_hours: Sequence[float] = FIGURE_15_HYBRID_RANGE_HOURS,
    base_config: HybridPolicyConfig | None = None,
    options: RunnerOptions | None = None,
) -> SweepResult:
    """The full Figure 15 sweep: both policy families over one workload."""
    base = base_config or HybridPolicyConfig()
    factories: list[PolicyFactory] = [fixed_keepalive_factory(m) for m in keepalive_minutes]
    factories.extend(hybrid_factory(base.with_range_hours(hours)) for hours in range_hours)
    return _run(workload, factories, options=options)


# --------------------------------------------------------------------------- #
# Figure 16: head/tail cutoff percentiles
# --------------------------------------------------------------------------- #
def sweep_cutoffs(
    workload: Workload,
    cutoffs: Sequence[tuple[float, float]] = FIGURE_16_CUTOFFS,
    *,
    base_config: HybridPolicyConfig | None = None,
    include_no_unloading: bool = True,
    options: RunnerOptions | None = None,
) -> SweepResult:
    """Evaluate the hybrid policy for several head/tail cutoff pairs."""
    base = base_config or HybridPolicyConfig()
    factories: list[PolicyFactory] = []
    if include_no_unloading:
        factories.append(no_unloading_factory())
    for head, tail in cutoffs:
        factories.append(hybrid_factory(base.with_cutoffs(head, tail)))
    return _run(workload, factories, options=options)


# --------------------------------------------------------------------------- #
# Figure 17: pre-warming on/off and head percentile
# --------------------------------------------------------------------------- #
def sweep_prewarming(
    workload: Workload,
    *,
    base_config: HybridPolicyConfig | None = None,
    options: RunnerOptions | None = None,
) -> SweepResult:
    """Evaluate pre-warming variants of the hybrid policy (Figure 17).

    The three configurations match the paper's labels:

    * ``hybrid-…-nopw`` — keep-alive from the 99th-percentile tail, never
      unload after an execution ("Hybrid No PW, KA:99th");
    * ``hybrid-…[1,99]`` — pre-warm from the 1st percentile;
    * ``hybrid-…[5,99]`` — pre-warm from the 5th percentile (default).
    """
    base = base_config or HybridPolicyConfig()
    return _run(workload, _prewarming_factories(base), options=options)


def _prewarming_factories(base: HybridPolicyConfig) -> list[PolicyFactory]:
    """The Figure 17 policy list (pre-warming variants + upper bound)."""
    return [
        hybrid_factory(base.with_overrides(enable_prewarming=False)),
        hybrid_factory(base.with_cutoffs(1.0, 99.0)),
        hybrid_factory(base.with_cutoffs(5.0, 99.0)),
        no_unloading_factory(),
    ]


# --------------------------------------------------------------------------- #
# Figure 18: representativeness CV threshold
# --------------------------------------------------------------------------- #
def sweep_cv_threshold(
    workload: Workload,
    thresholds: Sequence[float] = FIGURE_18_CV_THRESHOLDS,
    *,
    base_config: HybridPolicyConfig | None = None,
    options: RunnerOptions | None = None,
) -> SweepResult:
    """Evaluate the hybrid policy for several CV thresholds (4-hour range)."""
    base = base_config or HybridPolicyConfig()
    factories = [_cv_threshold_factory(base, threshold) for threshold in thresholds]
    factories.append(no_unloading_factory())
    return _run(workload, factories, options=options)


def _cv_threshold_factory(base: HybridPolicyConfig, threshold: float) -> PolicyFactory:
    """One Figure 18 configuration, relabelled by its CV threshold.

    ``renamed`` keeps the family metadata, so the whole threshold grid
    still shares a single histogram pass in the sweep engine.
    """
    return hybrid_factory(base.with_overrides(cv_threshold=threshold)).renamed(
        f"hybrid-cv{threshold:g}"
    )


# --------------------------------------------------------------------------- #
# Figure 19: contribution of the ARIMA component
# --------------------------------------------------------------------------- #
@dataclass
class AlwaysColdComparison:
    """Always-cold application fractions for the Figure 19 policies."""

    fixed: AggregateResult
    hybrid_without_arima: AggregateResult
    hybrid: AggregateResult

    def rows(self) -> list[dict[str, float | str]]:
        return [
            {
                "policy": label,
                "always_cold_pct": 100.0 * result.always_cold_fraction,
                "always_cold_excl_single_pct": (
                    100.0 * result.always_cold_fraction_excluding_single()
                ),
                "single_invocation_pct": 100.0 * result.single_invocation_fraction,
            }
            for label, result in (
                ("fixed", self.fixed),
                ("hybrid-without-arima", self.hybrid_without_arima),
                ("hybrid", self.hybrid),
            )
        ]


def sweep_arima_contribution(
    workload: Workload,
    *,
    range_minutes: float = 240.0,
    base_config: HybridPolicyConfig | None = None,
    options: RunnerOptions | None = None,
) -> AlwaysColdComparison:
    """Compare fixed, hybrid-without-ARIMA, and full hybrid policies.

    All three use the same 4-hour horizon, as in Figure 19: the fixed
    keep-alive window and the histogram range are both ``range_minutes``.

    The three policies run through one :meth:`WorkloadRunner.run_policies`
    call, so the two hybrid variants — which share their histogram
    geometry — are evaluated from a single shared histogram pass by the
    sweep engine (the ARIMA-free variant simply never takes the forecast
    branch).
    """
    base = (base_config or HybridPolicyConfig()).with_overrides(
        histogram_range_minutes=range_minutes
    )
    runner = WorkloadRunner(workload, options)
    factories = [
        fixed_keepalive_factory(range_minutes),
        hybrid_factory(base.with_overrides(enable_arima=False)),
        hybrid_factory(base),
    ]
    results = runner.run_policies(factories)
    return AlwaysColdComparison(
        fixed=results[factories[0].name],
        hybrid_without_arima=results[factories[1].name],
        hybrid=results[factories[2].name],
    )


# --------------------------------------------------------------------------- #
# Default figure factory lists (the `repro sweep` CLI and the benchmarks)
# --------------------------------------------------------------------------- #
def figure_factories(
    figure: str, *, base_config: HybridPolicyConfig | None = None
) -> list[PolicyFactory]:
    """The default policy list behind one of the sweep figures.

    Args:
        figure: ``fig14`` (fixed keep-alive grid + no-unloading),
            ``fig15`` (fixed grid + hybrid histogram ranges), ``fig16``
            (head/tail cutoffs), ``fig17`` (pre-warming variants), or
            ``fig18`` (CV thresholds).
        base_config: Base hybrid configuration the variants derive from.

    Raises:
        ValueError: For an unknown figure identifier.
    """
    base = base_config or HybridPolicyConfig()
    if figure == "fig14":
        factories: list[PolicyFactory] = [
            fixed_keepalive_factory(m) for m in FIGURE_14_KEEPALIVE_MINUTES
        ]
        factories.append(no_unloading_factory())
        return factories
    if figure == "fig15":
        factories = [fixed_keepalive_factory(m) for m in FIGURE_14_KEEPALIVE_MINUTES]
        factories.extend(
            hybrid_factory(base.with_range_hours(hours))
            for hours in FIGURE_15_HYBRID_RANGE_HOURS
        )
        return factories
    if figure == "fig16":
        factories = [no_unloading_factory()]
        factories.extend(
            hybrid_factory(base.with_cutoffs(head, tail))
            for head, tail in FIGURE_16_CUTOFFS
        )
        return factories
    if figure == "fig17":
        return _prewarming_factories(base)
    if figure == "fig18":
        factories = [
            _cv_threshold_factory(base, threshold)
            for threshold in FIGURE_18_CV_THRESHOLDS
        ]
        factories.append(no_unloading_factory())
        return factories
    raise ValueError(
        f"unknown sweep figure {figure!r}; expected one of "
        "fig14, fig15, fig16, fig17, fig18"
    )


def combined_figure_factories(
    figures: Iterable[str],
    *,
    base_config: HybridPolicyConfig | None = None,
    include_baseline: bool = True,
) -> list[PolicyFactory]:
    """Deduplicated union of several figures' policy lists.

    Keeps the first occurrence of each policy name (the figures share the
    no-unloading bound and often the 10-minute baseline) and optionally
    appends the 10-minute normalization baseline when absent, so the
    result can be fed straight to
    :meth:`~repro.simulation.runner.WorkloadRunner.run_policies`.
    """
    factories: list[PolicyFactory] = []
    seen: set[str] = set()
    for figure in figures:
        for factory in figure_factories(figure, base_config=base_config):
            if factory.name not in seen:
                seen.add(factory.name)
                factories.append(factory)
    if include_baseline:
        baseline = fixed_keepalive_factory(BASELINE_KEEPALIVE_MINUTES)
        if baseline.name not in seen:
            factories.append(baseline)
    return factories
