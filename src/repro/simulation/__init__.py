"""Trace-driven cold-start simulation (Section 5.1 methodology).

Execution
---------
Every policy run goes through the shared-state sweep engine
(:mod:`repro.simulation.sweep_engine`): policy families declared via
:attr:`~repro.policies.registry.PolicyFactory.sweep_key` (the whole
fixed keep-alive grid; hybrid configurations sharing one histogram
geometry) are evaluated in a single pass over the workload, with
per-configuration knobs applied as decision masks over the shared
trace-derived state, and a single-policy run is a family of one.  The
``execution`` field of :class:`RunnerOptions` picks the evaluator (see
:mod:`repro.simulation.engine`):

* ``auto`` (default) — each family's fast evaluator: closed form for the
  fixed keep-alive family and no-unloading, one recording pass plus
  decision masks for the hybrid policy, and the scalar loop for
  factories that declare no family.
* ``serial`` — the reference scalar loop: one
  :meth:`ColdStartSimulator.simulate_app` call per application, one
  ``policy.on_invocation`` call per invocation.  Slowest, and the ground
  truth the fast evaluators are tested against.

``workers`` above 1 shards applications across a ``fork`` pool and
reassembles the per-shard results in workload order, so output is
deterministic and independent of the worker count.  The ``sweep`` field
selects the grouping: ``auto`` shares state within families,
``per-policy`` evaluates every configuration as a family of one.

``tests/simulation/test_engine_equivalence.py`` locks the evaluators to
the serial reference: identical cold-start counts and wasted-memory
minutes (to 1e-9) for every registered policy family, sharded or not,
and ``tests/simulation/test_sweep_equivalence.py`` does the same for
whole families against each configuration run alone.
``benchmarks/test_bench_engine_speedup.py`` and
``benchmarks/test_bench_sweep_speedup.py`` measure the speedups (see
benchmarks/conftest.py for how to run them).
"""

from repro.simulation.coldstart import ColdStartSimulator, simulate_application
from repro.simulation.engine import (
    EXECUTION_MODES,
    SWEEP_MODES,
    SimulationEngine,
)
from repro.simulation.metrics import AggregateResult, AppSimResult, merge_results
from repro.simulation.pareto import (
    FrontierComparison,
    TradeOffPoint,
    compare_frontiers,
    interpolate_cold_start_at_memory,
    interpolate_memory_at_cold_start,
    pareto_frontier,
    trade_off_points,
)
from repro.simulation.runner import (
    PolicyComparison,
    RunnerOptions,
    WorkloadRunner,
    run_policy_over_workload,
)
from repro.simulation.sweep import (
    AlwaysColdComparison,
    FIGURE_15_HYBRID_RANGE_HOURS,
    FIGURE_16_CUTOFFS,
    FIGURE_18_CV_THRESHOLDS,
    SweepResult,
    combined_figure_factories,
    figure_factories,
    sweep_arima_contribution,
    sweep_cutoffs,
    sweep_cv_threshold,
    sweep_fixed_and_hybrid,
    sweep_fixed_keepalive,
    sweep_hybrid_ranges,
    sweep_prewarming,
)
from repro.simulation.sweep_engine import (
    FactoryGroup,
    SweepEngine,
    check_unique_policy_names,
    group_factories,
)

__all__ = [
    "ColdStartSimulator",
    "simulate_application",
    "EXECUTION_MODES",
    "SWEEP_MODES",
    "SimulationEngine",
    "FactoryGroup",
    "SweepEngine",
    "check_unique_policy_names",
    "group_factories",
    "AggregateResult",
    "AppSimResult",
    "merge_results",
    "FrontierComparison",
    "TradeOffPoint",
    "compare_frontiers",
    "interpolate_cold_start_at_memory",
    "interpolate_memory_at_cold_start",
    "pareto_frontier",
    "trade_off_points",
    "PolicyComparison",
    "RunnerOptions",
    "WorkloadRunner",
    "run_policy_over_workload",
    "AlwaysColdComparison",
    "FIGURE_15_HYBRID_RANGE_HOURS",
    "FIGURE_16_CUTOFFS",
    "FIGURE_18_CV_THRESHOLDS",
    "SweepResult",
    "combined_figure_factories",
    "figure_factories",
    "sweep_arima_contribution",
    "sweep_cutoffs",
    "sweep_cv_threshold",
    "sweep_fixed_and_hybrid",
    "sweep_fixed_keepalive",
    "sweep_hybrid_ranges",
    "sweep_prewarming",
]
