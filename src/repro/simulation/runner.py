"""Run keep-alive policies over whole workloads.

The runner couples :mod:`repro.simulation.engine` with a
:class:`~repro.policies.registry.PolicyFactory`: every application gets a
fresh policy (policies are stateful and per-application by design) and
the per-app results are aggregated into an
:class:`~repro.simulation.metrics.AggregateResult`.  The ``execution``
field of :class:`RunnerOptions` picks the evaluator (``auto``, each
policy family's fast pass, or ``serial``, the scalar reference loop) and
``workers`` above 1 shards applications across a worker pool.

Every run — one policy or many — routes through the shared-state sweep
engine (:mod:`repro.simulation.sweep_engine`): policy families declared
via :attr:`~repro.policies.registry.PolicyFactory.sweep_key` are
evaluated in one pass over the workload, and a single policy is a family
of one.  The ``sweep`` field of :class:`RunnerOptions` controls the
grouping of multi-policy runs, and duplicate factory names are rejected
with a ``ValueError`` instead of silently overwriting each other's
results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.policies.registry import PolicyFactory
from repro.simulation.engine import RunnerOptions, SimulationEngine
from repro.simulation.metrics import AggregateResult
from repro.simulation.sweep_engine import SweepEngine
from repro.trace.schema import Workload
from repro.trace.store import InvocationStore

__all__ = [
    "RunnerOptions",
    "WorkloadRunner",
    "PolicyComparison",
    "run_policy_over_workload",
]


class WorkloadRunner:
    """Evaluates policies over every application of a workload.

    Also accepts a bare :class:`~repro.trace.store.InvocationStore` — for
    example one streamed to disk by ``repro trace gen`` and re-opened
    memory-mapped — in which case per-application metadata (memory
    weights) is unavailable and every application weighs 1 MB.
    """

    def __init__(
        self,
        workload: Workload | InvocationStore,
        options: RunnerOptions | None = None,
    ) -> None:
        self.workload = workload
        self.options = options or RunnerOptions()
        self._engine = SimulationEngine(workload, self.options)
        self._sweep_engine = SweepEngine(self._engine)

    # ------------------------------------------------------------------ #
    def run_policy(
        self,
        factory: PolicyFactory,
        *,
        progress: Callable[[int, int], None] | None = None,
    ) -> AggregateResult:
        """Simulate one policy (fresh instance per application) over the workload.

        Args:
            factory: Policy factory; called once per application.
            progress: Optional callback ``(done, total)`` for long runs.
        """
        return self._engine.run_policy(factory, progress=progress)

    def run_policies(
        self,
        factories: Sequence[PolicyFactory],
        *,
        progress: Callable[[str, int, int], None] | None = None,
    ) -> dict[str, AggregateResult]:
        """Simulate several policies and return results keyed by policy name.

        Routed through the shared-state sweep engine: factories declaring
        a common :attr:`~repro.policies.registry.PolicyFactory.sweep_key`
        are evaluated as one family in a single pass over the workload
        (subject to ``options.sweep``); everything else runs as a family
        of one, exactly like :meth:`run_policy`.

        Raises:
            ValueError: When two factories share a name — results are
                keyed by name, so duplicates would silently overwrite
                each other.
        """
        return self._sweep_engine.run_policies(factories, progress=progress)

    def sweep_groups(self, factories: Sequence[PolicyFactory]):
        """How :meth:`run_policies` would group these factories.

        Returns the :class:`~repro.simulation.sweep_engine.FactoryGroup`
        list the sweep engine would evaluate under this runner's options —
        shareable families merged, everything else as singletons.  Used by
        the ``repro sweep`` CLI to preview the grouping without running.
        """
        return self._sweep_engine.groups(factories)

    # ------------------------------------------------------------------ #
    def compare(
        self,
        factories: Sequence[PolicyFactory],
        *,
        baseline_name: str | None = None,
    ) -> "PolicyComparison":
        """Run several policies and build a comparison table.

        Args:
            factories: Policies to evaluate.
            baseline_name: Name of the policy used to normalize wasted
                memory time; defaults to a 10-minute fixed policy if one is
                present, otherwise the first policy.
        """
        results = self.run_policies(factories)
        if baseline_name is None:
            baseline_name = next(
                (name for name in results if name == "fixed-10min"), next(iter(results))
            )
        if baseline_name not in results:
            raise ValueError(f"baseline policy {baseline_name!r} was not evaluated")
        return PolicyComparison(results=results, baseline_name=baseline_name)


@dataclass
class PolicyComparison:
    """Results of several policies over the same workload, with a baseline."""

    results: Mapping[str, AggregateResult]
    baseline_name: str

    @property
    def baseline(self) -> AggregateResult:
        return self.results[self.baseline_name]

    def rows(self) -> list[dict[str, float | str]]:
        """One row per policy: the numbers behind Figures 14–18."""
        baseline = self.baseline
        rows: list[dict[str, float | str]] = []
        for name, result in self.results.items():
            rows.append(
                {
                    "policy": name,
                    "third_quartile_app_cold_start_pct": (
                        result.third_quartile_cold_start_percentage
                    ),
                    "overall_cold_start_pct": result.overall_cold_start_percentage,
                    "normalized_wasted_memory_pct": result.normalized_wasted_memory(baseline),
                    "always_cold_fraction": result.always_cold_fraction,
                    "num_apps": result.num_apps,
                }
            )
        return rows

    def as_text_table(self) -> str:
        """Plain-text rendering of :meth:`rows` (used by the CLI and benches)."""
        rows = self.rows()
        header = (
            f"{'policy':<24} {'3Q cold start %':>16} {'overall cold %':>15} "
            f"{'norm. wasted mem %':>19} {'always-cold %':>14}"
        )
        lines = [header, "-" * len(header)]
        for row in rows:
            lines.append(
                f"{row['policy']:<24} "
                f"{row['third_quartile_app_cold_start_pct']:>16.2f} "
                f"{row['overall_cold_start_pct']:>15.2f} "
                f"{row['normalized_wasted_memory_pct']:>19.2f} "
                f"{100.0 * float(row['always_cold_fraction']):>14.2f}"
            )
        return "\n".join(lines)

    def mode_usage_rows(self) -> list[dict[str, float | int | str]]:
        """Decision-mode usage per policy, for policies that track modes.

        One row per policy whose per-app results carry
        :class:`~repro.core.hybrid.HybridPolicyStats`-style mode counters
        (histogram / standard / ARIMA decision counts) plus the fraction
        of observed idle times that fell beyond the histogram range.
        Identical for the hybrid family pass and the serial scalar run of
        the same policy, so the two can be compared at a glance.
        """
        rows: list[dict[str, float | int | str]] = []
        for name, result in self.results.items():
            usage = result.mode_usage()
            if not usage:
                continue
            row: dict[str, float | int | str] = {"policy": name}
            row.update(sorted(usage.items()))
            row["oob_idle_time_pct"] = 100.0 * result.oob_idle_time_fraction
            rows.append(row)
        return rows

    def mode_usage_table(self) -> str:
        """Plain-text rendering of :meth:`mode_usage_rows` ('' when empty)."""
        rows = self.mode_usage_rows()
        if not rows:
            return ""
        # Union of mode keys across all policies: different policy kinds
        # may track different mode sets.
        modes = sorted(
            {key for row in rows for key in row if key not in ("policy", "oob_idle_time_pct")}
        )
        header = f"{'policy':<24} " + " ".join(f"{mode:>12}" for mode in modes)
        header += f" {'OOB idle %':>12}"
        lines = ["decision-mode usage (hybrid policies):", header, "-" * len(header)]
        for row in rows:
            cells = " ".join(f"{row.get(mode, 0):>12}" for mode in modes)
            lines.append(
                f"{row['policy']:<24} {cells} {float(row['oob_idle_time_pct']):>12.2f}"
            )
        return "\n".join(lines)


def run_policy_over_workload(
    workload: Workload | InvocationStore,
    factory: PolicyFactory,
    *,
    options: RunnerOptions | None = None,
) -> AggregateResult:
    """Convenience wrapper: evaluate one policy over a workload."""
    return WorkloadRunner(workload, options).run_policy(factory)
