"""Tests for the workload runner and the Figure 14–19 sweeps."""

from __future__ import annotations

import pytest

from repro.policies.registry import (
    fixed_keepalive_factory,
    hybrid_factory,
    no_unloading_factory,
)
from repro.simulation.runner import RunnerOptions, WorkloadRunner, run_policy_over_workload
from repro.simulation.sweep import (
    sweep_arima_contribution,
    sweep_cutoffs,
    sweep_cv_threshold,
    sweep_fixed_and_hybrid,
    sweep_fixed_keepalive,
    sweep_prewarming,
)
from tests.conftest import make_workload


class TestWorkloadRunner:
    def test_one_result_per_active_app(self, two_app_workload):
        runner = WorkloadRunner(two_app_workload)
        result = runner.run_policy(fixed_keepalive_factory(10))
        assert result.num_apps == 2
        assert result.total_invocations == two_app_workload.total_invocations

    def test_min_invocations_filter(self):
        workload = make_workload({"busy": [1.0, 2.0, 3.0], "idle": []})
        runner = WorkloadRunner(workload, RunnerOptions(min_invocations=1))
        result = runner.run_policy(fixed_keepalive_factory(10))
        assert result.num_apps == 1

    def test_memory_weighting(self, two_app_workload):
        weighted = WorkloadRunner(
            two_app_workload, RunnerOptions(use_memory_weights=True)
        ).run_policy(fixed_keepalive_factory(10))
        unweighted = WorkloadRunner(two_app_workload).run_policy(fixed_keepalive_factory(10))
        assert weighted.total_wasted_memory_mb_minutes > unweighted.total_wasted_memory_mb_minutes

    def test_progress_callback_invoked(self, two_app_workload):
        calls = []
        runner = WorkloadRunner(two_app_workload)
        runner.run_policy(fixed_keepalive_factory(10), progress=lambda d, t: calls.append((d, t)))
        assert calls[-1] == (2, 2)

    def test_compare_produces_table(self, two_app_workload):
        runner = WorkloadRunner(two_app_workload)
        comparison = runner.compare(
            [fixed_keepalive_factory(10), no_unloading_factory(), hybrid_factory()]
        )
        table = comparison.as_text_table()
        assert "fixed-10min" in table
        assert "no-unloading" in table
        rows = comparison.rows()
        assert len(rows) == 3
        baseline_row = next(r for r in rows if r["policy"] == "fixed-10min")
        assert baseline_row["normalized_wasted_memory_pct"] == pytest.approx(100.0)

    def test_compare_unknown_baseline_rejected(self, two_app_workload):
        runner = WorkloadRunner(two_app_workload)
        with pytest.raises(ValueError):
            runner.compare([no_unloading_factory()], baseline_name="missing")

    def test_convenience_wrapper(self, two_app_workload):
        result = run_policy_over_workload(two_app_workload, fixed_keepalive_factory(10))
        assert result.policy_name == "fixed-10min"

    @pytest.mark.parametrize("sweep", ["auto", "per-policy"])
    def test_duplicate_factory_names_rejected(self, two_app_workload, sweep):
        """Regression: duplicate names used to silently overwrite results."""
        runner = WorkloadRunner(two_app_workload, RunnerOptions(sweep=sweep))
        duplicates = [fixed_keepalive_factory(10), fixed_keepalive_factory(10.0)]
        with pytest.raises(ValueError, match="duplicate policy name"):
            runner.run_policies(duplicates)
        with pytest.raises(ValueError, match="duplicate policy name"):
            runner.compare(duplicates)

    def test_duplicate_names_rejected_in_sweeps(self, two_app_workload):
        """The same guard covers the figure sweeps' internal _run."""
        with pytest.raises(ValueError, match="duplicate policy name"):
            sweep_fixed_keepalive(two_app_workload, keepalive_minutes=(10, 10))

    def test_distinctly_named_duplicates_still_allowed(self, two_app_workload):
        runner = WorkloadRunner(two_app_workload)
        renamed = fixed_keepalive_factory(10).renamed("fixed-10min-bis")
        results = runner.run_policies([fixed_keepalive_factory(10), renamed])
        assert set(results) == {"fixed-10min", "fixed-10min-bis"}


class TestSweeps:
    def test_fixed_keepalive_sweep_is_monotone(self, medium_workload):
        sweep = sweep_fixed_keepalive(medium_workload, keepalive_minutes=(10, 60, 120))
        q10 = sweep.third_quartile("fixed-10min")
        q60 = sweep.third_quartile("fixed-60min")
        q120 = sweep.third_quartile("fixed-120min")
        assert q10 >= q60 >= q120
        # Longer keep-alive must cost more memory.
        assert sweep.normalized_memory("fixed-120min") > sweep.normalized_memory("fixed-60min")
        # The no-unloading bound has the fewest cold starts of all.
        assert sweep.third_quartile("no-unloading") <= q120

    def test_fixed_and_hybrid_sweep_shapes(self, medium_workload):
        sweep = sweep_fixed_and_hybrid(
            medium_workload, keepalive_minutes=(10, 60, 120), range_hours=(1, 4)
        )
        rows = sweep.rows()
        assert {row["policy"] for row in rows} >= {
            "fixed-10min",
            "fixed-60min",
            "hybrid-1h",
            "hybrid-4h",
        }
        # The paper's central claim: the hybrid policy achieves fewer cold
        # starts than the fixed policy of equal horizon (range == keep-alive).
        assert sweep.third_quartile("hybrid-1h") <= sweep.third_quartile("fixed-60min") + 1e-9
        assert sweep.third_quartile("hybrid-4h") < sweep.third_quartile("fixed-10min")
        # And it does so with less wasted memory than the fixed policy whose
        # keep-alive equals the histogram range.
        assert sweep.normalized_memory("hybrid-1h") < sweep.normalized_memory("fixed-60min")

    def test_cutoff_sweep_memory_ordering(self, medium_workload):
        sweep = sweep_cutoffs(
            medium_workload, cutoffs=((0.0, 100.0), (5.0, 99.0)), include_no_unloading=False
        )
        names = [name for name in sweep.results if name.startswith("hybrid")]
        full = next(name for name in names if "[0,100]" in name)
        trimmed = next(name for name in names if name != full)
        # Trimming the tail cannot increase memory consumption.
        assert sweep.normalized_memory(trimmed) <= sweep.normalized_memory(full) + 1e-6

    def test_prewarming_sweep(self, medium_workload):
        sweep = sweep_prewarming(medium_workload)
        no_pw = next(name for name in sweep.results if name.endswith("-nopw"))
        with_pw = next(
            name
            for name in sweep.results
            if name.startswith("hybrid") and not name.endswith("-nopw")
        )
        # Pre-warming (unloading right after execution) saves memory.
        assert sweep.normalized_memory(with_pw) < sweep.normalized_memory(no_pw)
        # At the cost of no fewer cold starts.
        assert sweep.third_quartile(with_pw) >= sweep.third_quartile(no_pw) - 1e-9

    def test_cv_threshold_sweep_runs_all_thresholds(self, medium_workload):
        sweep = sweep_cv_threshold(medium_workload, thresholds=(0.0, 2.0))
        assert "hybrid-cv0" in sweep.results
        assert "hybrid-cv2" in sweep.results

    def test_arima_contribution_ordering(self, medium_workload):
        comparison = sweep_arima_contribution(medium_workload)
        fixed = comparison.fixed.always_cold_fraction
        without = comparison.hybrid_without_arima.always_cold_fraction
        full = comparison.hybrid.always_cold_fraction
        assert 0.0 <= fixed <= 1.0
        # ARIMA can only help the apps the histogram cannot capture.
        assert full <= without + 1e-9
        rows = comparison.rows()
        assert [row["policy"] for row in rows] == [
            "fixed",
            "hybrid-without-arima",
            "hybrid",
        ]
