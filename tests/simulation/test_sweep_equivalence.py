"""Sweep-equivalence suite: the shared-state sweep engine vs per-config runs.

The sweep engine (:mod:`repro.simulation.sweep_engine`) evaluates a whole
policy family in one pass over the workload — shared per-app gaps for the
constant-keep-alive grid, one shared histogram pass plus per-config
decision masks for the hybrid family — and runs a single policy as a
family of one.  This suite locks down the contract that makes that safe:
for every figure family (14, 15, 16, 17, 18, and the Figure 19 ARIMA
comparison) and for mixed shareable/unshareable factory lists, the
per-application results match the serial reference run of each
configuration — cold-start counts exactly, wasted memory within 1e-9,
decision-mode counters and OOB counts exactly — every configuration
gives the same results alone as inside its family, and the family pass
composes with sharding and memory-bounded chunking unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.simulation.sweep_engine as sweep_engine_module
from repro.core.config import HybridPolicyConfig
from repro.core.histogram import IdleTimeHistogram
from repro.core.histogram_bank import HistogramBank
from repro.policies.fixed import FixedKeepAlivePolicy
from repro.policies.registry import (
    FAMILY_CONSTANT_KEEPALIVE,
    FAMILY_HYBRID_HISTOGRAM,
    PolicyFactory,
    fixed_keepalive_factory,
    hybrid_factory,
    no_unloading_factory,
)
from repro.simulation.coldstart import DEFAULT_SCALAR_DRAIN_THRESHOLD
from repro.simulation.engine import SimulationEngine
from repro.simulation.runner import PolicyComparison, RunnerOptions, WorkloadRunner
from repro.simulation.sweep import (
    FIGURE_16_CUTOFFS,
    FIGURE_18_CV_THRESHOLDS,
    combined_figure_factories,
    figure_factories,
    sweep_arima_contribution,
)
from repro.simulation.sweep_engine import group_factories
from tests.conftest import make_workload
from tests.simulation.test_bank_equivalence import (
    assert_app_results_match,
    random_app_streams,
)

HORIZON = 3 * 1440.0


@pytest.fixture(scope="module")
def streams_workload():
    """All four stream archetypes (dense, ARIMA-triggering, tiny, bursty)."""
    streams = random_app_streams(2020, num_apps=32)
    return make_workload(
        {app_id: list(times) for app_id, times in streams.items()},
        duration_minutes=HORIZON,
    )


def run_both(workload, factories):
    """One serial reference run per policy and one family run of the list."""
    reference = WorkloadRunner(
        workload, RunnerOptions(execution="serial", sweep="per-policy")
    ).run_policies(factories)
    family = WorkloadRunner(workload).run_policies(factories)
    return reference, family


def assert_results_match(reference, family):
    assert list(family) == list(reference)
    for name in reference:
        assert_app_results_match(
            list(reference[name].app_results), list(family[name].app_results)
        )


# --------------------------------------------------------------------------- #
# Grouping and the factory capability
# --------------------------------------------------------------------------- #
class TestFactoryGrouping:
    def test_sweep_keys(self):
        assert fixed_keepalive_factory(10).sweep_key == (FAMILY_CONSTANT_KEEPALIVE,)
        assert no_unloading_factory().sweep_key == (FAMILY_CONSTANT_KEEPALIVE,)
        hybrid = hybrid_factory()
        assert hybrid.sweep_key == (FAMILY_HYBRID_HISTOGRAM, 1.0)
        # Ranges nest exactly at one power-of-two bin width -> one family.
        assert hybrid_factory(histogram_range_minutes=60.0).sweep_key == hybrid.sweep_key
        # A different bin width is a different family.
        assert hybrid_factory(bin_width_minutes=0.5).sweep_key == (
            FAMILY_HYBRID_HISTOGRAM,
            0.5,
        )
        # Knob-only variants share the key (that is the whole point).
        assert hybrid_factory(cv_threshold=7.0).sweep_key == hybrid.sweep_key
        assert hybrid_factory(enable_arima=False).sweep_key == hybrid.sweep_key

    def test_bare_factory_is_unshareable(self):
        bare = PolicyFactory(name="custom", builder=lambda: FixedKeepAlivePolicy(7.0))
        assert bare.sweep_key is None

    def test_renamed_preserves_family_metadata(self):
        renamed = hybrid_factory(cv_threshold=5.0).renamed("hybrid-cv5")
        assert renamed.name == "hybrid-cv5"
        assert renamed.sweep_key == hybrid_factory().sweep_key
        assert renamed.family_config.cv_threshold == 5.0

    def test_grouping_preserves_order_and_isolates_unshareable(self):
        bare = PolicyFactory(name="custom", builder=lambda: FixedKeepAlivePolicy(7.0))
        factories = [
            fixed_keepalive_factory(10),
            hybrid_factory(),
            bare,
            no_unloading_factory(),
            hybrid_factory(cv_threshold=5.0).renamed("hybrid-cv5"),
            hybrid_factory(histogram_range_minutes=60.0),
            hybrid_factory(bin_width_minutes=0.5),
        ]
        groups = group_factories(factories)
        assert [group.key and group.key[0] for group in groups] == [
            FAMILY_CONSTANT_KEEPALIVE,
            FAMILY_HYBRID_HISTOGRAM,
            None,
            FAMILY_HYBRID_HISTOGRAM,
        ]
        assert [factory.name for factory in groups[0].factories] == [
            "fixed-10min",
            "no-unloading",
        ]
        assert [factory.name for factory in groups[1].factories] == [
            "hybrid-4h",
            "hybrid-cv5",
            "hybrid-1h",
        ]
        assert groups[3].key == (FAMILY_HYBRID_HISTOGRAM, 0.5)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"bin_width_minutes": 0.3, "histogram_range_minutes": 60.0},
            {"histogram_range_minutes": 60.5},
        ],
        ids=["bin-width-0.3", "range-60.5"],
    )
    def test_inexact_geometry_keeps_its_own_group(self, overrides):
        """Ranges that are not a bin prefix of a wider histogram stay apart."""
        odd = hybrid_factory(**overrides)
        assert odd.sweep_key == (
            FAMILY_HYBRID_HISTOGRAM,
            odd.family_config.histogram_range_minutes,
            odd.family_config.bin_width_minutes,
        )
        groups = group_factories([hybrid_factory(), odd, hybrid_factory(cv_threshold=5.0)])
        assert [len(group.factories) for group in groups] == [2, 1]
        assert groups[1].factories == (odd,)

    def test_grouping_disabled_yields_families_of_one(self):
        factories = [fixed_keepalive_factory(10), no_unloading_factory()]
        groups = group_factories(factories, enabled=False)
        assert [group.factories for group in groups] == [(f,) for f in factories]
        assert [group.key for group in groups] == [(FAMILY_CONSTANT_KEEPALIVE,)] * 2

    def test_sweep_mode_selects_grouping(self):
        workload = make_workload({"a": [1.0, 2.0]}, duration_minutes=10.0)
        factories = [fixed_keepalive_factory(10), no_unloading_factory()]

        def group_sizes(**options):
            runner = WorkloadRunner(workload, RunnerOptions(**options))
            return [len(group.factories) for group in runner.sweep_groups(factories)]

        assert group_sizes() == [2]
        assert group_sizes(execution="serial") == [2]
        assert group_sizes(sweep="per-policy") == [1, 1]

    def test_unknown_sweep_mode_rejected(self):
        with pytest.raises(ValueError, match="sweep mode"):
            RunnerOptions(sweep="bogus")
        # The forced-family mode is gone: ``auto`` always shares.
        with pytest.raises(ValueError, match="sweep mode"):
            RunnerOptions(sweep="family")


# --------------------------------------------------------------------------- #
# Figure families against independent per-configuration runs
# --------------------------------------------------------------------------- #
class TestFamilyEquivalence:
    def test_fig14_constant_family(self, streams_workload):
        factories = figure_factories("fig14")
        reference, family = run_both(streams_workload, factories)
        assert_results_match(reference, family)

    def test_fig16_cutoff_family(self, streams_workload):
        factories = figure_factories("fig16")
        reference, family = run_both(streams_workload, factories)
        assert_results_match(reference, family)
        # The six cutoff configurations must actually share one pass.
        groups = group_factories(factories)
        hybrid = next(g for g in groups if g.key and g.key[0] == FAMILY_HYBRID_HISTOGRAM)
        assert len(hybrid.factories) == len(FIGURE_16_CUTOFFS)

    def test_fig15_range_family(self, streams_workload):
        """All four histogram ranges share one recording pass, exactly."""
        factories = figure_factories("fig15")
        groups = group_factories(factories)
        hybrid = next(g for g in groups if g.key and g.key[0] == FAMILY_HYBRID_HISTOGRAM)
        assert [factory.name for factory in hybrid.factories] == [
            "hybrid-1h",
            "hybrid-2h",
            "hybrid-3h",
            "hybrid-4h",
        ]
        assert len(groups) == 2
        reference, family = run_both(streams_workload, factories)
        assert_results_match(reference, family)
        # The narrowest range sends the most gaps out of bounds; its ARIMA
        # branch must fire or the OOB-derived masks go untested.
        assert reference["hybrid-1h"].mode_usage()["arima"] > 0
        for options in (
            {"max_resident_bytes": 64 * 1024},
            {"workers": 1},
            {"workers": 2},
        ):
            other = WorkloadRunner(
                streams_workload, RunnerOptions(**options)
            ).run_policies(factories)
            assert list(other) == list(family)
            for name, result in family.items():
                assert other[name].app_results == result.app_results, (options, name)

    @pytest.mark.parametrize("width", [1.0, 0.5])
    def test_fig15_recording_matches_scalar_histograms(self, width):
        """The shared recording of the fig15 ranges, byte for byte.

        Forty applications keep the lockstep bank stepping for over a
        hundred steps before the longest ones finish in the scalar drain.
        Every recorded CV, percentile bin and OOB count equals that of a
        scalar histogram of its range fed the same gaps.  A bin recorded
        with nothing in range is the range's last bin while the bank
        steps and stays 0 in the drain; the policy masks both out.
        """
        streams = random_app_streams(2021, num_apps=40)
        workload = make_workload(
            {app_id: list(times) for app_id, times in streams.items()},
            duration_minutes=HORIZON,
        )
        engine = SimulationEngine(workload, RunnerOptions())
        chunk = engine.csr_slice()
        app_times = chunk.app_times()
        ranges = sorted(
            factory.family_config.histogram_range_minutes
            for factory in figure_factories("fig15")
            if factory.sweep_key and factory.sweep_key[0] == FAMILY_HYBRID_HISTOGRAM
        )
        percentiles = {r: (0.0, 5.0, 99.0, 100.0) for r in ranges}
        recording = sweep_engine_module._record_hybrid_family(
            chunk, engine.simulator, width, percentiles
        )
        # Rows are longest-first, so the bank steps while more than the
        # drain threshold of them are active: before the count of the row
        # just past the threshold.
        counts = recording.counts
        steps_in_bank = int(counts[DEFAULT_SCALAR_DRAIN_THRESHOLD])
        assert 100 < steps_in_bank < int(counts[0])  # both paths run

        for r in ranges:
            cv = np.zeros(recording.times.size)
            oob = np.zeros(recording.times.size, dtype=np.int64)
            bins = np.zeros((len(percentiles[r]), recording.times.size), dtype=np.int64)
            for row, index in enumerate(recording.order):
                times = app_times[index]
                o = int(recording.offsets[row])
                histogram = IdleTimeHistogram(r, width)
                for k in range(times.size):
                    if k:
                        histogram.observe(float(times[k] - times[k - 1]))
                    cv[o + k] = histogram.bin_count_cv
                    oob[o + k] = histogram.oob_count
                    if histogram.in_bounds_count:
                        bins[:, o + k] = histogram.percentile_bins(percentiles[r])
                    elif k < steps_in_bank:
                        bins[:, o + k] = histogram.num_bins - 1
            assert recording.cv[r].tobytes() == cv.tobytes()
            assert np.array_equal(recording.oob[r], oob)
            for q, expected in zip(percentiles[r], bins):
                recorded = recording.bins[(r, q)]
                assert recorded.tobytes() == expected.astype(recorded.dtype).tobytes()

    def test_inexact_geometry_families(self, streams_workload):
        """Per-range families (no nesting) still match per-config runs."""
        factories = [
            hybrid_factory(histogram_range_minutes=60.5),
            hybrid_factory(histogram_range_minutes=60.5, cv_threshold=5.0).renamed("odd-cv5"),
            hybrid_factory(histogram_range_minutes=60.0, bin_width_minutes=0.3),
            hybrid_factory(
                histogram_range_minutes=60.0, bin_width_minutes=0.3, cv_threshold=5.0
            ).renamed("narrow-cv5"),
        ]
        assert len(group_factories(factories)) == 2
        reference, family = run_both(streams_workload, factories)
        assert_results_match(reference, family)

    def test_fig17_prewarming_family(self, streams_workload):
        factories = figure_factories("fig17")
        reference, family = run_both(streams_workload, factories)
        assert_results_match(reference, family)

    def test_fig18_cv_threshold_family(self, streams_workload):
        factories = figure_factories("fig18")
        reference, family = run_both(streams_workload, factories)
        assert_results_match(reference, family)
        assert {factory.name for factory in factories} >= {
            f"hybrid-cv{threshold:g}" for threshold in FIGURE_18_CV_THRESHOLDS
        }

    def test_arima_and_tiny_apps_are_exercised(self, streams_workload):
        """The archetype workload must hit the ARIMA and sub-min_observations
        paths, or the family equivalence above proves nothing."""
        factories = [hybrid_factory()]
        result = WorkloadRunner(streams_workload).run_policies(factories)["hybrid-4h"]
        assert result.mode_usage().get("arima", 0) > 0
        assert any(
            r.invocations < HybridPolicyConfig().min_observations
            for r in result.app_results
        )

    def test_fig19_arima_comparison_shares_hybrid_pass(self, streams_workload):
        per_policy = sweep_arima_contribution(
            streams_workload, options=RunnerOptions(execution="serial")
        )
        shared = sweep_arima_contribution(streams_workload)
        for attribute in ("fixed", "hybrid_without_arima", "hybrid"):
            assert_app_results_match(
                list(getattr(per_policy, attribute).app_results),
                list(getattr(shared, attribute).app_results),
            )

    def test_mixed_shareable_and_unshareable_list(self, streams_workload):
        bare = PolicyFactory(name="custom-7min", builder=lambda: FixedKeepAlivePolicy(7.0))
        factories = [
            fixed_keepalive_factory(10),
            hybrid_factory(),
            bare,
            no_unloading_factory(),
            hybrid_factory(cv_threshold=5.0).renamed("hybrid-cv5"),
        ]
        reference, family = run_both(streams_workload, factories)
        assert_results_match(reference, family)
        # The bare factory runs alone (it has no family), and matches a
        # plain 7-minute fixed run.
        fixed7 = WorkloadRunner(streams_workload).run_policy(fixed_keepalive_factory(7))
        assert_app_results_match(
            list(fixed7.app_results), list(family["custom-7min"].app_results)
        )

    def test_combined_figure_list(self, streams_workload):
        factories = combined_figure_factories(("fig14", "fig16", "fig18"))
        assert len({factory.name for factory in factories}) == len(factories)
        reference, family = run_both(streams_workload, factories)
        assert_results_match(reference, family)

    def test_edge_case_streams(self):
        workload = make_workload(
            {
                "empty": [],
                "single": [700.0],
                "duplicates": [10.0, 10.0, 10.0, 400.0, 400.0],
                "at-horizon": [500.0, HORIZON],
                "dense": list(np.linspace(0.0, HORIZON, 97)),
            },
            duration_minutes=HORIZON,
        )
        factories = [
            fixed_keepalive_factory(10),
            no_unloading_factory(),
            hybrid_factory(),
            hybrid_factory(cv_threshold=0.0).renamed("hybrid-cv0"),
        ]
        reference, family = run_both(workload, factories)
        assert_results_match(reference, family)

    def test_parallel_sharding_matches_in_process(self, streams_workload):
        factories = combined_figure_factories(("fig14", "fig16"))
        in_process = WorkloadRunner(streams_workload).run_policies(factories)
        for workers in (1, 3):
            sharded = WorkloadRunner(
                streams_workload, RunnerOptions(workers=workers)
            ).run_policies(factories)
            assert_results_match(in_process, sharded)


# --------------------------------------------------------------------------- #
# A configuration alone is a family of one
# --------------------------------------------------------------------------- #
class TestFamilyOfOne:
    @pytest.mark.parametrize(
        "options",
        [{"workers": 1}, {"workers": 2}, {"max_resident_bytes": 64 * 1024}],
        ids=["workers-1", "workers-2", "budget-64k"],
    )
    def test_figure_configs_alone_match_their_families(self, streams_workload, options):
        """Every Figure 14-18 configuration run alone equals its family run."""
        factories = combined_figure_factories(("fig14", "fig15", "fig16", "fig17", "fig18"))
        runner = WorkloadRunner(streams_workload, RunnerOptions(**options))
        assert any(len(group.factories) > 1 for group in runner.sweep_groups(factories))
        family = runner.run_policies(factories)
        alone = {factory.name: runner.run_policy(factory) for factory in factories}
        assert list(alone) == list(family)
        for name, result in family.items():
            assert_app_results_match(
                list(alone[name].app_results), list(result.app_results)
            )
        assert (
            PolicyComparison(alone, "fixed-10min").mode_usage_rows()
            == PolicyComparison(family, "fixed-10min").mode_usage_rows()
        )

    def test_unshareable_factory_takes_the_scalar_evaluator(
        self, streams_workload, monkeypatch
    ):
        calls = []
        original = sweep_engine_module._evaluate_scalar

        def counting_scalar(factories, items, simulator):
            calls.append([factory.name for factory in factories])
            return original(factories, items, simulator)

        monkeypatch.setattr(sweep_engine_module, "_evaluate_scalar", counting_scalar)
        bare = PolicyFactory(name="custom-7min", builder=lambda: FixedKeepAlivePolicy(7.0))
        assert bare.sweep_key is None
        runner = WorkloadRunner(streams_workload)
        runner.run_policy(bare)
        assert calls == [["custom-7min"]]
        # A family factory takes its family's evaluator under auto, and the
        # scalar loop only under serial.
        runner.run_policy(fixed_keepalive_factory(7))
        assert calls == [["custom-7min"]]
        WorkloadRunner(streams_workload, RunnerOptions(execution="serial")).run_policy(
            fixed_keepalive_factory(7)
        )
        assert calls == [["custom-7min"], ["fixed-7min"]]


# --------------------------------------------------------------------------- #
# ARIMA forecast memoization (one fit per app/invocation per sweep)
# --------------------------------------------------------------------------- #
class TestArimaForecastSharing:
    def test_configs_reuse_forecasts(self, streams_workload, monkeypatch):
        fits = []
        original = sweep_engine_module.forecast_idle_times

        def counting_forecast(histories):
            fits.extend(len(history) for history in histories)
            return original(histories)

        monkeypatch.setattr(
            sweep_engine_module, "forecast_idle_times", counting_forecast
        )
        # Two configurations whose ARIMA triggers coincide (only margins
        # differ): the family pass must fit each (app, invocation) once.
        factories = [
            hybrid_factory(),
            hybrid_factory(arima_margin=0.30).renamed("hybrid-wide-margin"),
        ]
        runner = WorkloadRunner(streams_workload)
        results = runner.run_policies(factories)
        arima_decisions = results["hybrid-4h"].mode_usage()["arima"]
        assert arima_decisions > 0
        assert results["hybrid-wide-margin"].mode_usage()["arima"] == arima_decisions
        # One fit per triggering invocation — not one per (config, invocation).
        assert len(fits) == arima_decisions

    def test_duplicate_forecasts_not_refit_within_one_config(
        self, streams_workload, monkeypatch
    ):
        calls = []
        original = sweep_engine_module._ArimaForecastMemo.predictions

        def counting_predictions(self, positions, max_history):
            calls.extend(int(position) for position in positions)
            return original(self, positions, max_history)

        monkeypatch.setattr(
            sweep_engine_module._ArimaForecastMemo, "predictions", counting_predictions
        )
        factories = [hybrid_factory(), hybrid_factory(cv_threshold=5.0).renamed("cv5")]
        WorkloadRunner(streams_workload).run_policies(factories)
        assert calls  # the branch fired
        # Every position is looked up once per config; the memo makes the
        # second config's lookups cache hits (asserted via fit counting
        # above), and lookups themselves stay bounded.
        assert len(calls) == 2 * len(set(calls))


# --------------------------------------------------------------------------- #
# Batched percentile-bin lookup against the scalar histogram
# --------------------------------------------------------------------------- #
class TestPercentileBinsPrefix:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scalar_percentile_bins(self, seed):
        rng = np.random.default_rng(seed)
        num_apps = 6
        bank = HistogramBank(num_apps, range_minutes=60.0, bin_width_minutes=1.0)
        scalars = [IdleTimeHistogram(60.0, 1.0) for _ in range(num_apps)]
        for _ in range(50):
            idle = rng.uniform(0.0, 80.0, size=num_apps)
            bank.observe_prefix(idle)
            for scalar, value in zip(scalars, idle):
                scalar.observe(value)
        percentiles = (0.0, 1.0, 5.0, 50.0, 95.0, 99.0, 100.0)
        bins = bank.percentile_bins_prefix(num_apps, percentiles)
        for row, scalar in enumerate(scalars):
            for qi, q in enumerate(percentiles):
                assert bins[qi, row] * 1.0 == scalar.percentile(q, rounding="down"), (
                    row,
                    q,
                )
