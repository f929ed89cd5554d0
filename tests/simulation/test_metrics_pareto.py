"""Tests for the simulation metrics and Pareto-frontier analysis."""

from __future__ import annotations

import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pool
from repro.policies.registry import fixed_keepalive_factory, hybrid_factory
from repro.simulation import metrics
from repro.simulation import sweep_engine
from repro.simulation.fused import simulate_streamed
from repro.simulation.metrics import AggregateResult, AppSimResult, merge_results
from repro.simulation.pareto import (
    TradeOffPoint,
    compare_frontiers,
    interpolate_cold_start_at_memory,
    interpolate_memory_at_cold_start,
    pareto_frontier,
    trade_off_points,
)
from repro.simulation.runner import RunnerOptions, WorkloadRunner
from repro.trace import stream
from repro.trace.generator import GeneratorConfig, WorkloadGenerator


def _result(app_id, invocations, cold, waste):
    return AppSimResult(
        app_id=app_id,
        invocations=invocations,
        cold_starts=cold,
        wasted_memory_minutes=waste,
    )


class TestAppSimResult:
    def test_validation(self):
        with pytest.raises(ValueError):
            _result("a", 1, 2, 0.0)
        with pytest.raises(ValueError):
            _result("a", -1, 0, 0.0)
        with pytest.raises(ValueError):
            _result("a", 1, 0, -1.0)

    def test_percentages_and_flags(self):
        result = _result("a", 4, 1, 10.0)
        assert result.cold_start_percentage == 25.0
        assert result.warm_starts == 3
        assert not result.always_cold
        assert _result("b", 2, 2, 0.0).always_cold
        assert _result("c", 0, 0, 0.0).cold_start_percentage == 0.0


class TestAggregateResult:
    @pytest.fixture()
    def aggregate(self):
        results = [
            _result("a", 10, 1, 100.0),
            _result("b", 4, 4, 50.0),
            _result("c", 1, 1, 10.0),
            _result("d", 20, 0, 200.0),
        ]
        return merge_results("test-policy", results)

    def test_totals(self, aggregate):
        assert aggregate.num_apps == 4
        assert aggregate.total_invocations == 35
        assert aggregate.total_cold_starts == 6
        assert aggregate.overall_cold_start_percentage == pytest.approx(600 / 35)
        assert aggregate.total_wasted_memory_minutes == pytest.approx(360.0)

    def test_per_app_percentiles(self, aggregate):
        values = aggregate.cold_start_percentages()
        assert sorted(values) == [0.0, 10.0, 100.0, 100.0]
        assert aggregate.third_quartile_cold_start_percentage == pytest.approx(
            np.percentile(values, 75)
        )

    def test_always_cold_fractions(self, aggregate):
        assert aggregate.always_cold_fraction == pytest.approx(0.5)
        # Excluding the single-invocation app "c": only "b" remains always
        # cold, still divided by all four applications (paper's convention).
        assert aggregate.always_cold_fraction_excluding_single() == pytest.approx(0.25)
        assert aggregate.single_invocation_fraction == pytest.approx(0.25)

    def test_normalized_wasted_memory(self, aggregate):
        baseline = merge_results("base", [_result("a", 1, 1, 720.0)])
        assert aggregate.normalized_wasted_memory(baseline) == pytest.approx(50.0)
        zero = merge_results("zero", [_result("a", 1, 1, 0.0)])
        assert math.isinf(aggregate.normalized_wasted_memory(zero))

    def test_cold_start_cdf(self, aggregate):
        grid, fractions = aggregate.cold_start_cdf()
        assert fractions[0] == pytest.approx(0.25)   # one app with 0% cold
        assert fractions[-1] == pytest.approx(1.0)
        assert np.all(np.diff(fractions) >= 0)

    def test_summary_keys(self, aggregate):
        summary = aggregate.summary()
        assert summary["num_apps"] == 4
        assert "third_quartile_app_cold_start_pct" in summary

    def test_empty_aggregate(self):
        empty = merge_results("empty", [])
        assert empty.overall_cold_start_percentage == 0.0
        assert empty.always_cold_fraction == 0.0
        assert empty.third_quartile_cold_start_percentage == 0.0


@st.composite
def app_rows(draw, *, hybrid: bool) -> AppSimResult:
    """One row: often empty, single-invocation or always-cold apps."""
    invocations = draw(st.sampled_from([0, 1, 2]) | st.integers(0, 400))
    cold = draw(st.sampled_from([0, invocations]) | st.integers(0, invocations))
    # Wastes spanning many magnitudes, so that summation order shows in
    # the last bits of the totals.
    waste = draw(
        st.just(0.0)
        | st.builds(
            lambda mantissa, exponent: mantissa * 10.0**exponent,
            st.floats(0.0, 10.0, allow_nan=False),
            st.integers(-6, 12),
        )
    )
    modes = {}
    if hybrid:
        counts = draw(st.lists(st.integers(0, 400), min_size=3, max_size=3))
        modes = dict(zip(metrics.MODE_NAMES, counts))
    return AppSimResult(
        app_id=f"app-{draw(st.integers(0, 10**6))}",
        invocations=invocations,
        cold_starts=cold,
        wasted_memory_minutes=waste,
        mode_counts=modes,
        oob_idle_times=draw(st.integers(0, max(invocations - 1, 0))),
    )


row_lists = st.booleans().flatmap(
    lambda hybrid: st.lists(app_rows(hybrid=hybrid), max_size=40)
)


def walked_statistics(rows: list[AppSimResult], baseline: list[AppSimResult]) -> dict:
    """Every aggregate statistic, computed by walking the rows."""
    num_apps = len(rows)
    invocations = sum(r.invocations for r in rows)
    cold_starts = sum(r.cold_starts for r in rows)
    wasted = sum(r.wasted_memory_minutes for r in rows)
    percentages = np.asarray([r.cold_start_percentage for r in rows], dtype=float)
    values = np.sort(percentages)
    grid = np.linspace(0.0, 100.0, 101)
    usage: dict[str, int] = {}
    for r in rows:
        for mode, count in r.mode_counts.items():
            usage[mode] = usage.get(mode, 0) + int(count)
    eligible = [r for r in rows if r.invocations > 1]
    observations = sum(r.idle_time_observations for r in rows)
    baseline_wasted = sum(r.wasted_memory_minutes for r in baseline)
    if baseline_wasted == 0:
        normalized = 0.0 if wasted == 0 else math.inf
    else:
        normalized = 100.0 * wasted / baseline_wasted
    return {
        "summary": {
            "num_apps": float(num_apps),
            "total_invocations": float(invocations),
            "total_cold_starts": float(cold_starts),
            "overall_cold_start_pct": (
                0.0 if invocations == 0 else 100.0 * cold_starts / invocations
            ),
            "third_quartile_app_cold_start_pct": (
                0.0 if percentages.size == 0 else float(np.percentile(percentages, 75.0))
            ),
            "always_cold_fraction": (
                0.0 if not rows else sum(1 for r in rows if r.always_cold) / num_apps
            ),
            "wasted_memory_minutes": wasted,
            "wasted_memory_mb_minutes": wasted,
        },
        "mode_usage": usage,
        "cdf": (
            grid,
            np.searchsorted(values, grid, side="right") / values.size
            if values.size
            else np.zeros_like(grid),
        ),
        "always_cold_excluding_single": (
            0.0
            if not eligible
            else sum(1 for r in eligible if r.always_cold) / num_apps
        ),
        "single_invocation_fraction": (
            0.0 if not rows else sum(1 for r in rows if r.invocations == 1) / num_apps
        ),
        "oob_idle_time_fraction": (
            0.0
            if observations == 0
            else sum(r.oob_idle_times for r in rows) / observations
        ),
        "normalized_wasted_memory": normalized,
    }


def column_statistics(result: AggregateResult, baseline: AggregateResult) -> dict:
    return {
        "summary": result.summary(),
        "mode_usage": result.mode_usage(),
        "cdf": result.cold_start_cdf(),
        "always_cold_excluding_single": result.always_cold_fraction_excluding_single(),
        "single_invocation_fraction": result.single_invocation_fraction,
        "oob_idle_time_fraction": result.oob_idle_time_fraction,
        "normalized_wasted_memory": result.normalized_wasted_memory(baseline),
    }


class TestColumnsMatchRowArithmetic:
    @settings(max_examples=50, deadline=None)
    @given(rows=row_lists, baseline=row_lists, cuts=st.lists(st.integers(0, 40)))
    def test_statistics_bit_identical_to_walking_rows(self, rows, baseline, cuts):
        """Built from rows or from column blocks, every statistic is exact."""
        expected = walked_statistics(rows, baseline)
        base = merge_results("base", baseline)
        bounds = sorted({0, len(rows), *(c for c in cuts if c < len(rows))})
        blocks = [
            merge_results("p", rows[start:stop]) for start, stop in zip(bounds, bounds[1:])
        ]
        for result in (merge_results("p", rows), merge_results("p", blocks)):
            got = column_statistics(result, base)
            for key in expected:
                if key == "cdf":
                    for want, have in zip(expected[key], got[key]):
                        assert np.array_equal(want, have)
                elif key == "mode_usage":
                    assert list(got[key].items()) == list(expected[key].items())
                else:
                    assert got[key] == expected[key], key
            assert result.app_results == tuple(rows)


class TestLazyRows:
    @pytest.fixture()
    def result(self):
        rows = [
            AppSimResult(
                f"app-{i}", i + 1, i % 3, 0.5 * i,
                {"histogram": i, "standard": 1, "arima": 0}, i // 2,
            )
            for i in range(10)
        ]
        return rows, merge_results("hybrid", rows)

    def test_slice_builds_only_its_rows(self, result, monkeypatch):
        rows, aggregate = result
        built = []
        original = AppSimResult.__post_init__

        def counting(self):
            built.append(self.app_id)
            original(self)

        monkeypatch.setattr(AppSimResult, "__post_init__", counting)
        view = aggregate.app_results
        assert built == []
        assert view[:3] == tuple(rows[:3])
        assert built == ["app-0", "app-1", "app-2"]
        built.clear()
        assert view[7:2:-2] == tuple(rows[7:2:-2])
        assert len(built) == 3
        built.clear()
        assert view[-1] == rows[-1] and view[4] == rows[4]
        assert len(built) == 2

    def test_sequence_protocol(self, result):
        rows, aggregate = result
        view = aggregate.app_results
        assert len(view) == 10
        assert view[-10] == rows[0]
        with pytest.raises(IndexError):
            view[10]
        with pytest.raises(IndexError):
            view[-11]
        assert list(view) == rows
        assert view == tuple(rows) and tuple(rows) == view
        assert view == merge_results("again", rows).app_results
        assert view != tuple(rows[:-1])
        assert view != merge_results("other", rows[1:] + rows[:1]).app_results
        assert rows[3] in view

    def test_constant_policy_rows_have_no_modes(self):
        rows = [AppSimResult("a", 3, 1, 2.0), AppSimResult("b", 0, 0, 0.0)]
        aggregate = merge_results("fixed", rows)
        assert aggregate.mode_counts is None
        assert aggregate.mode_usage() == {}
        assert aggregate.app_results == tuple(rows)

    def test_pickle_round_trip(self, result):
        rows, aggregate = result
        restored = pickle.loads(pickle.dumps(aggregate))
        assert restored.policy_name == "hybrid"
        assert restored.app_results == tuple(rows)
        assert restored.summary() == aggregate.summary()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("cold_starts", 5, "cold starts cannot exceed invocations"),
            ("invocations", -1, "counts must be non-negative"),
            ("cold_starts", -1, "counts must be non-negative"),
            ("wasted_memory_minutes", -0.5, "wasted memory time must be non-negative"),
            ("oob_idle_times", -2, "out-of-bounds count must be non-negative"),
        ],
    )
    def test_block_checks_match_row_checks(self, field, value, message):
        columns = dict(
            app_ids=("a", "b", "c"),
            invocations=np.array([4, 4, 4]),
            cold_starts=np.array([1, 2, 3]),
            wasted_memory_minutes=np.array([1.0, 2.0, 3.0]),
            oob_idle_times=np.array([0, 1, 2]),
        )
        row = dict(
            app_id="b", invocations=4, cold_starts=2, wasted_memory_minutes=2.0, oob_idle_times=1
        )
        row[field] = value
        columns[field] = columns[field].copy()
        columns[field][1] = value
        with pytest.raises(ValueError, match=message):
            AppSimResult(**row)
        with pytest.raises(ValueError, match=message) as raised:
            AggregateResult("p", **columns)
        with pytest.raises(ValueError) as from_row:
            AppSimResult(**row)
        assert str(raised.value) == str(from_row.value)

    def test_first_failing_app_decides_the_message(self):
        """Checked in application order, like constructing the rows."""
        with pytest.raises(ValueError, match="wasted memory"):
            AggregateResult(
                "p",
                app_ids=("a", "b"),
                invocations=np.array([1, 1]),
                cold_starts=np.array([1, 2]),
                wasted_memory_minutes=np.array([-1.0, 0.0]),
                oob_idle_times=np.zeros(2, dtype=np.int64),
            )

    def test_columns_must_line_up(self):
        with pytest.raises(ValueError, match="one entry per application"):
            AggregateResult(
                "p",
                app_ids=("a", "b"),
                invocations=np.array([1]),
                cold_starts=np.array([1]),
                wasted_memory_minutes=np.zeros(1),
                oob_idle_times=np.zeros(1, dtype=np.int64),
            )

    def test_unknown_modes_rejected(self):
        with pytest.raises(ValueError, match="unknown decision modes"):
            merge_results("p", [AppSimResult("a", 1, 1, 0.0, mode_counts={"lucky": 1})])


class TestColumnBlocksTravel:
    CONFIG = GeneratorConfig(
        num_apps=18, duration_minutes=360.0, seed=21, max_daily_rate=200.0
    )

    def factories(self):
        return [fixed_keepalive_factory(10.0), hybrid_factory()]

    def test_sharded_run_ships_blocks(self, monkeypatch):
        workload = WorkloadGenerator(self.CONFIG).generate()
        shipped = []

        def recording_map(task, num_tasks, workers, **kwargs):
            results = pool.fork_pool_map(task, num_tasks, workers, **kwargs)
            shipped.extend(results)
            return results

        monkeypatch.setattr(sweep_engine, "fork_pool_map", recording_map)
        sharded = WorkloadRunner(workload, RunnerOptions(workers=2)).run_policies(
            self.factories()
        )
        in_process = WorkloadRunner(workload).run_policies(self.factories())
        assert len(shipped) > 1
        for blocks in shipped:
            assert all(isinstance(block, AggregateResult) for block in blocks.values())
        for name, result in in_process.items():
            assert sharded[name].app_results == result.app_results

    def test_fused_run_ships_blocks(self, monkeypatch):
        shipped = []

        def recording_imap(task, num_tasks, workers, **kwargs):
            for results in pool.fork_pool_imap(task, num_tasks, workers, **kwargs):
                shipped.append(results)
                yield results

        monkeypatch.setattr(stream, "fork_pool_imap", recording_imap)
        fused = simulate_streamed(self.CONFIG, self.factories(), chunk_apps=5, gen_workers=2)
        assert len(shipped) == 4
        for blocks in shipped:
            assert all(isinstance(block, AggregateResult) for block in blocks.values())
        for name, result in fused.items():
            assert result.app_results == tuple(
                row for blocks in shipped for row in blocks[name].app_results
            )


def test_hybrid_result_columns_stay_small():
    """One hybrid policy's result holds at most 96 bytes per application."""
    config = GeneratorConfig(
        num_apps=1500, duration_minutes=240.0, seed=5, max_daily_rate=50.0
    )
    store = WorkloadGenerator(config).generate().store
    runner = WorkloadRunner(store)
    runner.run_policy(hybrid_factory())  # warm any lazily built state
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = runner.run_policy(hybrid_factory())
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.num_apps > 1000
    assert held / result.num_apps <= 96


class TestPareto:
    def test_dominates(self):
        better = TradeOffPoint("a", 10.0, 90.0)
        worse = TradeOffPoint("b", 20.0, 100.0)
        equal = TradeOffPoint("c", 10.0, 90.0)
        assert better.dominates(worse)
        assert not worse.dominates(better)
        assert not better.dominates(equal)

    def test_frontier_filters_dominated_points(self):
        points = [
            TradeOffPoint("a", 10.0, 120.0),
            TradeOffPoint("b", 30.0, 100.0),
            TradeOffPoint("c", 40.0, 110.0),  # dominated by b
            TradeOffPoint("d", 60.0, 90.0),
        ]
        frontier = pareto_frontier(points)
        assert [p.policy for p in frontier] == ["a", "b", "d"]

    def test_interpolation(self):
        frontier = [TradeOffPoint("a", 10.0, 150.0), TradeOffPoint("b", 50.0, 100.0)]
        assert interpolate_memory_at_cold_start(frontier, 30.0) == pytest.approx(125.0)
        assert interpolate_cold_start_at_memory(frontier, 125.0) == pytest.approx(30.0)
        with pytest.raises(ValueError):
            interpolate_memory_at_cold_start([], 10.0)

    def test_compare_frontiers_quantifies_gap(self):
        hybrid = [TradeOffPoint("hybrid", 20.0, 100.0)]
        fixed = [
            TradeOffPoint("fixed-10", 50.0, 100.0),
            TradeOffPoint("fixed-120", 20.0, 150.0),
        ]
        comparison = compare_frontiers(hybrid, fixed)
        assert comparison.cold_start_ratio_at_equal_memory == pytest.approx(2.5)
        assert comparison.memory_ratio_at_equal_cold_start == pytest.approx(1.5)
        assert "2.50x" in comparison.describe()

    def test_compare_frontiers_requires_points(self):
        with pytest.raises(ValueError):
            compare_frontiers([], [TradeOffPoint("a", 1.0, 1.0)])

    def test_trade_off_points_from_results(self):
        results = {
            "fixed-10min": merge_results("fixed-10min", [_result("a", 2, 1, 100.0)]),
            "hybrid": merge_results("hybrid", [_result("a", 2, 1, 60.0)]),
        }
        points = trade_off_points(results, results["fixed-10min"])
        by_name = {p.policy: p for p in points}
        assert by_name["fixed-10min"].normalized_wasted_memory == pytest.approx(100.0)
        assert by_name["hybrid"].normalized_wasted_memory == pytest.approx(60.0)
