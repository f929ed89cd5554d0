"""Tests for the trace-driven cold-start simulator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hybrid import HybridHistogramPolicy
from repro.policies.fixed import FixedKeepAlivePolicy
from repro.policies.no_unload import NoUnloadingPolicy
from repro.simulation.coldstart import ColdStartSimulator, simulate_application
from repro.simulation.metrics import AppSimResult

HORIZON = 1440.0


class TestFixedPolicySimulation:
    def test_first_invocation_is_cold(self):
        result = simulate_application([10.0], FixedKeepAlivePolicy(10), horizon_minutes=HORIZON)
        assert result.invocations == 1
        assert result.cold_starts == 1

    def test_invocations_within_keepalive_are_warm(self):
        times = [0.0, 5.0, 9.0, 15.0]
        result = simulate_application(times, FixedKeepAlivePolicy(10), horizon_minutes=HORIZON)
        # 0 cold, 5 warm (within 10 of 0), 9 warm, 15 warm (within 10 of 9).
        assert result.cold_starts == 1

    def test_invocations_beyond_keepalive_are_cold(self):
        times = [0.0, 20.0, 40.0]
        result = simulate_application(times, FixedKeepAlivePolicy(10), horizon_minutes=HORIZON)
        assert result.cold_starts == 3
        assert result.cold_start_percentage == 100.0

    def test_boundary_arrival_is_warm(self):
        times = [0.0, 10.0]
        result = simulate_application(times, FixedKeepAlivePolicy(10), horizon_minutes=HORIZON)
        assert result.cold_starts == 1

    def test_wasted_memory_fixed_policy(self):
        # One invocation at t=0 with a 10-minute keep-alive: 10 wasted minutes
        # (execution time is simulated as zero).
        result = simulate_application([0.0], FixedKeepAlivePolicy(10), horizon_minutes=HORIZON)
        assert result.wasted_memory_minutes == pytest.approx(10.0)

    def test_wasted_memory_caps_at_next_invocation(self):
        # Second invocation 5 minutes later restarts the window: waste is
        # 5 (until reload) + 10 (after the last invocation) = 15.
        result = simulate_application(
            [0.0, 5.0], FixedKeepAlivePolicy(10), horizon_minutes=HORIZON
        )
        assert result.wasted_memory_minutes == pytest.approx(15.0)

    def test_wasted_memory_caps_at_horizon(self):
        result = simulate_application([HORIZON - 3.0], FixedKeepAlivePolicy(10), horizon_minutes=HORIZON)
        assert result.wasted_memory_minutes == pytest.approx(3.0)

    def test_longer_keepalive_trades_memory_for_cold_starts(self):
        times = list(np.arange(0.0, 1440.0, 25.0))
        short = simulate_application(times, FixedKeepAlivePolicy(10), horizon_minutes=HORIZON)
        long = simulate_application(times, FixedKeepAlivePolicy(30), horizon_minutes=HORIZON)
        assert long.cold_starts < short.cold_starts
        assert long.wasted_memory_minutes > short.wasted_memory_minutes


class TestNoUnloadingSimulation:
    def test_only_first_invocation_cold(self):
        times = [0.0, 100.0, 1000.0]
        result = simulate_application(times, NoUnloadingPolicy(), horizon_minutes=HORIZON)
        assert result.cold_starts == 1

    def test_waste_covers_whole_horizon(self):
        result = simulate_application([0.0], NoUnloadingPolicy(), horizon_minutes=HORIZON)
        assert result.wasted_memory_minutes == pytest.approx(HORIZON)


class TestPrewarmingSimulation:
    def test_prewarmed_arrival_is_warm_and_saves_memory(self):
        # Idle times of exactly 60 minutes: after enough history the hybrid
        # policy pre-warms shortly before each invocation.
        times = list(np.arange(0.0, 1440.0, 60.0))
        policy = HybridHistogramPolicy()
        simulator = ColdStartSimulator(HORIZON)
        result = simulator.simulate_app("app", times, policy)
        assert isinstance(result, AppSimResult)
        fixed = simulate_application(times, FixedKeepAlivePolicy(60), horizon_minutes=HORIZON)
        # Same warm behaviour as a 60-minute fixed keep-alive...
        assert result.cold_starts <= fixed.cold_starts + 1
        # ...at a fraction of the memory cost once the histogram is active.
        assert result.wasted_memory_minutes < fixed.wasted_memory_minutes

    def test_arrival_before_prewarm_is_cold_but_costs_nothing(self):
        simulator = ColdStartSimulator(HORIZON)

        class EagerUnloadPolicy(FixedKeepAlivePolicy):
            """Always unloads and schedules a reload far in the future."""

            def on_invocation(self, now_minutes, *, cold):
                from repro.core.windows import PolicyDecision

                return PolicyDecision(prewarm_minutes=500.0, keepalive_minutes=10.0)

        result = simulator.simulate_app("app", [0.0, 100.0], EagerUnloadPolicy())
        assert isinstance(result, AppSimResult)
        assert result.cold_starts == 2
        # Unloaded during [0, 100): no waste between the invocations; the tail
        # window [600, 610) after the last invocation is waste.
        assert result.wasted_memory_minutes == pytest.approx(10.0)


class TestSimulatorOptions:
    def test_unsorted_input_rejected_by_default(self):
        simulator = ColdStartSimulator(HORIZON)
        with pytest.raises(ValueError, match="must be sorted ascending"):
            simulator.simulate_app("a", [50.0, 0.0, 5.0], FixedKeepAlivePolicy(10))

    def test_out_of_horizon_rejected(self):
        simulator = ColdStartSimulator(100.0)
        with pytest.raises(ValueError):
            simulator.simulate_app("a", [150.0], FixedKeepAlivePolicy(10))

    def test_out_of_horizon_rejected_before_sorting(self):
        # The range check comes first: a malformed (unsorted,
        # out-of-horizon) trace is reported as out of horizon.
        simulator = ColdStartSimulator(100.0)
        with pytest.raises(ValueError, match="horizon"):
            simulator.simulate_app("a", [150.0, 10.0], FixedKeepAlivePolicy(10))

    def test_invalid_horizon_rejected(self):
        with pytest.raises(ValueError):
            ColdStartSimulator(0.0)

    def test_empty_trace(self):
        simulator = ColdStartSimulator(HORIZON)
        result = simulator.simulate_app("a", [], FixedKeepAlivePolicy(10))
        assert result.invocations == 0
        assert result.wasted_memory_minutes == 0.0

    def test_mode_counts_attached_for_hybrid(self):
        simulator = ColdStartSimulator(HORIZON)
        result = simulator.simulate_app(
            "a", list(np.arange(0.0, 600.0, 30.0)), HybridHistogramPolicy()
        )
        assert isinstance(result, AppSimResult)
        assert sum(result.mode_counts.values()) == result.invocations


class TestInvariants:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=HORIZON - 1e-6), min_size=0, max_size=120
        ),
        st.sampled_from([5.0, 10.0, 60.0, 240.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_fixed_policy_invariants(self, times, keepalive):
        result = simulate_application(
            sorted(times), FixedKeepAlivePolicy(keepalive), horizon_minutes=HORIZON
        )
        assert 0 <= result.cold_starts <= result.invocations
        assert result.wasted_memory_minutes <= HORIZON + keepalive
        if result.invocations:
            assert result.cold_starts >= 1

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=HORIZON - 1e-6), min_size=1, max_size=80
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_no_unloading_never_beaten_on_cold_starts(self, times):
        times = sorted(times)
        no_unload = simulate_application(times, NoUnloadingPolicy(), horizon_minutes=HORIZON)
        fixed = simulate_application(times, FixedKeepAlivePolicy(10), horizon_minutes=HORIZON)
        hybrid = simulate_application(times, HybridHistogramPolicy(), horizon_minutes=HORIZON)
        assert no_unload.cold_starts <= fixed.cold_starts
        assert no_unload.cold_starts <= hybrid.cold_starts
        assert no_unload.cold_starts == 1
