"""Bank-equivalence suite: banked stepping against the scalar reference.

Banked stepping replaces one scalar
:class:`~repro.core.hybrid.HybridHistogramPolicy` instance per application
with a single struct-of-arrays :class:`~repro.policies.bank.HybridPolicyBank`.
The bank was designed so that every vectorized float operation mirrors the
scalar policy's arithmetic element for element; this suite locks that down:

* :class:`HistogramBank` rows match a scalar
  :class:`~repro.core.histogram.IdleTimeHistogram` fed the same idle times
  — counts, OOB, CV, head/tail cutoffs, and scalar extraction — under
  both generic and prefix stepping;
* on randomized multi-app workloads (including ARIMA-triggering sparse
  apps and sub-``min_observations`` apps), banked stepping reproduces
  the serial engine's per-app cold-start counts exactly and wasted-memory
  minutes within 1e-9, along with mode counts and OOB counters;
* the engine's hybrid family pass — the same longest-first lockstep
  stepping, recorded once and evaluated as decision masks — matches the
  serial engine the same way, sharded or not: 1, 2, and 4 workers
  produce byte-identical comparison rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import HybridPolicyConfig
from repro.core.histogram import IdleTimeHistogram
from repro.core.histogram_bank import HistogramBank
from repro.core.hybrid import HybridHistogramPolicy
from repro.policies.bank import HybridPolicyBank, PolicyBank
from repro.policies.registry import fixed_keepalive_factory, hybrid_factory
from repro.simulation.coldstart import ColdStartSimulator
from repro.simulation.engine import RunnerOptions
from repro.simulation.metrics import AppSimResult
from repro.simulation.runner import WorkloadRunner
from tests.conftest import make_workload

WASTE_TOLERANCE = 1e-9
HORIZON = 3 * 1440.0


def random_app_streams(seed: int, num_apps: int = 30) -> dict[str, np.ndarray]:
    """Synthetic per-app invocation streams covering all policy modes.

    Cycles through four archetypes: dense (histogram-mode), sparse with
    gaps beyond the 4-hour histogram range (ARIMA-triggering), tiny
    (below ``min_observations``), and bursty with a concentrated
    idle-time distribution.
    """
    rng = np.random.default_rng(seed)
    streams: dict[str, np.ndarray] = {}
    for i in range(num_apps):
        kind = i % 4
        if kind == 0:
            n = int(rng.integers(50, 400))
            times = np.sort(rng.uniform(0.0, HORIZON, n))
        elif kind == 1:
            n = int(rng.integers(6, 14))
            gaps = rng.uniform(250.0, 500.0, n)
            times = np.cumsum(gaps)
            times = times[times <= HORIZON]
        elif kind == 2:
            n = int(rng.integers(1, 4))
            times = np.sort(rng.uniform(0.0, HORIZON, n))
        else:
            n = int(rng.integers(30, 120))
            gaps = rng.choice([2.0, 3.0, 5.0, 300.0], n, p=[0.4, 0.3, 0.25, 0.05])
            times = np.cumsum(gaps)
            times = times[times <= HORIZON]
        streams[f"app{i:03d}"] = times
    return streams


def assert_app_results_match(
    reference: list[AppSimResult], candidate: list[AppSimResult]
) -> None:
    assert len(candidate) == len(reference)
    for expected, actual in zip(reference, candidate):
        assert actual.app_id == expected.app_id
        assert actual.invocations == expected.invocations
        assert actual.cold_starts == expected.cold_starts
        assert actual.wasted_memory_minutes == pytest.approx(
            expected.wasted_memory_minutes, abs=WASTE_TOLERANCE, rel=WASTE_TOLERANCE
        )
        assert dict(actual.mode_counts) == dict(expected.mode_counts)
        assert actual.oob_idle_times == expected.oob_idle_times


# --------------------------------------------------------------------------- #
# HistogramBank against the scalar histogram
# --------------------------------------------------------------------------- #
class TestHistogramBankEquivalence:
    RANGE = 60.0

    def random_bank_and_scalars(self, seed: int, prefix: bool):
        """Drive a bank and per-row scalar histograms with the same stream."""
        rng = np.random.default_rng(seed)
        num_apps = int(rng.integers(1, 8))
        bank = HistogramBank(num_apps, range_minutes=self.RANGE, bin_width_minutes=1.0)
        scalars = [IdleTimeHistogram(self.RANGE, 1.0) for _ in range(num_apps)]
        for _ in range(80):
            if prefix:
                k = int(rng.integers(1, num_apps + 1))
                rows = np.arange(k)
                idle = rng.uniform(0.0, 2.0 * self.RANGE, size=k)
                bank.observe_prefix(idle)
            else:
                k = int(rng.integers(1, num_apps + 1))
                rows = np.sort(rng.choice(num_apps, size=k, replace=False))
                idle = rng.uniform(0.0, 2.0 * self.RANGE, size=k)
                bank.observe(rows, idle)
            for row, value in zip(rows, idle):
                scalars[row].observe(value)
        return bank, scalars

    @pytest.mark.parametrize("prefix", [False, True], ids=["generic", "prefix"])
    @pytest.mark.parametrize("seed", range(4))
    def test_counts_cv_and_cutoffs_match(self, seed, prefix):
        bank, scalars = self.random_bank_and_scalars(seed, prefix)
        for row, scalar in enumerate(scalars):
            np.testing.assert_array_equal(bank.counts_row(row), scalar.counts)
            assert int(bank.oob_count[row]) == scalar.oob_count
            assert int(bank.total_count[row]) == scalar.total_count
            assert bank.bin_count_cv[row] == scalar.bin_count_cv
            if scalar.in_bounds_count:
                head, tail = bank.head_tail_cutoffs(np.array([row]), 5.0, 99.0)
                assert head[0] == scalar.head_cutoff(5.0)
                assert tail[0] == scalar.tail_cutoff(99.0)
        n = len(scalars)
        head_all, tail_all = bank.head_tail_cutoffs_prefix(n, 5.0, 99.0)
        for row, scalar in enumerate(scalars):
            if scalar.in_bounds_count:
                assert head_all[row] == scalar.head_cutoff(5.0)
                assert tail_all[row] == scalar.tail_cutoff(99.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_extract_row_matches_scalar_state(self, seed):
        bank, scalars = self.random_bank_and_scalars(seed, prefix=True)
        for row, scalar in enumerate(scalars):
            clone = bank.extract_row(row)
            np.testing.assert_array_equal(clone.counts, scalar.counts)
            assert clone.oob_count == scalar.oob_count
            assert clone.total_count == scalar.total_count
            # Exact Welford state, not a from-scratch recompute.
            assert clone.bin_count_cv == scalar.bin_count_cv

    def test_min_oob_row_tracks_lowest_oob_row(self):
        bank = HistogramBank(4, range_minutes=10.0)
        assert bank.min_oob_row == 4
        bank.observe(np.array([2]), np.array([50.0]))
        assert bank.min_oob_row == 2
        bank.observe_prefix(np.array([1.0, 99.0]))
        assert bank.min_oob_row == 1
        bank.observe_prefix(np.array([1.0]))
        assert bank.min_oob_row == 1

    def test_validation_matches_scalar_conventions(self):
        bank = HistogramBank(2, range_minutes=60.0)
        with pytest.raises(ValueError, match="non-negative"):
            bank.observe(np.array([0]), np.array([-1.0]))
        with pytest.raises(ValueError, match="percentile"):
            bank.head_tail_cutoffs(np.array([0]), -1.0, 99.0)
        with pytest.raises(ValueError, match="no in-bounds"):
            bank.head_tail_cutoffs(np.array([0]), 5.0, 99.0)
        with pytest.raises(ValueError):
            HistogramBank(-1)
        with pytest.raises(ValueError):
            HistogramBank(2, range_minutes=0.0)


# --------------------------------------------------------------------------- #
# HybridPolicyBank stepping against scalar policies
# --------------------------------------------------------------------------- #
class TestHybridPolicyBankStepping:
    def test_lockstep_decisions_match_scalar_policies(self):
        rng = np.random.default_rng(7)
        config = HybridPolicyConfig(histogram_range_minutes=60.0)
        num_apps = 5
        bank = HybridPolicyBank(num_apps, config)
        policies = [HybridHistogramPolicy(config) for _ in range(num_apps)]
        now = np.zeros(num_apps)
        for step in range(40):
            now = now + rng.uniform(0.1, 90.0, size=num_apps)
            cold = rng.random(num_apps) < 0.3
            prewarm, keepalive = bank.on_invocations(now, cold)
            for row, policy in enumerate(policies):
                decision = policy.on_invocation(float(now[row]), cold=bool(cold[row]))
                assert prewarm[row] == decision.prewarm_minutes, (step, row)
                assert keepalive[row] == decision.keepalive_minutes, (step, row)
        for row, policy in enumerate(policies):
            assert bank.mode_counts(row) == {
                "histogram": policy.stats.histogram_decisions,
                "standard": policy.stats.standard_decisions,
                "arima": policy.stats.arima_decisions,
            }
            assert bank.oob_idle_times(row) == policy.stats.out_of_bounds_idle_times

    def test_shrinking_prefix_matches_scalar_policies(self):
        config = HybridPolicyConfig(histogram_range_minutes=30.0)
        bank = HybridPolicyBank(3, config)
        policies = [HybridHistogramPolicy(config) for _ in range(3)]
        widths = [3, 3, 2, 2, 1]
        clock = 0.0
        for step, width in enumerate(widths):
            clock += 7.0
            now = np.full(width, clock) + np.arange(width)
            cold = np.array([step % 2 == 0] * width)
            prewarm, keepalive = bank.on_invocations(now, cold)
            for row in range(width):
                decision = policies[row].on_invocation(
                    float(now[row]), cold=bool(cold[row])
                )
                assert prewarm[row] == decision.prewarm_minutes
                assert keepalive[row] == decision.keepalive_minutes

    def test_non_prefix_stepping_falls_back_and_still_matches(self):
        # Widening the active set violates the lockstep protocol; the bank
        # must drop to its general path and stay correct.
        config = HybridPolicyConfig(histogram_range_minutes=30.0)
        bank = HybridPolicyBank(4, config)
        policies = [HybridHistogramPolicy(config) for _ in range(4)]
        schedule = [2, 4, 3, 4]
        clock = 0.0
        for step, width in enumerate(schedule):
            clock += 11.0
            now = np.full(width, clock) + np.arange(width) * 0.5
            cold = np.full(width, True)
            prewarm, keepalive = bank.on_invocations(now, cold)
            for row in range(width):
                decision = policies[row].on_invocation(
                    float(now[row]), cold=True
                )
                assert prewarm[row] == decision.prewarm_minutes
                assert keepalive[row] == decision.keepalive_minutes

    def test_extract_policy_resumes_identically(self):
        config = HybridPolicyConfig(histogram_range_minutes=60.0)
        bank = HybridPolicyBank(2, config)
        scalar = HybridHistogramPolicy(config)
        clock = 0.0
        for _ in range(20):
            clock += 13.0
            bank.on_invocations(np.array([clock, clock]), np.array([False, False]))
            scalar.on_invocation(clock, cold=False)
        clone = bank.extract_policy(0)
        # Resuming the clone and the reference must yield identical windows.
        for _ in range(10):
            clock += 31.0
            expected = scalar.on_invocation(clock, cold=False)
            actual = clone.on_invocation(clock, cold=False)
            assert actual == expected
        assert clone.stats.as_dict() == scalar.stats.as_dict()

    def test_bank_validation(self):
        bank = HybridPolicyBank(2)
        with pytest.raises(ValueError, match="holds 2 apps"):
            bank.on_invocations(np.zeros(3), np.zeros(3, dtype=bool))
        with pytest.raises(ValueError, match="cold flags"):
            bank.on_invocations(np.zeros(2), np.zeros(1, dtype=bool))
        bank.on_invocations(np.array([10.0, 10.0]), np.array([True, True]))
        with pytest.raises(ValueError, match="non-decreasing"):
            bank.on_invocations(np.array([5.0, 15.0]), np.array([False, False]))
        with pytest.raises(ValueError):
            HybridPolicyBank(-1)

    def test_base_bank_defaults(self):
        class Minimal(PolicyBank):
            def on_invocations(self, now_minutes, cold):  # pragma: no cover
                return np.zeros(now_minutes.size), np.zeros(now_minutes.size)

        bank = Minimal(3)
        assert bank.mode_counts(0) == {}
        assert bank.oob_idle_times(0) == 0
        assert not bank.supports_extraction
        with pytest.raises(NotImplementedError):
            bank.extract_policy(0)


# --------------------------------------------------------------------------- #
# Banked grouped-stepping loop against the serial simulator
# --------------------------------------------------------------------------- #
class TestBankedSimulationAgainstSerial:
    def run_both(self, streams: dict[str, np.ndarray], drain: int = 8):
        config = HybridPolicyConfig()
        simulator = ColdStartSimulator(horizon_minutes=HORIZON)
        serial = [
            simulator.simulate_app(app_id, times, HybridHistogramPolicy(config))
            for app_id, times in streams.items()
        ]
        banked = simulator.simulate_apps_banked(
            list(streams),
            list(streams.values()),
            lambda n: HybridPolicyBank(n, config),
            scalar_drain_threshold=drain,
        )
        return serial, banked

    @pytest.mark.parametrize("seed", [0, 1, 2020])
    def test_randomized_workloads_match(self, seed):
        streams = random_app_streams(seed)
        serial, banked = self.run_both(streams)
        assert_app_results_match(serial, banked)
        # The archetypes must actually exercise the ARIMA and
        # sub-min_observations paths, or this test proves nothing.
        assert sum(r.mode_counts.get("arima", 0) for r in serial) > 0
        assert any(r.invocations < HybridPolicyConfig().min_observations for r in serial)

    @pytest.mark.parametrize("drain", [0, 2, 1000])
    def test_drain_threshold_is_observationally_transparent(self, drain):
        streams = random_app_streams(5, num_apps=12)
        serial, banked = self.run_both(streams, drain=drain)
        assert_app_results_match(serial, banked)

    def test_edge_case_streams_match(self):
        streams = {
            "empty": np.array([]),
            "single": np.array([700.0]),
            "duplicates": np.array([10.0, 10.0, 10.0, 400.0, 400.0]),
            "at-horizon": np.array([500.0, HORIZON]),
            "dense": np.linspace(0.0, HORIZON, 97),
        }
        serial, banked = self.run_both(streams)
        assert_app_results_match(serial, banked)

    def test_input_validation_matches_serial_contract(self):
        simulator = ColdStartSimulator(horizon_minutes=HORIZON)
        factory = HybridPolicyBank
        with pytest.raises(ValueError, match="sorted"):
            simulator.simulate_apps_banked(["a"], [[5.0, 1.0]], factory)
        with pytest.raises(ValueError, match="horizon"):
            simulator.simulate_apps_banked(["a"], [[HORIZON + 1.0]], factory)
        with pytest.raises(ValueError, match="one invocation array"):
            simulator.simulate_apps_banked(["a", "b"], [[1.0]], factory)


# --------------------------------------------------------------------------- #
# Engine runs and sharding
# --------------------------------------------------------------------------- #
class TestBankedEngineRouting:
    def workload(self, seed: int = 3):
        return make_workload(
            {
                app_id: list(times)
                for app_id, times in random_app_streams(seed, num_apps=16).items()
            },
            duration_minutes=HORIZON,
        )

    def test_banked_spelling_means_auto(self):
        assert RunnerOptions(execution="banked") == RunnerOptions()

    def test_capability_flags(self):
        assert hybrid_factory().supports_banked
        assert not fixed_keepalive_factory(10.0).supports_banked
        assert isinstance(hybrid_factory().make_bank(4), HybridPolicyBank)
        with pytest.raises(NotImplementedError):
            fixed_keepalive_factory(10.0).make_bank(4)

    @pytest.mark.parametrize("execution", ["banked", "auto"])
    def test_engine_routes_match_serial(self, execution):
        workload = self.workload()
        factory = hybrid_factory()
        reference = WorkloadRunner(
            workload, RunnerOptions(execution="serial")
        ).run_policy(factory)
        candidate = WorkloadRunner(
            workload, RunnerOptions(execution=execution)
        ).run_policy(factory)
        assert_app_results_match(
            list(reference.app_results), list(candidate.app_results)
        )

    def test_banked_falls_back_for_fixed_policies(self):
        workload = self.workload()
        factory = fixed_keepalive_factory(10.0)
        reference = WorkloadRunner(
            workload, RunnerOptions(execution="serial")
        ).run_policy(factory)
        candidate = WorkloadRunner(
            workload, RunnerOptions(execution="banked")
        ).run_policy(factory)
        assert candidate.total_cold_starts == reference.total_cold_starts
        assert candidate.total_wasted_memory_minutes == pytest.approx(
            reference.total_wasted_memory_minutes, rel=WASTE_TOLERANCE
        )

    def test_parallel_workers_byte_identical(self):
        workload = self.workload(seed=11)
        rows_by_workers = {}
        for workers in (1, 2, 4):
            runner = WorkloadRunner(workload, RunnerOptions(workers=workers))
            comparison = runner.compare(
                [fixed_keepalive_factory(10.0), hybrid_factory()]
            )
            rows_by_workers[workers] = comparison.rows()
        assert rows_by_workers[1] == rows_by_workers[2] == rows_by_workers[4]
        # Byte-identical: equal values AND equal representations, so no
        # float differs even in its last bit.
        assert (
            repr(rows_by_workers[1])
            == repr(rows_by_workers[2])
            == repr(rows_by_workers[4])
        )

    def test_parallel_matches_serial_per_app(self):
        workload = self.workload(seed=13)
        factory = hybrid_factory()
        reference = WorkloadRunner(
            workload, RunnerOptions(execution="serial")
        ).run_policy(factory)
        candidate = WorkloadRunner(
            workload, RunnerOptions(workers=3)
        ).run_policy(factory)
        assert_app_results_match(
            list(reference.app_results), list(candidate.app_results)
        )

    def test_mode_usage_identical_across_routes(self):
        workload = self.workload(seed=17)
        factory = hybrid_factory()
        by_route = {
            route: WorkloadRunner(workload, options).run_policy(factory)
            for route, options in (
                ("serial", RunnerOptions(execution="serial")),
                ("auto", RunnerOptions()),
                ("sharded", RunnerOptions(workers=2)),
            )
        }
        usages = {mode: result.mode_usage() for mode, result in by_route.items()}
        assert usages["auto"] == usages["serial"] == usages["sharded"]
        assert usages["serial"]  # hybrid tracks modes
        oob = {mode: result.total_oob_idle_times for mode, result in by_route.items()}
        assert oob["auto"] == oob["serial"] == oob["sharded"]


class TestArimaHistoryAndBatching:
    """Ring-history views and the batched ARIMA branch."""

    @staticmethod
    def arima_heavy_bank(num_apps: int = 6, *, batched_arima: bool = True):
        """A bank whose rows all trip the out-of-bounds ARIMA trigger."""
        config = HybridPolicyConfig(histogram_range_minutes=20.0)
        bank = HybridPolicyBank(num_apps, config, batched_arima=batched_arima)
        rng = np.random.default_rng(23)
        now = np.zeros(num_apps)
        for _ in range(12):
            now = now + rng.uniform(25.0, 120.0, size=num_apps)  # all OOB
            bank.on_invocations(now, np.zeros(num_apps, dtype=bool))
        assert all(bank.mode_counts(row)["arima"] > 0 for row in range(num_apps))
        return bank, now, rng

    def test_unwrapped_history_is_a_readonly_view(self):
        bank, _, _ = self.arima_heavy_bank()
        history = bank._arima_history(0)
        assert history.base is bank._arima_ring
        assert not history.flags.writeable
        with pytest.raises(ValueError):
            history[0] = -1.0

    def test_wrapped_history_is_oldest_first(self):
        config = HybridPolicyConfig(histogram_range_minutes=20.0, arima_max_history=4)
        bank = HybridPolicyBank(1, config)
        clock = 0.0
        gaps = [30.0, 40.0, 50.0, 60.0, 70.0, 80.0]
        for gap in gaps:
            clock += gap
            bank.on_invocations(np.asarray([clock]), np.asarray([False]))
        history = bank._arima_history(0)
        assert history.tolist() == gaps[-4:]  # capacity 4, oldest first
        assert history.base is not bank._arima_ring  # wrapped: gathered copy

    def test_no_mutation_escapes_through_decisions(self):
        """Consumers of the zero-copy view must never alter bank state."""
        bank, now, rng = self.arima_heavy_bank()
        ring_before = bank._arima_ring.copy()
        pos_before = bank._arima_pos.copy()
        from repro.core.forecaster import IdleTimeForecaster

        forecaster = IdleTimeForecaster.from_history(bank._arima_history(0))
        forecaster.decide()
        policy = bank.extract_policy(0)
        policy.forecaster.observe(5.0)
        np.testing.assert_array_equal(bank._arima_ring, ring_before)
        np.testing.assert_array_equal(bank._arima_pos, pos_before)
        # Further banked decisions (the batched path reads the views
        # directly) leave only the expected new observation behind.
        bank.on_invocations(now + 50.0, np.zeros(now.size, dtype=bool))
        assert np.all(bank._arima_pos == pos_before + 1)

    def test_batched_branch_matches_scalar_loop_exactly(self):
        batched, now_a, rng_a = self.arima_heavy_bank(batched_arima=True)
        scalar, now_b, rng_b = self.arima_heavy_bank(batched_arima=False)
        np.testing.assert_array_equal(now_a, now_b)
        for _ in range(8):
            gaps = rng_a.uniform(1.0, 150.0, size=now_a.size)
            assert np.array_equal(gaps, rng_b.uniform(1.0, 150.0, size=now_b.size))
            now_a = now_a + gaps
            cold = np.zeros(now_a.size, dtype=bool)
            prewarm_batched, keepalive_batched = batched.on_invocations(now_a, cold)
            prewarm_scalar, keepalive_scalar = scalar.on_invocations(now_a, cold)
            np.testing.assert_array_equal(prewarm_batched, prewarm_scalar)
            np.testing.assert_array_equal(keepalive_batched, keepalive_scalar)
        assert batched.describe() == scalar.describe()
