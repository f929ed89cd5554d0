"""Equivalence suite locking the execution modes together.

The serial scalar loop (`ColdStartSimulator` driven one invocation at a
time) is the reference implementation of the paper's Section 5.1
methodology.  The ``auto`` family evaluators — the closed form for
constant keep-alive policies, the hybrid recording pass — and their
sharded runs (:mod:`repro.simulation.engine`,
:mod:`repro.simulation.sweep_engine`) exist purely for speed, so this
suite pins them to the reference:

* for seeded random workloads, every fast configuration must produce
  cold-start counts identical to the serial engine and wasted-memory
  minutes equal to within 1e-9, per application and in aggregate, for
  the fixed, no-unloading, and hybrid policy families;
* edge cases (empty app, single invocation, duplicate timestamps,
  invocation exactly at the horizon) must agree exactly;
* sharded runs must be deterministic: 1, 2, and 4 workers yield
  byte-identical comparison tables.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.fixed import FixedKeepAlivePolicy
from repro.policies.no_unload import NoUnloadingPolicy
from repro.policies.registry import (
    PolicyFactory,
    fixed_keepalive_factory,
    hybrid_factory,
    no_unloading_factory,
)
from repro.simulation.coldstart import ColdStartSimulator
from repro.simulation.engine import (
    EXECUTION_MODES,
    CsrSlice,
    RunnerOptions,
    SimulationEngine,
)
from repro.simulation.metrics import AppSimResult
from repro.simulation.runner import WorkloadRunner
from repro.simulation.sweep_engine import (
    _evaluate_constant_family,
    _evaluate_hybrid_family,
)
from repro.trace.generator import GeneratorConfig, WorkloadGenerator
from repro.trace.schema import Workload
from tests.conftest import make_workload

WASTE_TOLERANCE = 1e-9

#: The policy families every configuration must agree on: the constant
#: keep-alive family's closed form and the hybrid family's recording pass,
#: each run as a family of one.
POLICY_FACTORIES: tuple[PolicyFactory, ...] = (
    fixed_keepalive_factory(0.0),
    fixed_keepalive_factory(10.0),
    fixed_keepalive_factory(120.0),
    no_unloading_factory(),
    hybrid_factory(),
)

#: Options of the serial reference and of the fast configurations held to it:
#: in process, sharded, and chunked under a budget small enough to split
#: the test workloads into many application ranges.
ENGINE_OPTIONS = {
    "serial": {"execution": "serial"},
    "auto": {},
    "sharded": {"workers": 2},
    "budgeted": {"max_resident_bytes": 16 * 1024},
}
ENGINES = ("auto", "sharded", "budgeted")


def seeded_workload(seed: int, num_apps: int = 25) -> Workload:
    config = GeneratorConfig(
        num_apps=num_apps,
        duration_minutes=1440.0,
        seed=seed,
        max_daily_rate=600.0,
    )
    return WorkloadGenerator(config).generate()


def csr_slice(apps) -> CsrSlice:
    """A CSR slice of per-application timestamp lists, taken as given."""
    counts = [len(times) for times in apps]
    return CsrSlice(
        app_ids=tuple(f"app-{i}" for i in range(len(apps))),
        times=np.asarray([t for times in apps for t in times], dtype=np.float64),
        offsets=np.concatenate(([0], np.cumsum(counts, dtype=np.int64))),
    )


def run_engine(workload: Workload, factory: PolicyFactory, engine: str):
    options = RunnerOptions(**ENGINE_OPTIONS[engine])
    return WorkloadRunner(workload, options).run_policy(factory)


def assert_results_equivalent(reference, candidate) -> None:
    """Per-app and aggregate equality between two engine runs."""
    assert candidate.policy_name == reference.policy_name
    assert candidate.num_apps == reference.num_apps
    for expected, actual in zip(reference.app_results, candidate.app_results):
        assert actual.app_id == expected.app_id
        assert actual.invocations == expected.invocations
        assert actual.cold_starts == expected.cold_starts
        assert actual.wasted_memory_minutes == pytest.approx(
            expected.wasted_memory_minutes, abs=WASTE_TOLERANCE, rel=WASTE_TOLERANCE
        )
    assert candidate.total_cold_starts == reference.total_cold_starts
    assert candidate.total_wasted_memory_minutes == pytest.approx(
        reference.total_wasted_memory_minutes, rel=WASTE_TOLERANCE
    )


# --------------------------------------------------------------------------- #
# Random-workload equivalence
# --------------------------------------------------------------------------- #
class TestEngineEquivalenceOnRandomWorkloads:
    @pytest.mark.parametrize("seed", [7, 2020])
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("factory", POLICY_FACTORIES, ids=lambda f: f.name)
    def test_engines_match_serial(self, seed, engine, factory):
        workload = seeded_workload(seed)
        reference = run_engine(workload, factory, "serial")
        candidate = run_engine(workload, factory, engine)
        assert_results_equivalent(reference, candidate)


# --------------------------------------------------------------------------- #
# Constant keep-alive closed form against the scalar simulator, per application
# --------------------------------------------------------------------------- #
class TestClosedFormAgainstScalar:
    HORIZON = 1440.0

    def scalar(self, times, keepalive: float) -> AppSimResult:
        simulator = ColdStartSimulator(self.HORIZON)
        policy = (
            NoUnloadingPolicy() if math.isinf(keepalive) else FixedKeepAlivePolicy(keepalive)
        )
        result = simulator.simulate_app("app", times, policy)
        assert isinstance(result, AppSimResult)
        return result

    def closed_form(self, times, keepalive: float) -> AppSimResult:
        """The constant keep-alive family's pass over one application."""
        factory = (
            no_unloading_factory()
            if math.isinf(keepalive)
            else fixed_keepalive_factory(keepalive)
        )
        chunk = csr_slice([times])
        simulator = ColdStartSimulator(self.HORIZON)
        result = _evaluate_constant_family([factory], chunk, simulator)[factory.name]
        return result.app_results[0]

    def assert_app_equal(self, times, keepalive: float) -> None:
        expected = self.scalar(times, keepalive)
        actual = self.closed_form(times, keepalive)
        assert actual.invocations == expected.invocations
        assert actual.cold_starts == expected.cold_starts
        assert actual.wasted_memory_minutes == pytest.approx(
            expected.wasted_memory_minutes, abs=WASTE_TOLERANCE, rel=WASTE_TOLERANCE
        )

    @pytest.mark.parametrize("keepalive", [0.0, 1.0, 10.0, 60.0, 240.0, math.inf])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_streams(self, keepalive, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        times = np.sort(rng.uniform(0.0, self.HORIZON, size=n))
        self.assert_app_equal(times, keepalive)

    @pytest.mark.parametrize("keepalive", [0.0, 10.0, math.inf])
    def test_empty_app(self, keepalive):
        self.assert_app_equal([], keepalive)
        result = self.closed_form([], keepalive)
        assert result.invocations == 0
        assert result.cold_starts == 0
        assert result.wasted_memory_minutes == 0.0

    @pytest.mark.parametrize("keepalive", [0.0, 10.0, math.inf])
    @pytest.mark.parametrize("time", [0.0, 1.0, HORIZON])
    def test_single_invocation(self, keepalive, time):
        self.assert_app_equal([time], keepalive)

    @pytest.mark.parametrize("keepalive", [0.0, 10.0, math.inf])
    def test_duplicate_timestamps(self, keepalive):
        # Simultaneous arrivals: only the first at each instant can be cold.
        self.assert_app_equal([5.0, 5.0, 5.0, 30.0, 30.0], keepalive)

    @pytest.mark.parametrize("keepalive", [0.0, 10.0, math.inf])
    def test_invocation_at_horizon(self, keepalive):
        # The tail window is clipped to the horizon, so an invocation at the
        # horizon itself must contribute zero tail waste.
        self.assert_app_equal([100.0, self.HORIZON], keepalive)

    def test_arrival_exactly_at_window_expiry_is_warm(self):
        # PolicyDecision.covers treats the expiry instant as warm; the
        # closed form must use the same closed boundary.
        self.assert_app_equal([0.0, 10.0, 20.0], 10.0)
        result = self.closed_form([0.0, 10.0, 20.0], 10.0)
        assert result.cold_starts == 1

    def test_zero_keepalive_only_duplicates_warm(self):
        result = self.closed_form([1.0, 1.0, 2.0], 0.0)
        assert result.cold_starts == 2
        assert result.wasted_memory_minutes == 0.0

    def test_unsorted_input_rejected_like_scalar_engine(self):
        with pytest.raises(ValueError, match="sorted"):
            self.closed_form([50.0, 0.0, 5.0], 10.0)

    def test_out_of_horizon_rejected_like_scalar_engine(self):
        with pytest.raises(ValueError, match="horizon"):
            self.closed_form([10.0, self.HORIZON + 1.0], 10.0)
        with pytest.raises(ValueError, match="horizon"):
            self.closed_form([-1.0, 10.0], 10.0)

    @pytest.mark.parametrize(
        "evaluate, factory",
        [
            (_evaluate_constant_family, fixed_keepalive_factory(10.0)),
            (_evaluate_hybrid_family, hybrid_factory()),
        ],
        ids=["constant", "hybrid"],
    )
    def test_next_app_may_start_before_previous_ends(self, evaluate, factory):
        """A descent across an application boundary is legal."""
        apps = [[100.0, 200.0, 300.0], [], [50.0, 60.0], [0.0], [10.0, self.HORIZON]]
        simulator = ColdStartSimulator(self.HORIZON)
        result = evaluate([factory], csr_slice(apps), simulator)[factory.name]
        for row, times in zip(result.app_results, apps):
            expected = simulator.simulate_app(row.app_id, times, factory.create())
            assert row.invocations == expected.invocations
            assert row.cold_starts == expected.cold_starts
            assert row.wasted_memory_minutes == pytest.approx(
                expected.wasted_memory_minutes, abs=WASTE_TOLERANCE, rel=WASTE_TOLERANCE
            )


# --------------------------------------------------------------------------- #
# Flat CSR validation against the per-application contract
# --------------------------------------------------------------------------- #
FLAT_HORIZON = 100.0

#: Timestamps at and just outside the horizon's ends, plus ordinary ones.
flat_times = st.sampled_from(
    [
        0.0,
        FLAT_HORIZON,
        float(np.nextafter(0.0, -1.0)),
        -1.0,
        float(np.nextafter(FLAT_HORIZON, np.inf)),
        FLAT_HORIZON + 1.0,
    ]
) | st.floats(0.0, FLAT_HORIZON)


@st.composite
def csr_apps(draw) -> list[list[float]]:
    """Applications sorted or not, empty or single, next to each other.

    Sorted neighbours put descents exactly at application boundaries;
    unsorted applications put them inside one.
    """
    apps = []
    for _ in range(draw(st.integers(0, 6))):
        times = draw(st.lists(flat_times, max_size=5))
        apps.append(times if draw(st.booleans()) else sorted(times))
    return apps


class TestFlatValidation:
    @settings(max_examples=120, deadline=None)
    @given(apps=csr_apps())
    def test_raises_iff_some_app_breaks_the_per_app_contract(self, apps):
        simulator = ColdStartSimulator(FLAT_HORIZON)
        expected = None
        for times in apps:
            try:
                simulator._validated_times(times)
            except ValueError as error:
                expected = str(error)
                break
        chunk = csr_slice(apps)
        if expected is None:
            validated = simulator.validate_csr(chunk.times, chunk.offsets)
            assert validated.tobytes() == chunk.times.tobytes()
        else:
            with pytest.raises(ValueError) as raised:
                simulator.validate_csr(chunk.times, chunk.offsets)
            assert str(raised.value) == expected


# --------------------------------------------------------------------------- #
# Workload-level edge cases through every engine
# --------------------------------------------------------------------------- #
class TestEdgeCaseWorkloads:
    def edge_workload(self) -> Workload:
        horizon = 1440.0
        return make_workload(
            {
                "empty": [],
                "single": [700.0],
                "duplicates": [10.0, 10.0, 10.0, 400.0, 400.0],
                "at-horizon": [500.0, horizon],
                "dense": list(np.linspace(0.0, horizon, 97)),
            },
            duration_minutes=horizon,
        )

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("factory", POLICY_FACTORIES, ids=lambda f: f.name)
    def test_edge_cases_match_serial(self, engine, factory):
        workload = self.edge_workload()
        reference = run_engine(workload, factory, "serial")
        candidate = run_engine(workload, factory, engine)
        assert_results_equivalent(reference, candidate)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_min_invocations_filter_matches(self, engine):
        # Every engine skips the application without invocations.
        workload = self.edge_workload()
        reference = run_engine(workload, fixed_keepalive_factory(10.0), "serial")
        candidate = run_engine(workload, fixed_keepalive_factory(10.0), engine)
        assert reference.num_apps == candidate.num_apps == 4
        assert "empty" not in candidate.app_ids
        assert_results_equivalent(reference, candidate)

    def test_empty_workload_sharded(self):
        workload = make_workload({"empty": []})
        result = run_engine(workload, fixed_keepalive_factory(10.0), "sharded")
        assert result.num_apps == 0
        assert result.total_cold_starts == 0


# --------------------------------------------------------------------------- #
# Sharded determinism and plumbing
# --------------------------------------------------------------------------- #
class TestShardedDeterminism:
    def comparison_rows(self, workload: Workload, workers: int):
        runner = WorkloadRunner(workload, RunnerOptions(workers=workers))
        comparison = runner.compare(
            [fixed_keepalive_factory(10.0), no_unloading_factory(), hybrid_factory()]
        )
        return comparison.rows()

    def test_rows_identical_across_worker_counts(self):
        workload = seeded_workload(11, num_apps=20)
        rows_by_workers = {
            workers: self.comparison_rows(workload, workers) for workers in (1, 2, 4)
        }
        # Byte-identical: equal values AND equal representations, so no
        # float differs even in its last bit.
        assert rows_by_workers[1] == rows_by_workers[2] == rows_by_workers[4]
        assert repr(rows_by_workers[1]) == repr(rows_by_workers[2]) == repr(
            rows_by_workers[4]
        )

    def test_result_order_is_workload_order(self):
        workload = seeded_workload(3, num_apps=12)
        serial = run_engine(workload, fixed_keepalive_factory(10.0), "serial")
        sharded = WorkloadRunner(workload, RunnerOptions(workers=4)).run_policy(
            fixed_keepalive_factory(10.0)
        )
        assert [r.app_id for r in sharded.app_results] == [
            r.app_id for r in serial.app_results
        ]

    def test_progress_aggregates_to_total(self):
        workload = seeded_workload(5, num_apps=10)
        calls: list[tuple[int, int]] = []
        engine = SimulationEngine(workload, RunnerOptions(workers=2))
        engine.run_policy(
            fixed_keepalive_factory(10.0), progress=lambda d, t: calls.append((d, t))
        )
        assert calls, "progress callback never invoked"
        done, total = calls[-1]
        assert done == total
        assert all(d <= t for d, t in calls)
        # done is non-decreasing as shards complete.
        assert [d for d, _ in calls] == sorted(d for d, _ in calls)


class TestRunnerOptionsValidation:
    def test_unknown_execution_mode_rejected(self):
        with pytest.raises(ValueError, match="execution mode"):
            RunnerOptions(execution="turbo")

    def test_non_positive_worker_count_rejected(self):
        with pytest.raises(ValueError, match="worker count"):
            RunnerOptions(workers=0)

    def test_execution_modes(self):
        assert EXECUTION_MODES == ("auto", "serial")
        # The spelling from before the fast routes merged still means auto.
        assert RunnerOptions(execution="banked").execution == "auto"
        for removed in ("vectorized", "parallel"):
            with pytest.raises(ValueError, match="execution mode"):
                RunnerOptions(execution=removed)

    def test_defaults_are_valid(self):
        options = RunnerOptions()
        assert options.execution == "auto"
        assert options.workers is None
