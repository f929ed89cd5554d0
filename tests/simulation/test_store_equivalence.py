"""Store-vs-dict equivalence: the columnar pipeline is a drop-in replacement.

The seed code stored invocations as per-function dict arrays and merged
them per app on demand (sort + concat); the columnar
:class:`~repro.trace.store.InvocationStore` replaced that everywhere.
This suite replays the seed's dict-based computations and checks that

* per-app merged timestamps are **byte-identical** to the store's
  zero-copy blocks;
* every engine row (cold starts, waste, invocation counts) produced from
  store slices is byte-identical to the scalar engine replaying the
  dict-merged arrays;
* characterization statistics (IAT CVs, daily rates, hourly load,
  headline numbers) match the dict-based formulas within 1e-9.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.characterization.report import CharacterizationReport
from repro.characterization.stats import daily_rate_from_count
from repro.simulation.coldstart import ColdStartSimulator
from repro.simulation.engine import RunnerOptions, SimulationEngine
from repro.trace.arrival import iat_coefficient_of_variation
from repro.policies.registry import (
    fixed_keepalive_factory,
    hybrid_factory,
    no_unloading_factory,
)


# --------------------------------------------------------------------------- #
# The seed's dict-based representation, reconstructed per function
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def legacy_dicts(medium_workload):
    """Per-function dict + per-app sort-and-concat merge, as the seed did."""
    per_function = {
        fid: np.sort(np.asarray(medium_workload.function_invocations(fid), dtype=float))
        for fid in medium_workload.store.function_ids
    }
    per_app = {}
    for app in medium_workload.apps:
        pieces = [per_function[f.function_id] for f in app.functions]
        per_app[app.app_id] = np.sort(np.concatenate(pieces)) if pieces else np.empty(0)
    return per_function, per_app


@pytest.fixture(scope="module")
def dict_backed_scalar(medium_workload, legacy_dicts):
    """Scalar replay of the dict merges, computed once per factory name.

    The ``serial`` and ``auto`` parametrizations compare against the same
    reference rows, so each factory's reference is replayed only once.
    """
    _, per_app = legacy_dicts
    simulator = ColdStartSimulator(horizon_minutes=medium_workload.duration_minutes)
    references: dict = {}

    def reference(factory):
        if factory.name not in references:
            references[factory.name] = {
                app.app_id: simulator.simulate_app(
                    app.app_id, per_app[app.app_id], factory.create()
                )
                for app in medium_workload.apps
                if per_app[app.app_id].size >= 1
            }
        return references[factory.name]

    return reference


class TestTimestampEquivalence:
    def test_app_blocks_byte_identical_to_dict_merge(self, medium_workload, legacy_dicts):
        _, per_app = legacy_dicts
        for app in medium_workload.apps:
            store_block = medium_workload.app_invocations(app.app_id)
            legacy = per_app[app.app_id]
            assert store_block.tobytes() == legacy.tobytes()

    def test_function_slices_byte_identical_to_dict(self, medium_workload, legacy_dicts):
        per_function, _ = legacy_dicts
        for fid, legacy in per_function.items():
            assert medium_workload.function_invocations(fid).tobytes() == legacy.tobytes()


class TestEngineEquivalence:
    @pytest.mark.parametrize(
        "make_factory",
        [
            lambda: fixed_keepalive_factory(10.0),
            lambda: fixed_keepalive_factory(60.0),
            lambda: no_unloading_factory(),
            lambda: hybrid_factory(),
        ],
        ids=["fixed-10", "fixed-60", "no-unload", "hybrid"],
    )
    @pytest.mark.parametrize("execution", ["serial", "auto"])
    def test_rows_byte_identical_to_dict_backed_scalar(
        self, medium_workload, legacy_dicts, dict_backed_scalar, make_factory, execution
    ):
        """Engine rows from store slices == scalar replay of dict merges.

        The serial route must be byte-identical: same arrays, same
        per-term float operations.  The ``auto`` family passes sum each
        application's terms in another order than the scalar loop by
        design, so waste there is held to the 1e-9 equivalence bound
        instead.
        """
        _, per_app = legacy_dicts
        factory = make_factory()
        engine = SimulationEngine(medium_workload, RunnerOptions(execution=execution))
        result = engine.run_policy(factory)
        reference = dict_backed_scalar(factory)
        rows = {row.app_id: row for row in result.app_results}
        checked = 0
        for app in medium_workload.apps:
            legacy_times = per_app[app.app_id]
            if legacy_times.size < 1:
                assert app.app_id not in rows
                continue
            expected = reference[app.app_id]
            row = rows[app.app_id]
            assert row.invocations == expected.invocations
            assert row.cold_starts == expected.cold_starts
            if execution == "serial":
                # Bit-for-bit float equality, not approx: identical inputs
                # must drive identical per-term operations.
                assert row.wasted_memory_minutes == expected.wasted_memory_minutes
            else:
                assert row.wasted_memory_minutes == pytest.approx(
                    expected.wasted_memory_minutes, abs=1e-9, rel=1e-12
                )
            checked += 1
        assert checked > 0


class TestCharacterizationEquivalence:
    def test_iat_cvs_match_dict_loop(self, medium_workload, legacy_dicts):
        _, per_app = legacy_dicts
        report = CharacterizationReport(medium_workload)
        analysis = report.iat_variability
        for app in medium_workload.apps:
            times = per_app[app.app_id]
            if times.size < 3:
                assert app.app_id not in analysis.cv_by_app
                continue
            expected = iat_coefficient_of_variation(times)
            got = analysis.cv_by_app[app.app_id]
            if np.isnan(expected):
                assert np.isnan(got)
            else:
                assert got == pytest.approx(expected, abs=1e-9)

    def test_daily_rates_match_dict_loop(self, medium_workload, legacy_dicts):
        per_function, per_app = legacy_dicts
        report = CharacterizationReport(medium_workload)
        popularity = report.popularity
        expected_app = np.asarray(
            [
                daily_rate_from_count(per_app[app.app_id].size, medium_workload.duration_minutes)
                for app in medium_workload.apps
            ]
        )
        np.testing.assert_allclose(popularity.app_daily_rates, expected_app, atol=1e-9)
        expected_fn = np.asarray(
            [
                daily_rate_from_count(times.size, medium_workload.duration_minutes)
                for times in per_function.values()
            ]
        )
        np.testing.assert_allclose(popularity.function_daily_rates, expected_fn, atol=1e-9)

    def test_hourly_totals_match_dict_loop(self, medium_workload, legacy_dicts):
        per_function, _ = legacy_dicts
        num_hours = int(np.ceil(medium_workload.duration_minutes / 60.0))
        expected = np.zeros(num_hours, dtype=np.int64)
        for times in per_function.values():
            if times.size:
                bins = np.clip((times / 60.0).astype(int), 0, num_hours - 1)
                np.add.at(expected, bins, 1)
        np.testing.assert_array_equal(
            medium_workload.hourly_invocation_totals(), expected
        )

    def test_headline_numbers_are_finite(self, medium_workload):
        numbers = CharacterizationReport(medium_workload).headline_numbers()
        for key, value in numbers.items():
            assert np.isfinite(value), key


class TestMemoryMappedPipeline:
    def test_saved_store_reopens_and_simulates_identically(
        self, tmp_path, medium_workload
    ):
        """A written store reopens memory-mapped and drives the engine
        without ever materializing per-function dicts."""
        from repro.trace.schema import Workload
        from repro.trace.store import InvocationStore

        path = medium_workload.store.save(tmp_path / "medium.npz")
        reopened = InvocationStore.open(path, mmap=True)
        assert reopened.is_memory_mapped
        workload = Workload.from_store(medium_workload.apps, reopened)
        factory = fixed_keepalive_factory(10.0)
        baseline = SimulationEngine(medium_workload, RunnerOptions()).run_policy(factory)
        mapped = SimulationEngine(workload, RunnerOptions()).run_policy(factory)
        assert len(baseline.app_results) == len(mapped.app_results)
        for expected, got in zip(baseline.app_results, mapped.app_results):
            assert got.app_id == expected.app_id
            assert got.cold_starts == expected.cold_starts
            assert got.wasted_memory_minutes == expected.wasted_memory_minutes
