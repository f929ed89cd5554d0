"""Memory-bounded engine passes and shared-memory parallel shards.

Three contracts from the out-of-core scale-out work:

* ``RunnerOptions.max_resident_bytes`` chunks every pass (and each
  parallel shard) over contiguous application ranges without changing a
  single result — chunked runs are byte-identical to unchunked runs of
  the same evaluator — and bounds the pass's peak memory near the
  budget.
* The engine accepts a bare (typically memory-mapped)
  :class:`~repro.trace.store.InvocationStore` and produces the same
  results as the full-workload engine over the same columns.
* Parallel shards travel as ``(path, app range)`` descriptors: forked
  workers re-open the archive memory-mapped, and results are
  byte-identical across 1, 2, and 4 workers.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.policies.registry import fixed_keepalive_factory, hybrid_factory
from repro.simulation.engine import (
    _PER_APP_RESIDENT_BYTES,
    PASS_BYTES_PER_INVOCATION,
    RunnerOptions,
    SimulationEngine,
)
from repro.simulation.runner import WorkloadRunner
from repro.trace.generator import GeneratorConfig, WorkloadGenerator
from repro.trace.store import InvocationStore
from tests.conftest import make_workload

BUDGET = 64 * 1024  # small enough to force many chunks on the test trace


@pytest.fixture(scope="module")
def workload():
    config = GeneratorConfig(
        num_apps=60, duration_minutes=1440.0, seed=21, max_daily_rate=800.0
    )
    return WorkloadGenerator(config).generate()


@pytest.fixture(scope="module")
def mapped_store(workload, tmp_path_factory) -> InvocationStore:
    path = workload.store.save(tmp_path_factory.mktemp("store") / "trace.npz")
    return InvocationStore.open(path, mmap=True)


def result_rows(aggregate):
    return [
        (r.app_id, r.invocations, r.cold_starts, r.wasted_memory_minutes)
        for r in aggregate.app_results
    ]


class TestRunnerOptionsValidation:
    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError, match="max_resident_bytes"):
            RunnerOptions(max_resident_bytes=0)

    def test_accepts_budget(self):
        assert RunnerOptions(max_resident_bytes=1 << 20).max_resident_bytes == 1 << 20


class TestChunkGeometry:
    def test_bounds_cover_every_app_exactly_once(self, workload):
        engine = SimulationEngine(
            workload, RunnerOptions(max_resident_bytes=BUDGET)
        )
        bounds = engine.app_chunk_bounds()
        assert len(bounds) > 1
        assert bounds[0][0] == 0
        assert bounds[-1][1] == workload.num_apps
        for (_, stop), (next_start, _) in zip(bounds, bounds[1:]):
            assert stop == next_start

    def test_chunks_respect_budget_except_single_big_apps(self, workload):
        engine = SimulationEngine(
            workload, RunnerOptions(max_resident_bytes=BUDGET)
        )
        counts = workload.store.app_counts()
        for start, stop in engine.app_chunk_bounds():
            chunk_bytes = (
                int(counts[start:stop].sum()) * PASS_BYTES_PER_INVOCATION
                + (stop - start) * _PER_APP_RESIDENT_BYTES
            )
            assert chunk_bytes <= BUDGET or stop - start == 1

    def test_no_budget_is_one_chunk(self, workload):
        engine = SimulationEngine(workload, RunnerOptions())
        assert engine.app_chunk_bounds() == [(0, workload.num_apps)]

    def test_work_items_range_concatenates_to_work_items(self, workload):
        engine = SimulationEngine(
            workload, RunnerOptions(max_resident_bytes=BUDGET)
        )
        whole = engine.csr_slice()
        chunks = [
            engine.csr_slice(start, stop) for start, stop in engine.app_chunk_bounds()
        ]
        chunked_ids = [app_id for chunk in chunks for app_id in chunk.app_ids]
        assert chunked_ids == list(whole.app_ids)
        chunked_times = [times for chunk in chunks for times in chunk.app_times()]
        for a, b in zip(chunked_times, whole.app_times()):
            np.testing.assert_array_equal(a, b)

    def test_shard_ranges_cover_apps_in_order(self, workload):
        engine = SimulationEngine(
            workload, RunnerOptions(max_resident_bytes=BUDGET, workers=4)
        )
        ranges = engine.shard_ranges(4)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == workload.num_apps
        for (_, stop), (next_start, _) in zip(ranges, ranges[1:]):
            assert stop == next_start


class TestChunkedEquivalence:
    @pytest.mark.parametrize("execution", ["serial", "auto"])
    @pytest.mark.parametrize("policy", ["fixed", "hybrid"])
    def test_chunked_matches_unchunked(self, workload, execution, policy):
        factory = (
            fixed_keepalive_factory(10.0) if policy == "fixed" else hybrid_factory()
        )
        reference = WorkloadRunner(
            workload, RunnerOptions(execution=execution)
        ).run_policy(factory)
        chunked = WorkloadRunner(
            workload,
            RunnerOptions(execution=execution, max_resident_bytes=BUDGET),
        ).run_policy(factory)
        assert result_rows(chunked) == result_rows(reference)

    def test_family_sweep_chunked_matches_unchunked(self, workload):
        factories = [fixed_keepalive_factory(k) for k in (5.0, 10.0, 60.0)]
        factories.append(hybrid_factory())
        reference = WorkloadRunner(workload).run_policies(factories)
        chunked = WorkloadRunner(
            workload, RunnerOptions(max_resident_bytes=BUDGET)
        ).run_policies(factories)
        assert reference.keys() == chunked.keys()
        for name in reference:
            assert result_rows(chunked[name]) == result_rows(reference[name])

    def test_progress_reports_complete_totals(self, workload):
        seen: list[tuple[int, int]] = []
        WorkloadRunner(
            workload, RunnerOptions(max_resident_bytes=BUDGET)
        ).run_policy(
            fixed_keepalive_factory(10.0),
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen[-1][0] == seen[-1][1]

    @pytest.mark.parametrize("run", ["alone", "family"])
    def test_budget_bounds_the_hybrid_pass_peak(self, run):
        """A budgeted hybrid pass peaks near its budget, not near the trace.

        Twelve applications of 1,000 invocations each: unbudgeted, one
        hybrid pass over all 12,000 invocations holds about 1 MB.  Under
        a 64 KiB budget every chunk's pass state must fit the budget —
        for one configuration run alone and for a two-configuration
        family — so the traced peak (pass state plus the retained per-app
        results) stays within a small multiple of it.
        """
        rng = np.random.default_rng(5)
        workload = make_workload(
            {
                f"app{i:02d}": np.sort(rng.uniform(0.0, 1440.0, 1_000)).tolist()
                for i in range(12)
            }
        )
        budget = 64 * 1024
        runner = WorkloadRunner(workload, RunnerOptions(max_resident_bytes=budget))
        factories = [hybrid_factory()]
        if run == "family":
            factories.append(hybrid_factory(cv_threshold=5.0).renamed("hybrid-cv5"))
        runner.run_policies(factories)  # warm caches outside the trace
        tracemalloc.start()
        try:
            results = runner.run_policies(factories)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(result.num_apps == 12 for result in results.values())
        assert peak <= 2 * budget, f"peak {peak} B for a {budget} B budget"


class TestStoreOnlyEngine:
    def test_store_matches_workload_results(self, workload, mapped_store):
        for factory in (fixed_keepalive_factory(10.0), hybrid_factory()):
            from_workload = WorkloadRunner(workload, RunnerOptions()).run_policy(
                factory
            )
            from_store = WorkloadRunner(mapped_store, RunnerOptions()).run_policy(
                factory
            )
            assert result_rows(from_store) == result_rows(from_workload)

    def test_store_engine_exposes_store(self, mapped_store):
        engine = SimulationEngine(mapped_store)
        assert engine.store is mapped_store
        assert engine.workload is None


class TestSharedMemoryShards:
    def test_results_identical_across_1_2_4_workers(self, mapped_store):
        assert mapped_store.source_path is not None
        for factory in (fixed_keepalive_factory(10.0), hybrid_factory()):
            reference = None
            for workers in (1, 2, 4):
                run = WorkloadRunner(
                    mapped_store,
                    RunnerOptions(workers=workers, max_resident_bytes=BUDGET),
                ).run_policy(factory)
                rows = result_rows(run)
                if reference is None:
                    reference = rows
                else:
                    assert rows == reference, f"workers={workers}"

    def test_parallel_matches_in_process_on_mapped_store(self, mapped_store):
        factory = hybrid_factory()
        in_process = WorkloadRunner(mapped_store, RunnerOptions()).run_policy(factory)
        parallel = WorkloadRunner(
            mapped_store, RunnerOptions(workers=3)
        ).run_policy(factory)
        assert result_rows(parallel) == result_rows(in_process)

    def test_family_sweep_sharded_over_mapped_store(self, mapped_store):
        factories = [fixed_keepalive_factory(k) for k in (5.0, 10.0, 60.0)]
        reference = WorkloadRunner(mapped_store).run_policies(factories)
        sharded = WorkloadRunner(
            mapped_store, RunnerOptions(workers=2, max_resident_bytes=BUDGET)
        ).run_policies(factories)
        for name in reference:
            assert result_rows(sharded[name]) == result_rows(reference[name])

    def test_worker_store_in_parent_is_engine_store(self, mapped_store):
        engine = SimulationEngine(mapped_store)
        assert engine.worker_store() is mapped_store
