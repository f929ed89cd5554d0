"""Tests for the fused generate→simulate pipeline.

The contract: :func:`simulate_streamed` must produce exactly the results
of the two-step path — stream the same config to disk, re-open the store,
run the same factories — under either execution mode, in process or
sharded, and for any number of processes generating and simulating
chunks.  This holds because every evaluator simulates applications
independently and a bare store weighs every application 1 MB in both
paths.
"""

from __future__ import annotations

import os

import pytest

from repro.policies.registry import PolicyFactory, fixed_keepalive_factory, hybrid_factory
from repro.simulation import fused as fused_module
from repro.simulation.fused import simulate_streamed
from repro.simulation.runner import RunnerOptions, WorkloadRunner
from repro.trace.generator import GeneratorConfig
from repro.trace.store import InvocationStore
from repro.trace.stream import stream_workload_to_store

SMALL = dict(
    num_apps=18, duration_minutes=360.0, seed=21, max_daily_rate=200.0
)


def factories():
    return [fixed_keepalive_factory(10.0), hybrid_factory()]


def disk_round_trip(tmp_path, config, options):
    stats = stream_workload_to_store(config, tmp_path / "disk.npz", chunk_apps=5)
    store = InvocationStore.open(stats.path)
    return WorkloadRunner(store, options).run_policies(factories())


@pytest.mark.parametrize(
    "route",
    [{"execution": "serial"}, {}, {"workers": 2}, {"max_resident_bytes": 16 * 1024}],
    ids=["serial", "auto", "sharded", "budgeted"],
)
def test_fused_equals_disk_round_trip_per_route(tmp_path, route):
    config = GeneratorConfig(**SMALL)
    options = RunnerOptions(**route)
    disk = disk_round_trip(tmp_path, config, options)
    fused = simulate_streamed(config, factories(), options=options, chunk_apps=5)
    assert disk.keys() == fused.keys()
    for name in disk:
        assert disk[name].app_results == fused[name].app_results, (route, name)


@pytest.mark.parametrize(
    "route",
    [{"execution": "serial"}, {}, {"max_resident_bytes": 16 * 1024}],
    ids=["serial", "auto", "budgeted"],
)
def test_fused_parallel_generation_matches_serial(route):
    config = GeneratorConfig(**SMALL)
    options = RunnerOptions(**route)
    serial = simulate_streamed(config, factories(), options=options, chunk_apps=4)
    for gen_workers in (2, 3):
        parallel = simulate_streamed(
            config, factories(), options=options, chunk_apps=4, gen_workers=gen_workers
        )
        assert serial.keys() == parallel.keys()
        for name in serial:
            assert serial[name].app_results == parallel[name].app_results, (
                gen_workers,
                name,
            )


def test_fused_simulates_in_the_generation_workers(monkeypatch):
    """With gen_workers > 1 the parent only merges rows: no chunk is
    simulated here.  Forked workers count on their own copies."""
    calls = []
    run_policies = WorkloadRunner.run_policies

    def counting(self, *args, **kwargs):
        calls.append(self)
        return run_policies(self, *args, **kwargs)

    config = GeneratorConfig(**SMALL)
    serial = simulate_streamed(config, factories(), chunk_apps=5)
    monkeypatch.setattr(WorkloadRunner, "run_policies", counting)
    parallel = simulate_streamed(config, factories(), chunk_apps=5, gen_workers=2)
    assert calls == []
    for name in serial:
        assert serial[name].app_results == parallel[name].app_results, name


class FactoryFailure(RuntimeError):
    """Raised by a policy factory, carrying the pid of the raising process."""


def failing_builder():
    raise FactoryFailure(os.getpid())


def test_fused_worker_error_surfaces_in_parent():
    config = GeneratorConfig(**SMALL)
    with pytest.raises(FactoryFailure) as raised:
        simulate_streamed(
            config, [PolicyFactory("failing", failing_builder)], chunk_apps=5, gen_workers=2
        )
    assert raised.value.args[0] != os.getpid()


def test_fused_reads_one_shot_factory_iterables_once():
    config = GeneratorConfig(**SMALL)
    from_list = simulate_streamed(config, factories(), chunk_apps=5)
    from_generator = simulate_streamed(
        config, (factory for factory in factories()), chunk_apps=5
    )
    assert from_list.keys() == from_generator.keys()
    for name in from_list:
        assert from_list[name].app_results == from_generator[name].app_results, name


def test_fused_rejects_duplicate_names_before_generating(monkeypatch):
    def no_generation(*args, **kwargs):
        raise AssertionError("a chunk was generated before the names were checked")

    monkeypatch.setattr(fused_module, "iter_chunk_columns", no_generation)
    config = GeneratorConfig(**SMALL)
    duplicated = [fixed_keepalive_factory(10.0), fixed_keepalive_factory(10.0)]
    with pytest.raises(ValueError, match="duplicate"):
        simulate_streamed(config, duplicated, chunk_apps=5)


def test_fused_rejects_nested_pools():
    config = GeneratorConfig(**SMALL)
    with pytest.raises(ValueError, match="gen_workers alone"):
        simulate_streamed(
            config, factories(), options=RunnerOptions(workers=2), gen_workers=2
        )


def test_fused_chunk_size_invisible_in_results():
    config = GeneratorConfig(**SMALL)
    small_chunks = simulate_streamed(config, factories(), chunk_apps=3)
    one_chunk = simulate_streamed(config, factories(), chunk_apps=SMALL["num_apps"])
    for name in small_chunks:
        assert small_chunks[name].app_results == one_chunk[name].app_results, name


def test_fused_progress_and_result_shape():
    config = GeneratorConfig(**SMALL)
    seen = []
    results = simulate_streamed(
        config,
        factories(),
        chunk_apps=5,
        progress=lambda done, total: seen.append((done, total)),
    )
    assert seen[-1] == (config.num_apps, config.num_apps)
    for result in results.values():
        # The engine skips zero-invocation applications (same as a
        # full-store run), so the row count is bounded by the population.
        assert 0 < result.num_apps <= config.num_apps
        assert result.total_invocations > 0
