"""Fused generate→simulate pipeline: each chunk is simulated where it is made.

The million-app path without the disk round-trip.
:func:`simulate_streamed` hands :func:`repro.trace.stream.iter_chunk_columns`
a per-chunk simulation that runs where the chunk is generated: with
``gen_workers > 1`` that is the forked pool worker that generated it,
otherwise the calling process.  There the chunk's columns become a small
:class:`~repro.trace.store.InvocationStore` and go through the same
engine routes a full-store run would use.  A chunk therefore never
leaves the process that made it; only each policy's result travels
back, as one column block of a few arrays
(:class:`~repro.simulation.metrics.AggregateResult`), and the parent
concatenates the blocks in chunk order.  The iterator's bounded window
of ``gen_workers + 2`` tasks gives natural backpressure: generation
never runs ahead of the parent by more than a few chunks, each worker
holds one chunk at a time, and the parent holds at most one window of
blocks plus the ``O(num_apps)`` result columns, regardless of
invocation count.

Because every engine route simulates applications independently, the
concatenated per-chunk results equal a run over the full store: per-app
metrics never look across application boundaries.  The equality is
pinned per route and per ``gen_workers`` by
``tests/simulation/test_fused.py``.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.simulation.metrics import AggregateResult, merge_results
from repro.simulation.runner import RunnerOptions, WorkloadRunner
from repro.simulation.sweep_engine import check_unique_policy_names
from repro.trace.generator import GeneratorConfig
from repro.trace.store import InvocationStore
from repro.trace.stream import DEFAULT_CHUNK_APPS, ChunkColumns, iter_chunk_columns

__all__ = ["simulate_streamed"]


def simulate_streamed(
    config: GeneratorConfig,
    factories: Iterable,
    *,
    options: RunnerOptions | None = None,
    chunk_apps: int = DEFAULT_CHUNK_APPS,
    gen_workers: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> dict[str, AggregateResult]:
    """Generate a workload and simulate it in one streaming pass.

    Args:
        config: Generator parameters.
        factories: Policy factories, as accepted by
            :meth:`~repro.simulation.runner.WorkloadRunner.run_policies`;
            any iterable, read once.
        options: Engine options applied to every chunk (either execution
            mode).  ``options.workers`` above 1 shards each chunk over a
            pool and needs ``gen_workers == 1``.
        chunk_apps: Applications generated and simulated per chunk — the
            streaming memory high-water mark.
        gen_workers: Processes that generate *and* simulate chunks.
        progress: Optional ``(apps_done, num_apps)`` callback per chunk.

    Returns:
        Results keyed by policy name, equal to running the same factories
        over the full on-disk store of the same config.

    Raises:
        ValueError: On duplicate policy names, or when both
            ``gen_workers`` and ``options.workers`` exceed 1 (a pool
            worker cannot fork a pool of its own) — before any chunk is
            generated.
    """
    factories = list(factories)
    check_unique_policy_names(factories)
    options = options or RunnerOptions()
    if gen_workers > 1 and (options.workers or 1) > 1:
        raise ValueError(
            f"gen_workers={gen_workers} with options.workers={options.workers}: "
            "each chunk is simulated in the pool worker that generates it, and "
            "a pool worker cannot fork a pool of its own; pass the process "
            "count as gen_workers alone"
        )

    def simulate_chunk(chunk: ChunkColumns) -> dict[str, AggregateResult]:
        store = InvocationStore.from_app_columns(
            chunk.app_functions,
            chunk.app_times,
            chunk.app_positions,
            duration_minutes=config.duration_minutes,
        )
        return WorkloadRunner(store, options).run_policies(factories)

    per_policy: dict[str, list[AggregateResult]] = {}
    apps_done = 0
    for chunk_results in iter_chunk_columns(
        config,
        chunk_apps=chunk_apps,
        workers=gen_workers,
        per_chunk=simulate_chunk,
    ):
        for name, block in chunk_results.items():
            per_policy.setdefault(name, []).append(block)
        # Every chunk but the last holds exactly chunk_apps applications.
        apps_done = min(apps_done + chunk_apps, config.num_apps)
        if progress is not None:
            progress(apps_done, config.num_apps)
    return {name: merge_results(name, blocks) for name, blocks in per_policy.items()}
