"""Fused generate→simulate pipeline: trace chunks flow straight into the engine.

The million-app path without the disk round-trip: chunks come off
:func:`repro.trace.stream.iter_chunk_columns` (optionally produced by
parallel generation workers), are materialized one at a time as small
:class:`~repro.trace.store.InvocationStore` blocks, and are simulated
immediately by the same engine routes a full-store run would use.  The
bounded producer/consumer window of the chunk iterator gives natural
backpressure — generation never runs ahead of simulation by more than a
few chunks, so peak memory is one window of chunks plus ``O(num_apps)``
result rows, regardless of invocation count.

Because every engine route simulates applications independently, the
concatenated per-chunk results equal a run over the full store: a bare
store weighs every application 1 MB in both paths, and per-app metrics
never look across application boundaries.  The equality is pinned per
route by ``tests/simulation/test_fused.py``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.simulation.metrics import AggregateResult, AppSimResult
from repro.simulation.runner import RunnerOptions, WorkloadRunner
from repro.trace.generator import GeneratorConfig
from repro.trace.store import InvocationStore
from repro.trace.stream import DEFAULT_CHUNK_APPS, iter_chunk_columns

__all__ = ["simulate_streamed"]


def simulate_streamed(
    config: GeneratorConfig,
    factories: Sequence,
    *,
    options: RunnerOptions | None = None,
    chunk_apps: int = DEFAULT_CHUNK_APPS,
    gen_workers: int = 1,
    max_pending_chunks: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> dict[str, AggregateResult]:
    """Generate a workload and simulate it in one streaming pass.

    Args:
        config: Generator parameters (``rng_scheme="v2"`` required for
            ``gen_workers > 1``).
        factories: Policy factories, as accepted by
            :meth:`~repro.simulation.runner.WorkloadRunner.run_policies`.
        options: Engine options applied to every chunk (either execution
            mode, any worker count).
        chunk_apps: Applications generated and simulated per chunk — the
            streaming memory high-water mark.
        gen_workers: Parallel generation worker processes.
        max_pending_chunks: Generation read-ahead window (backpressure
            bound); defaults to ``gen_workers + 2``.
        progress: Optional ``(apps_done, num_apps)`` callback per chunk.

    Returns:
        Results keyed by policy name, equal to running the same factories
        over the full on-disk store of the same config.
    """
    per_policy: dict[str, list[AppSimResult]] = {}
    apps_done = 0
    for chunk in iter_chunk_columns(
        config,
        chunk_apps=chunk_apps,
        workers=gen_workers,
        max_pending_chunks=max_pending_chunks,
    ):
        store = InvocationStore.from_app_columns(
            chunk.app_functions,
            chunk.app_times,
            chunk.app_positions,
            duration_minutes=config.duration_minutes,
        )
        runner = WorkloadRunner(store, options)
        for name, result in runner.run_policies(factories).items():
            per_policy.setdefault(name, []).extend(result.app_results)
        apps_done += chunk.num_apps
        if progress is not None:
            progress(apps_done, config.num_apps)
    return {
        name: AggregateResult(policy_name=name, app_results=tuple(rows))
        for name, rows in per_policy.items()
    }
