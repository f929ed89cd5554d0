"""Out-of-core trace generation: chunked generator → on-disk store.

The one-call driver behind ``repro trace gen``: it threads chunks of
:meth:`WorkloadGenerator.generate_app_range
<repro.trace.generator.WorkloadGenerator.generate_app_range>` straight
into an :class:`~repro.trace.store_writer.InvocationStoreWriter`, so a
100k-to-million-app workload lands on disk with only one chunk of
invocation columns (plus ``O(num_apps)`` bookkeeping) ever resident.  The
resulting archive is bit-identical to ``generate().store.save(...)`` for
the same :class:`~repro.trace.generator.GeneratorConfig` and re-opens
memory-mapped (:meth:`InvocationStore.open
<repro.trace.store.InvocationStore.open>`), ready for the memory-bounded
engine passes and shared-memory parallel shards.

Each chunk is a pure function of ``(seed, app range)``, so
:func:`iter_chunk_columns` dispatches chunk ranges to a forked pool and
reassembles results **in chunk order** through the bounded
:func:`~repro.core.pool.fork_pool_imap` window (a lazy in-process loop
for one worker) — the archive bytes are identical for any worker count
and chunk size.  The same iterator drives the fused generate→simulate
pipeline (:func:`repro.simulation.fused.simulate_streamed`), which skips
the disk round-trip entirely: it hands the iterator a per-chunk function
that runs where the chunk is made (the worker that generated it), so a
fused chunk never leaves its worker, only the function's results travel
back to the parent, and the in-flight window holds those results rather
than chunk columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.core.pool import fork_pool_imap
from repro.trace.generator import GeneratorConfig, WorkloadGenerator
from repro.trace.store_writer import InvocationStoreWriter

__all__ = [
    "ChunkColumns",
    "StreamStats",
    "iter_chunk_columns",
    "stream_workload_to_store",
]

#: Default applications per streamed chunk: large enough that numpy batch
#: work dominates the per-chunk overhead, small enough that one chunk of
#: columns stays a rounding error next to the archive.
DEFAULT_CHUNK_APPS = 4096


@dataclass(frozen=True)
class ChunkColumns:
    """One generated chunk, reduced to the columns consumers need.

    The slim cross-process unit of parallel generation: worker processes
    return these instead of full :class:`~repro.trace.generator.WorkloadChunk`
    records, so only ``(app_id, function_ids)`` pairs and numpy arrays are
    pickled back — never :class:`~repro.trace.schema.AppSpec` trees.  Both
    sinks accept exactly this triple: the incremental store writer
    (:meth:`~repro.trace.store_writer.InvocationStoreWriter.append_apps`)
    and the per-chunk store builder
    (:meth:`~repro.trace.store.InvocationStore.from_app_columns`).
    """

    start_index: int
    app_functions: list
    app_times: Sequence[np.ndarray]
    app_positions: Sequence[np.ndarray]

    @property
    def num_apps(self) -> int:
        return len(self.app_functions)


@dataclass(frozen=True)
class StreamStats:
    """What a completed streaming generation produced."""

    path: Path
    num_apps: int
    num_functions: int
    num_invocations: int
    duration_minutes: float
    on_disk_bytes: int
    rng_scheme: str
    workers: int = 1

    def summary(self) -> dict[str, float]:
        return {
            "num_apps": float(self.num_apps),
            "num_functions": float(self.num_functions),
            "num_invocations": float(self.num_invocations),
            "duration_minutes": self.duration_minutes,
            "on_disk_mb": self.on_disk_bytes / 1e6,
        }


def _validate_stream_arguments(chunk_apps: int, workers: int) -> None:
    if chunk_apps < 1:
        raise ValueError("chunk_apps must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")


def iter_chunk_columns(
    config: GeneratorConfig,
    *,
    chunk_apps: int = DEFAULT_CHUNK_APPS,
    workers: int = 1,
    per_chunk: Callable[[ChunkColumns], object] | None = None,
) -> Iterator:
    """Generate the workload as an in-order stream of column chunks.

    The shared producer behind both sinks — the on-disk writer
    (:func:`stream_workload_to_store`) and the fused simulation pass
    (:func:`repro.simulation.fused.simulate_streamed`).  Each chunk is
    one :meth:`~repro.trace.generator.WorkloadGenerator.generate_app_range`
    call.  With ``workers > 1`` chunk ranges are dispatched to a forked
    pool and reassembled in chunk order with at most ``workers + 2`` in
    flight (:func:`~repro.core.pool.fork_pool_imap`), so a slow consumer
    throttles the workers and peak memory stays one window of results;
    with one worker the chunks are made lazily in this process.  Output
    is byte-for-byte independent of ``workers``.

    Args:
        config: Generator parameters.
        chunk_apps: Applications per chunk (parallel task granularity).
        workers: Generation processes (``1`` = in-process, lazy).
        per_chunk: Optional function applied to each chunk where the
            chunk is made: in the forked worker that generated it, or in
            this process for one worker.  The iterator then yields its
            results instead of the chunks, still in chunk order; with
            ``workers > 1`` they must pickle, and the window holds
            results rather than chunk columns.
    """
    _validate_stream_arguments(chunk_apps, workers)
    generator = WorkloadGenerator(config)
    num_chunks = (config.num_apps + chunk_apps - 1) // chunk_apps
    # Sample the O(num_apps) population arrays before forking so every
    # worker shares them copy-on-write instead of re-sampling.
    generator.ensure_population()

    def task(chunk_id: int) -> object:
        start = chunk_id * chunk_apps
        chunk = generator.generate_app_range(
            start, min(start + chunk_apps, config.num_apps)
        )
        columns = ChunkColumns(
            chunk.start_index, chunk.app_functions(), chunk.app_times, chunk.app_positions
        )
        return columns if per_chunk is None else per_chunk(columns)

    yield from fork_pool_imap(task, num_chunks, workers)


def stream_workload_to_store(
    config: GeneratorConfig,
    path: str | Path,
    *,
    chunk_apps: int = DEFAULT_CHUNK_APPS,
    workers: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> StreamStats:
    """Generate a workload straight into an on-disk columnar store.

    Args:
        config: Generator parameters (``target_rps`` scales aggregate load
            independently of ``num_apps``).
        path: Output ``.npz`` archive path.
        chunk_apps: Applications generated and appended per chunk — the
            memory high-water mark of the column data.
        workers: Generation worker processes; the archive is
            byte-identical for every worker count.
        progress: Optional ``(apps_done, num_apps)`` callback per chunk.

    Returns:
        A :class:`StreamStats` describing the published archive.
    """
    _validate_stream_arguments(chunk_apps, workers)
    chunks = iter_chunk_columns(config, chunk_apps=chunk_apps, workers=workers)
    apps_done = 0
    with InvocationStoreWriter(path, duration_minutes=config.duration_minutes) as writer:
        for chunk in chunks:
            writer.append_apps(chunk.app_functions, chunk.app_times, chunk.app_positions)
            apps_done += chunk.num_apps
            if progress is not None:
                progress(apps_done, config.num_apps)
    return StreamStats(
        path=writer.path,
        num_apps=writer.num_apps,
        num_functions=writer.num_functions,
        num_invocations=writer.num_invocations,
        duration_minutes=config.duration_minutes,
        on_disk_bytes=writer.path.stat().st_size,
        rng_scheme=config.rng_scheme,
        workers=workers,
    )
