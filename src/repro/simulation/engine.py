"""Workload plumbing and the single-policy entry point of the simulator.

The per-application simulations behind Figures 14–18 are embarrassingly
parallel: policies are per-application and the simulator models no
cross-application contention.  :class:`SimulationEngine` owns the
geometry that exploits this — application ranges resolved from a
workload or a bare (typically memory-mapped)
:class:`~repro.trace.store.InvocationStore` into :class:`CsrSlice`
inputs (the store's flat timestamp column plus per-application
offsets), contiguous application chunks that fit
``max_resident_bytes``, and invocation-balanced shards
for a ``fork`` worker pool — and runs one policy over the workload as a
**family of one**: :meth:`SimulationEngine.run_policy` hands the factory
to the sweep engine's driver (:mod:`repro.simulation.sweep_engine`) as a
one-member group, so a single-policy run and a policy sweep share one
chunk/shard loop and one set of evaluators.

Two execution modes select the evaluator (:data:`EXECUTION_MODES`):

* ``auto`` — the fast evaluator of the factory's policy family: a
  closed-form pass for constant keep-alive policies (the fixed grid and
  the no-unloading bound), one recording pass plus decision masks for
  the hybrid histogram policy, and the scalar loop for factories that
  declare no family.
* ``serial`` — the reference scalar loop for every factory: one
  :meth:`~repro.simulation.coldstart.ColdStartSimulator.simulate_app`
  call per application, one ``policy.on_invocation`` call per invocation.

``workers`` above 1 shards applications across a ``fork`` pool in either
mode; shards are reassembled in workload order, so the merged
:class:`~repro.simulation.metrics.AggregateResult` is byte-identical no
matter how many workers ran or in which order shards completed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.policies.registry import PolicyFactory
from repro.simulation.coldstart import ColdStartSimulator
from repro.simulation.metrics import AggregateResult, merge_results
from repro.trace.store import InvocationStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from repro.trace.schema import Workload

#: Recognized values of :attr:`RunnerOptions.execution`.
EXECUTION_MODES: tuple[str, ...] = ("auto", "serial")

#: Accepted spellings of :data:`EXECUTION_MODES` members: ``banked`` named
#: the hybrid policy's fast route before every fast route became a family
#: pass, and callers that still pass it get ``auto``.
_EXECUTION_ALIASES = {"banked": "auto"}

#: Recognized values of :attr:`RunnerOptions.sweep` (multi-policy runs):
#: ``auto`` evaluates each policy family in one shared-state pass,
#: ``per-policy`` evaluates every configuration as a family of one.
SWEEP_MODES: tuple[str, ...] = ("auto", "per-policy")

#: Shards per worker: small enough to keep per-shard overhead negligible,
#: large enough that uneven per-app costs still balance across the pool.
_SHARDS_PER_WORKER = 4

#: Estimated resident bytes of per-application engine state in one chunk:
#: the hybrid pass's histogram bins (240 × int64 at the default config)
#: plus its Welford state, counters and result columns (~75 bytes per
#: hybrid policy, ~50 per constant one).  Used by the
#: ``max_resident_bytes`` chunk geometry so many-small-app workloads are
#: bounded by app count too, not only by invocation bytes.
_PER_APP_RESIDENT_BYTES = 4096

#: Peak bytes a simulation pass holds per invocation of its chunk, charged
#: by the ``max_resident_bytes`` chunk geometry.  The hybrid family pass
#: (:mod:`repro.simulation.sweep_engine`) holds the most; for one
#: configuration, per invocation:
PASS_BYTES_PER_INVOCATION = (
    8  # the chunk's timestamps, concatenated longest application first
    + 8  # the bin-count CV at each decision (float64, one histogram range)
    + 2 * 2  # the head and tail percentile bins (int16 at 240 bins)
    + 2 * 4  # the observation and out-of-bounds counters (at most int32)
    + 3 * 8  # three float64 scratch rows: pre-warm, keep-alive, load start
    + 8  # boolean decision masks, cold flags and their temporaries
)


@dataclass(frozen=True)
class RunnerOptions:
    """Options shared by all policy runs over a workload.

    Attributes:
        use_memory_weights: Weight each application's wasted memory time by
            its average allocated memory.  The paper's simulator assumes
            equal footprints (False), because memory data is not available
            for every application; enabling this gives MB-weighted waste.
        min_invocations: Applications with fewer invocations than this are
            skipped entirely (0 keeps every application, including those
            never invoked, which simply produce empty results).
        execution: ``"auto"`` (each policy family's fast evaluator) or
            ``"serial"`` (the reference scalar loop for every policy);
            ``"banked"`` is accepted as a spelling of ``"auto"``.
        workers: Worker processes.  Above 1, applications are sharded
            across a ``fork`` pool; ``None`` or 1 runs in process.
        sweep: Multi-policy routing (``repro.simulation.sweep_engine``):
            ``"auto"`` evaluates each policy family in one shared-state
            pass, ``"per-policy"`` evaluates every configuration as a
            family of one.  Only affects multi-policy runs
            (``run_policies`` and the ``sweep_*`` functions).
        max_resident_bytes: Memory budget for one engine pass.  ``None``
            (the default) evaluates the whole workload at once; a budget
            makes the pass — and each parallel shard — walk the store in
            contiguous application chunks whose pass state
            (:data:`PASS_BYTES_PER_INVOCATION` per invocation plus
            per-application state) fits the budget, releasing
            memory-mapped pages between chunks
            (:meth:`~repro.trace.store.InvocationStore.release_mapped_pages`),
            so peak memory stays near the budget instead of the trace size.
            Results are unaffected: chunked passes are exactly the
            unchunked passes evaluated range by range.
    """

    use_memory_weights: bool = False
    min_invocations: int = 1
    execution: str = "auto"
    workers: int | None = None
    sweep: str = "auto"
    max_resident_bytes: int | None = None

    def __post_init__(self) -> None:
        execution = _EXECUTION_ALIASES.get(self.execution, self.execution)
        if execution not in EXECUTION_MODES:
            raise ValueError(
                f"unknown execution mode {self.execution!r}; "
                f"expected one of {EXECUTION_MODES}"
            )
        object.__setattr__(self, "execution", execution)
        if self.workers is not None and self.workers < 1:
            raise ValueError("worker count must be at least 1")
        if self.sweep not in SWEEP_MODES:
            raise ValueError(
                f"unknown sweep mode {self.sweep!r}; expected one of {SWEEP_MODES}"
            )
        if self.max_resident_bytes is not None and self.max_resident_bytes < 1:
            raise ValueError("max_resident_bytes must be positive")


@dataclass(frozen=True)
class CsrSlice:
    """A contiguous application range's simulation inputs, in CSR layout.

    Application ``i`` of the slice is ``app_ids[i]``, weighs
    ``memory_mb[i]`` and has the timestamps
    ``times[offsets[i]:offsets[i + 1]]`` (``offsets[0]`` is 0).
    """

    app_ids: tuple[str, ...]
    times: np.ndarray
    offsets: np.ndarray
    memory_mb: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        """Invocations per application."""
        return np.diff(self.offsets)

    def app_times(self) -> list[np.ndarray]:
        """Each application's timestamps, as views of ``times``."""
        bounds = self.offsets.tolist()
        return [self.times[start:stop] for start, stop in zip(bounds, bounds[1:])]


class SimulationEngine:
    """Resolves a workload into CSR slices and runs one policy over it.

    The engine owns the geometry every simulation pass walks: the
    per-range :class:`CsrSlice` inputs, memory-bounded chunks and
    parallel shard ranges.  :meth:`run_policy` evaluates one factory as a
    family of one through the sweep engine's driver
    (:meth:`~repro.simulation.sweep_engine.SweepEngine.run_group`), the
    same loop that evaluates whole policy families.

    Accepts either a full :class:`~repro.trace.schema.Workload` or a bare
    :class:`~repro.trace.store.InvocationStore` (e.g. one streamed to disk
    by ``repro trace gen`` and re-opened memory-mapped).  Store-only mode
    has no per-application metadata, so ``use_memory_weights`` weighs
    every application at 1 MB.
    """

    def __init__(
        self,
        workload: "Workload | InvocationStore",
        options: RunnerOptions | None = None,
    ) -> None:
        if isinstance(workload, InvocationStore):
            self.workload: "Workload | None" = None
            self._store = workload
            self._apps = None
        else:
            self.workload = workload
            self._store = workload.store
            self._apps = workload.apps
        self.options = options or RunnerOptions()
        self._simulator = ColdStartSimulator(
            horizon_minutes=self._store.duration_minutes
        )
        # Descriptor plumbing for sharded runs: forked workers detect that
        # they are not this pid and re-open the store from its path.
        self._parent_pid = os.getpid()
        self._worker_store: tuple[int, InvocationStore] | None = None

    @property
    def simulator(self) -> ColdStartSimulator:
        """The simulator carrying the horizon and cold-start conventions."""
        return self._simulator

    @property
    def store(self) -> InvocationStore:
        """The columnar invocation store the engine iterates over."""
        return self._store

    def csr_slice(
        self,
        start_app: int = 0,
        stop_app: int | None = None,
        *,
        store: InvocationStore | None = None,
    ) -> CsrSlice:
        """The inputs of the applications in ``[start_app, stop_app)``.

        Applications below ``min_invocations`` are left out.  ``times``
        is a read-only, zero-copy slice of the store's flat sorted column
        unless a left-out application has invocations — for a
        memory-mapped store the bytes are only paged in when a simulation
        touches them, which is what makes the ``max_resident_bytes``
        chunked passes stream instead of loading the trace.  ``store``
        substitutes a re-opened handle of the same archive (parallel
        shard workers); application indices and ids are identical by
        construction.
        """
        store = self._store if store is None else store
        stop_app = store.num_apps if stop_app is None else stop_app
        offsets = np.asarray(store.app_offsets[start_app : stop_app + 1], dtype=np.int64)
        times = store.times[offsets[0] : offsets[-1]]
        counts = np.diff(offsets)
        keep = counts >= self.options.min_invocations
        indices = np.flatnonzero(keep) + start_app
        if keep.all():
            app_ids = store.app_ids[start_app:stop_app]
        else:
            app_ids = tuple(store.app_ids[index] for index in indices.tolist())
            if counts[~keep].any():
                times = times[np.repeat(keep, counts)]
            counts = counts[keep]
        csr_offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=csr_offsets[1:])
        if self._apps is not None and self.options.use_memory_weights:
            memory_mb = np.array(
                [self._apps[index].memory.average_mb for index in indices.tolist()],
                dtype=np.float64,
            )
        else:
            memory_mb = np.ones(counts.size, dtype=np.float64)
        return CsrSlice(app_ids, times, csr_offsets, memory_mb)

    def eligible_app_count(self) -> int:
        """How many applications pass the ``min_invocations`` filter."""
        if self.options.min_invocations <= 0:
            return self._store.num_apps
        counts = self._store.app_counts()
        return int(np.count_nonzero(counts >= self.options.min_invocations))

    # ------------------------------------------------------------------ #
    # Memory-bounded chunking and parallel shard geometry
    # ------------------------------------------------------------------ #
    def app_chunk_bounds(
        self, start_app: int = 0, stop_app: int | None = None
    ) -> list[tuple[int, int]]:
        """Contiguous app ranges honouring ``options.max_resident_bytes``.

        Splits ``[start_app, stop_app)`` greedily so each range's cost
        fits the budget, where cost charges
        :data:`PASS_BYTES_PER_INVOCATION` per invocation (the state a
        simulation pass holds for it) plus ``_PER_APP_RESIDENT_BYTES`` per
        application for per-row state (histogram bins, Welford state,
        counters).  Charging apps as well as invocations keeps peak memory
        flat in app count, not just in trace length.  A single application
        larger than the budget gets its own range rather than failing.
        With no budget the whole range comes back as one chunk.
        """
        stop_app = self._store.num_apps if stop_app is None else stop_app
        if stop_app <= start_app:
            return []
        limit = self.options.max_resident_bytes
        if limit is None:
            return [(start_app, stop_app)]
        offsets = np.asarray(self._store.app_offsets, dtype=np.int64)
        # Strictly increasing cumulative cost; searchsorted finds the
        # farthest stop whose chunk stays within budget.
        cost = offsets * PASS_BYTES_PER_INVOCATION + np.arange(
            offsets.size, dtype=np.int64
        ) * (_PER_APP_RESIDENT_BYTES)
        bounds: list[tuple[int, int]] = []
        cursor = start_app
        while cursor < stop_app:
            target = int(cost[cursor]) + max(int(limit), 1)
            stop = int(np.searchsorted(cost, target, side="right")) - 1
            stop = min(max(stop, cursor + 1), stop_app)
            bounds.append((cursor, stop))
            cursor = stop
        return bounds

    def shard_ranges(self, workers: int) -> list[tuple[int, int]]:
        """Contiguous app ranges for a sharded run's pool tasks.

        Shards are balanced by invocation count (not application count, so
        skewed workloads still spread evenly), oversharded by
        ``_SHARDS_PER_WORKER``, and — under a ``max_resident_bytes``
        budget — further split so no single shard task exceeds the budget.
        Concatenating per-range results in range order reproduces the
        in-process application order for any worker count.
        """
        store = self._store
        num_apps = store.num_apps
        if num_apps == 0:
            return []
        num_shards = min(num_apps, max(1, int(workers)) * _SHARDS_PER_WORKER)
        offsets = np.asarray(store.app_offsets)
        targets = np.linspace(0, int(offsets[-1]), num_shards + 1)
        bounds = np.searchsorted(offsets, targets, side="left").astype(int)
        bounds = np.minimum(bounds, num_apps)
        bounds[0] = 0
        bounds[-1] = num_apps
        bounds = np.maximum.accumulate(bounds)
        ranges: list[tuple[int, int]] = []
        for index in range(num_shards):
            start, stop = int(bounds[index]), int(bounds[index + 1])
            if stop <= start:
                continue
            if self.options.max_resident_bytes is not None:
                ranges.extend(self.app_chunk_bounds(start, stop))
            else:
                ranges.append((start, stop))
        return ranges

    def release_mapped_pages(self) -> bool:
        """Drop this process's resident pages of the mapped columns."""
        return self._store.release_mapped_pages()

    def worker_store(self) -> InvocationStore:
        """The store handle the calling process should read columns from.

        In the engine's own process this is simply the engine's store.  A
        forked shard worker whose store came from disk re-opens the
        archive memory-mapped instead: only the ``(path, app range)``
        descriptor travels through fork, the pages come from the shared
        OS page cache, and the worker never touches the parent's columns.
        Stores without a backing file (built in memory, or subsets) fall
        back to the fork-inherited arrays, which preserves results.
        """
        pid = os.getpid()
        if pid == self._parent_pid:
            return self._store
        cached = self._worker_store
        if cached is not None and cached[0] == pid:
            return cached[1]
        path = self._store.source_path
        if path is None:
            store = self._store
        else:
            store = InvocationStore.open(path, mmap=True)
        self._worker_store = (pid, store)
        return store

    # ------------------------------------------------------------------ #
    def run_policy(
        self,
        factory: PolicyFactory,
        *,
        progress: Callable[[int, int], None] | None = None,
    ) -> AggregateResult:
        """Simulate one policy (fresh instance per application) over the workload.

        The factory runs as a one-member group through the sweep engine's
        chunk/shard driver, so it takes the evaluator its policy family
        would take inside a sweep (the scalar loop under
        ``execution="serial"``).  ``progress`` receives ``(apps done,
        apps total)`` as chunks or shards complete.
        """
        # Imported here: the sweep engine builds on this module.
        from repro.simulation.sweep_engine import FactoryGroup, SweepEngine

        group = FactoryGroup(factory.sweep_key, (factory,))
        blocks = SweepEngine(self).run_group(group, progress)[factory.name]
        return merge_results(factory.name, blocks)
