"""Columnar (CSR) invocation store: the workload's flat-array backbone.

The Azure Functions trace behind the paper has tens of thousands of
applications and hundreds of millions of invocations; per-function Python
dicts of timestamp arrays do not survive that scale.  This module stores
the *dynamic* half of a workload — every invocation timestamp — in a
handful of flat numpy arrays with CSR-style offsets, so that every
consumer (characterization, the simulation engines, the platform
replayer, the dataset writer) works on contiguous columns instead of
re-merging per-function dicts.

Columns and their Azure-dataset counterparts
--------------------------------------------

======================  =====================================================
Store field             AzurePublicDataset origin
======================  =====================================================
``times``               The per-minute invocation counts of
                        ``invocations_per_function_md.anon.d*.csv`` expanded
                        to one float64 timestamp (minutes from trace start)
                        per invocation.
``function_idx``        The row's ``HashFunction``, integer-coded in
                        population order (``function_ids[code]`` recovers
                        the hash).
``app_offsets``         Grouping by the row's ``HashApp``: invocations of
                        application ``i`` occupy the half-open slice
                        ``times[app_offsets[i]:app_offsets[i + 1]]``, sorted
                        ascending in time.
``function_offsets``    CSR offsets over ``function_ids`` into a lazily
                        built permutation that regroups the same
                        invocations by ``HashFunction`` (time-sorted within
                        each function).
``app_ids``             Distinct ``HashApp`` values, population order.
``function_ids``        Distinct ``HashFunction`` values, grouped by owning
                        application, population order.
``function_app_idx``    The ``HashApp`` (as an index into ``app_ids``) that
                        owns each function.
======================  =====================================================

Layout invariants:

* ``times`` is grouped by application (population order) and sorted
  ascending *within* each application block, which makes
  per-application access — the hot path of every simulation engine — a
  zero-copy slice with no merge or sort;
* ``function_idx`` is aligned element-for-element with ``times``;
* all timestamps are finite and inside ``[0, duration_minutes]``
  (non-finite values are rejected at construction: ``np.sort`` places
  NaN last, which would silently corrupt IAT statistics downstream);
* every exposed array is read-only (``writeable=False``); slice
  accessors hand out views, never fresh copies, so callers cannot
  corrupt the shared store.

Per-function access uses a lazily built stable permutation
(:attr:`~InvocationStore.function_offsets`); when a function's
invocations are already contiguous — always true for single-function
applications, 54% of the population in the paper — the accessor returns
a zero-copy view, otherwise a read-only gather.

The store round-trips through ``.npz`` files (:meth:`InvocationStore.save`
/ :meth:`InvocationStore.open`).  Because :func:`numpy.savez` stores
members uncompressed, :meth:`InvocationStore.open` can memory-map the
column arrays straight out of the archive (``mmap=True``), so an
Azure-scale trace opens in milliseconds without materializing anything
per function.
"""

from __future__ import annotations

import mmap as _mmap_module
import zipfile
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

__all__ = ["InvocationStore"]

#: Sequence of (app_id, per-app function ids) describing the population
#: layout a store is built against.
AppFunctions = Sequence[tuple[str, Sequence[str]]]

_SUB_MINUTE_PLACEMENTS = ("uniform", "start", "spread")

#: Fixed seed for ``from_minute_counts(placement="uniform")`` when no
#: generator is supplied: two expansions of the same count matrix must
#: produce the same store (an unseeded fallback here silently made runs
#: irreproducible).
_UNIFORM_PLACEMENT_SEED = 0x7FFF_C0DE

#: Members every complete ``.npz`` store archive must contain.
_STORE_MEMBERS = frozenset(
    {
        "times",
        "function_idx",
        "app_offsets",
        "function_app_idx",
        "app_ids",
        "function_ids",
        "duration_minutes",
    }
)


def _finite_or_raise(times: np.ndarray, context: str) -> None:
    """Reject NaN/inf timestamps with a clear error (see module docstring)."""
    if times.size and not np.isfinite(times).all():
        bad = int(np.count_nonzero(~np.isfinite(times)))
        raise ValueError(
            f"{context}: {bad} invocation timestamp(s) are NaN or infinite; "
            "timestamps must be finite minutes from the trace start"
        )


def _readonly(array: np.ndarray) -> np.ndarray:
    """A read-only zero-copy view of an array.

    A view keeps the caller's own array writable — flipping the flag on
    the original would make a caller-owned buffer mysteriously read-only.
    """
    view = array.view()
    view.flags.writeable = False
    return view


def _file_backed_base(array: np.ndarray) -> np.memmap | None:
    """The :class:`numpy.memmap` at the bottom of an array's base chain."""
    base: np.ndarray | None = array
    while base is not None:
        if isinstance(base, np.memmap):
            return base
        base = getattr(base, "base", None)
    return None


def normalize_app_block(
    times: np.ndarray, positions: np.ndarray, num_functions: int
) -> tuple[np.ndarray, np.ndarray]:
    """Normalize one application's generated column block.

    Shared by :meth:`InvocationStore.from_app_columns` and the incremental
    :class:`~repro.trace.store_writer.InvocationStoreWriter` so the
    streamed and one-shot build paths perform bit-identical operations:
    float64/int64 coercion, local-position range checks, and a stable
    per-block time sort only when the block is not already ascending.
    """
    times = np.asarray(times, dtype=np.float64).ravel()
    positions = np.asarray(positions, dtype=np.int64).ravel()
    if times.size != positions.size:
        raise ValueError("per-app times and function positions must be aligned")
    if not times.size:
        return times, positions
    if positions.min() < 0 or positions.max() >= num_functions:
        raise ValueError("function positions fall outside the application's functions")
    if times.size > 1 and np.any(np.diff(times) < 0):
        # Stable per-block time sort keeps equal timestamps in
        # generation order.
        order = np.argsort(times, kind="stable")
        times = times[order]
        positions = positions[order]
    return times, positions


class InvocationStore:
    """Flat sorted invocation columns with CSR app/function offsets.

    Args:
        times: float64 timestamps (minutes from trace start), grouped by
            application in population order and ascending within each
            application block.
        function_idx: Integer function codes aligned with ``times``.
        app_offsets: ``num_apps + 1`` CSR offsets into ``times``.
        app_ids: Application identifiers in population order.
        function_ids: Function identifiers grouped by owning application,
            population order.
        function_app_idx: Owning-application index of every function code.
        duration_minutes: Trace horizon; timestamps beyond it are rejected.
        validate: Verify every layout invariant (finite, in-horizon,
            per-app sorted, codes owned by the enclosing block's app).
            Skipped when reopening a trusted ``.npz`` cache.
    """

    __slots__ = (
        "times",
        "function_idx",
        "app_offsets",
        "app_ids",
        "function_ids",
        "function_app_idx",
        "duration_minutes",
        "source_path",
        "_app_index",
        "_function_index",
        "_function_perm",
        "_function_offsets",
    )

    def __init__(
        self,
        times: np.ndarray,
        function_idx: np.ndarray,
        app_offsets: np.ndarray,
        *,
        app_ids: Sequence[str],
        function_ids: Sequence[str],
        function_app_idx: np.ndarray,
        duration_minutes: float,
        validate: bool = True,
    ) -> None:
        if duration_minutes <= 0:
            raise ValueError("trace duration must be positive")
        self.times = _readonly(np.ascontiguousarray(times, dtype=np.float64))
        self.function_idx = _readonly(np.ascontiguousarray(function_idx, dtype=np.int64))
        self.app_offsets = _readonly(np.ascontiguousarray(app_offsets, dtype=np.int64))
        self.app_ids: tuple[str, ...] = tuple(str(a) for a in app_ids)
        self.function_ids: tuple[str, ...] = tuple(str(f) for f in function_ids)
        self.function_app_idx = _readonly(
            np.ascontiguousarray(function_app_idx, dtype=np.int64)
        )
        self.duration_minutes = float(duration_minutes)
        #: Path of the on-disk ``.npz`` archive backing this store, when
        #: known (set by :meth:`open` and :meth:`save`).  Parallel shards
        #: use it as a ``(path, app_range)`` descriptor: workers re-open
        #: the store memory-mapped (sharing the page cache) instead of
        #: inheriting or pickling resident columns.
        self.source_path: Path | None = None
        self._app_index = {app_id: i for i, app_id in enumerate(self.app_ids)}
        self._function_index = {fid: i for i, fid in enumerate(self.function_ids)}
        self._function_perm: np.ndarray | None = None
        self._function_offsets: np.ndarray | None = None
        if len(self._app_index) != len(self.app_ids):
            raise ValueError("duplicate application ids in store")
        if len(self._function_index) != len(self.function_ids):
            raise ValueError("duplicate function ids in store")
        if validate:
            self._validate()

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        times, function_idx, offsets = self.times, self.function_idx, self.app_offsets
        n = times.size
        if function_idx.size != n:
            raise ValueError("times and function_idx must be aligned")
        if offsets.size != len(self.app_ids) + 1:
            raise ValueError("app_offsets must have num_apps + 1 entries")
        if n and (offsets[0] != 0 or offsets[-1] != n or np.any(np.diff(offsets) < 0)):
            raise ValueError("app_offsets must be a monotone CSR over times")
        if not n and offsets.size and (offsets[0] != 0 or offsets[-1] != 0):
            raise ValueError("app_offsets must be a monotone CSR over times")
        if self.function_app_idx.size != len(self.function_ids):
            raise ValueError("function_app_idx must have one entry per function")
        if self.function_app_idx.size and (
            self.function_app_idx.min() < 0
            or self.function_app_idx.max() >= len(self.app_ids)
        ):
            raise ValueError("function_app_idx refers to unknown applications")
        if not n:
            return
        _finite_or_raise(times, "invocation store")
        if float(times.min()) < 0 or float(times.max()) > self.duration_minutes:
            raise ValueError(
                "invocation timestamps fall outside the trace horizon "
                f"[0, {self.duration_minutes}]"
            )
        if function_idx.min() < 0 or function_idx.max() >= len(self.function_ids):
            raise ValueError("function_idx refers to unknown functions")
        # Ascending within every app block: every adjacent gap must be
        # non-negative except across block boundaries.
        gaps = np.diff(times)
        interior = np.ones(n - 1, dtype=bool)
        boundaries = offsets[1:-1]
        boundaries = boundaries[(boundaries > 0) & (boundaries < n)]
        interior[boundaries - 1] = False
        if np.any(gaps[interior] < 0):
            raise ValueError("timestamps must be ascending within each application block")
        # Every invocation's function must belong to the enclosing app.
        app_of_invocation = np.repeat(
            np.arange(len(self.app_ids), dtype=np.int64), np.diff(offsets)
        )
        if not np.array_equal(self.function_app_idx[function_idx], app_of_invocation):
            raise ValueError(
                "function_idx assigns invocations to functions outside their "
                "application block"
            )

    # ------------------------------------------------------------------ #
    # Vectorized builders
    # ------------------------------------------------------------------ #
    @staticmethod
    def _population(app_functions: AppFunctions) -> tuple[list[str], list[str], np.ndarray]:
        app_ids: list[str] = []
        function_ids: list[str] = []
        owners: list[int] = []
        for app_index, (app_id, fids) in enumerate(app_functions):
            app_ids.append(app_id)
            for fid in fids:
                function_ids.append(fid)
                owners.append(app_index)
        return app_ids, function_ids, np.asarray(owners, dtype=np.int64)

    @classmethod
    def from_function_mapping(
        cls,
        app_functions: AppFunctions,
        invocations: Mapping[str, np.ndarray],
        duration_minutes: float,
    ) -> "InvocationStore":
        """Build a store from per-function timestamp arrays.

        The historical :class:`~repro.trace.schema.Workload` input format:
        a mapping from function id to an (unsorted) timestamp array.
        Functions absent from the mapping have no invocations; mapping
        keys outside the population are rejected.
        """
        app_ids, function_ids, function_app_idx = cls._population(app_functions)
        known = set(function_ids)
        for fid in invocations:
            if fid not in known:
                raise ValueError(f"invocations refer to unknown function {fid}")
        empty = np.empty(0, dtype=np.float64)
        pieces: list[np.ndarray] = []
        codes: list[np.ndarray] = []
        app_counts = np.zeros(len(app_ids), dtype=np.int64)
        code = 0
        for app_index, (_, fids) in enumerate(app_functions):
            app_pieces: list[np.ndarray] = []
            app_codes: list[np.ndarray] = []
            for fid in fids:
                piece = np.asarray(invocations.get(fid, empty), dtype=np.float64).ravel()
                if piece.size:
                    app_pieces.append(piece)
                    app_codes.append(np.full(piece.size, code, dtype=np.int64))
                code += 1
            if not app_pieces:
                continue
            # Per-block stable sort: timsort exploits the (usually sorted)
            # per-function runs, so a block of k pre-sorted functions
            # merges in near-linear time — far cheaper than one global
            # lexsort over the whole trace.
            if len(app_pieces) == 1:
                block, block_codes = app_pieces[0], app_codes[0]
                if block.size > 1 and np.any(np.diff(block) < 0):
                    order = np.argsort(block, kind="stable")
                    block, block_codes = block[order], block_codes[order]
            else:
                block = np.concatenate(app_pieces)
                block_codes = np.concatenate(app_codes)
                order = np.argsort(block, kind="stable")
                block, block_codes = block[order], block_codes[order]
            app_counts[app_index] = block.size
            pieces.append(block)
            codes.append(block_codes)
        if pieces:
            times = np.concatenate(pieces)
            function_idx = np.concatenate(codes)
        else:
            times = empty
            function_idx = np.empty(0, dtype=np.int64)
        _finite_or_raise(times, "invocation store")
        if times.size and (float(times.min()) < 0 or float(times.max()) > duration_minutes):
            raise ValueError(
                f"invocation timestamps fall outside the trace horizon "
                f"[0, {duration_minutes}]"
            )
        app_offsets = np.zeros(len(app_ids) + 1, dtype=np.int64)
        np.cumsum(app_counts, out=app_offsets[1:])
        # The blocks are sorted and code-aligned by construction; skip the
        # full layout re-validation.
        return cls(
            times,
            function_idx,
            app_offsets,
            app_ids=app_ids,
            function_ids=function_ids,
            function_app_idx=function_app_idx,
            duration_minutes=duration_minutes,
            validate=False,
        )

    @classmethod
    def from_app_columns(
        cls,
        app_functions: AppFunctions,
        app_times: Sequence[np.ndarray],
        app_function_positions: Sequence[np.ndarray],
        duration_minutes: float,
    ) -> "InvocationStore":
        """Build a store from per-application generator output.

        Args:
            app_functions: Population layout.
            app_times: One timestamp array per application (any order).
            app_function_positions: Per application, the *local* function
                position (0-based within the app) of every timestamp,
                aligned with ``app_times``.
            duration_minutes: Trace horizon.
        """
        app_ids, function_ids, function_app_idx = cls._population(app_functions)
        if len(app_times) != len(app_ids) or len(app_function_positions) != len(app_ids):
            raise ValueError("one times/positions array is required per application")
        function_base = np.zeros(len(app_ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(function_app_idx, minlength=len(app_ids)), out=function_base[1:])
        functions_per_app = np.diff(function_base)
        pieces: list[np.ndarray] = []
        codes: list[np.ndarray] = []
        counts = np.zeros(len(app_ids), dtype=np.int64)
        for app_index, (times, positions) in enumerate(zip(app_times, app_function_positions)):
            # Arrival processes emit sorted timestamps, so the common case
            # inside normalize_app_block is a single cheap monotonicity
            # check and no sort at all.
            times, positions = normalize_app_block(
                times, positions, int(functions_per_app[app_index])
            )
            counts[app_index] = times.size
            if not times.size:
                continue
            pieces.append(times)
            codes.append(function_base[app_index] + positions)
        times = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.float64)
        function_idx = np.concatenate(codes) if codes else np.empty(0, dtype=np.int64)
        _finite_or_raise(times, "invocation store")
        if times.size and (float(times.min()) < 0 or float(times.max()) > duration_minutes):
            raise ValueError(
                f"invocation timestamps fall outside the trace horizon "
                f"[0, {duration_minutes}]"
            )
        app_offsets = np.zeros(len(app_ids) + 1, dtype=np.int64)
        np.cumsum(counts, out=app_offsets[1:])
        return cls(
            times,
            function_idx,
            app_offsets,
            app_ids=app_ids,
            function_ids=function_ids,
            function_app_idx=function_app_idx,
            duration_minutes=duration_minutes,
            validate=False,
        )

    @classmethod
    def from_minute_counts(
        cls,
        app_functions: AppFunctions,
        counts: np.ndarray,
        duration_minutes: float,
        *,
        placement: str = "uniform",
        rng: np.random.Generator | int | None = None,
    ) -> "InvocationStore":
        """Expand a per-function per-minute count matrix into a store.

        The AzurePublicDataset representation: ``counts[k, m]`` is the
        number of invocations of function ``k`` during trace minute ``m``.
        Expansion is fully vectorized (no per-function Python loop):
        minute indices come from one :func:`numpy.repeat` over the
        flattened matrix, and sub-minute offsets are batched per
        placement mode.

        Args:
            app_functions: Population layout; flattened function order
                must match the rows of ``counts``.
            counts: Integer matrix of shape ``(num_functions, num_minutes)``.
            duration_minutes: Trace horizon (≥ ``num_minutes``).
            placement: ``"start"`` places invocations at the start of
                their minute, ``"uniform"`` at seeded uniform offsets,
                ``"spread"`` evenly spaced within the minute.
            rng: Generator or seed for ``"uniform"`` placement.  When
                omitted, offsets come from a fixed internal seed so two
                expansions of the same counts are identical — every path
                through this loader is deterministic by default.
        """
        if placement not in _SUB_MINUTE_PLACEMENTS:
            raise ValueError(f"unknown sub-minute placement {placement!r}")
        app_ids, function_ids, function_app_idx = cls._population(app_functions)
        counts = np.asarray(counts)
        if counts.ndim != 2 or counts.shape[0] != len(function_ids):
            raise ValueError("counts must be a (num_functions, num_minutes) matrix")
        if counts.size and counts.min() < 0:
            raise ValueError("per-minute counts must be non-negative")
        num_functions, num_minutes = counts.shape
        if num_minutes > duration_minutes:
            raise ValueError("count matrix extends beyond the trace horizon")
        flat = counts.ravel().astype(np.int64, copy=False)
        total = int(flat.sum())
        # Sparse function-major expansion over the occupied (function,
        # minute) cells only: one repeat produces every timestamp's
        # minute, and because functions are grouped by application the
        # result is already grouped into app blocks.
        occupied = np.flatnonzero(flat)
        cell_counts = flat[occupied]
        times = np.repeat((occupied % num_minutes).astype(np.float64), cell_counts)
        if placement == "uniform":
            if rng is None:
                rng = _UNIFORM_PLACEMENT_SEED
            if not isinstance(rng, np.random.Generator):
                rng = np.random.default_rng(rng)
            times += rng.random(total)
        elif placement == "spread":
            cell_starts = np.zeros(occupied.size, dtype=np.int64)
            np.cumsum(cell_counts[:-1], out=cell_starts[1:])
            cell_of_invocation = np.repeat(np.arange(occupied.size), cell_counts)
            rank_in_cell = np.arange(total) - cell_starts[cell_of_invocation]
            times += (rank_in_cell + 0.5) / cell_counts[cell_of_invocation]
        function_totals = counts.sum(axis=1).astype(np.int64)
        function_idx = np.repeat(np.arange(num_functions, dtype=np.int64), function_totals)
        app_counts = np.zeros(len(app_ids), dtype=np.int64)
        np.add.at(app_counts, function_app_idx, function_totals)
        app_offsets = np.zeros(len(app_ids) + 1, dtype=np.int64)
        np.cumsum(app_counts, out=app_offsets[1:])
        # Sort each app block in place (stable, so equal timestamps stay in
        # function-major order); the per-function minute runs make this
        # near-linear for deterministic placements.
        for app_index in range(len(app_ids)):
            start, stop = int(app_offsets[app_index]), int(app_offsets[app_index + 1])
            if stop - start > 1:
                block = times[start:stop]
                order = np.argsort(block, kind="stable")
                times[start:stop] = block[order]
                function_idx[start:stop] = function_idx[start:stop][order]
        return cls(
            times,
            function_idx,
            app_offsets,
            app_ids=app_ids,
            function_ids=function_ids,
            function_app_idx=function_app_idx,
            duration_minutes=duration_minutes,
            validate=False,
        )

    # ------------------------------------------------------------------ #
    # Shape
    # ------------------------------------------------------------------ #
    @property
    def num_apps(self) -> int:
        return len(self.app_ids)

    @property
    def num_functions(self) -> int:
        return len(self.function_ids)

    @property
    def num_invocations(self) -> int:
        return int(self.times.size)

    @property
    def is_memory_mapped(self) -> bool:
        """Whether the timestamp column is backed by a file mapping."""
        return _file_backed_base(self.times) is not None

    @property
    def nbytes(self) -> int:
        """Memory footprint of the column arrays (ids excluded)."""
        total = (
            self.times.nbytes
            + self.function_idx.nbytes
            + self.app_offsets.nbytes
            + self.function_app_idx.nbytes
        )
        if self._function_perm is not None:
            total += self._function_perm.nbytes
        if self._function_offsets is not None:
            total += self._function_offsets.nbytes
        return int(total)

    def memory_profile(self) -> dict[str, int]:
        """Split the column footprint into file-mapped and heap bytes.

        ``mapped_bytes`` live in the page cache and are reclaimable by the
        OS (and shareable across processes mapping the same archive);
        ``heap_bytes`` are private resident allocations.  ``repro trace
        info`` reports the delta so out-of-core stores can show a
        near-zero resident footprint next to a multi-GB archive.
        """
        mapped = 0
        heap = 0
        columns = [self.times, self.function_idx, self.app_offsets, self.function_app_idx]
        if self._function_perm is not None:
            columns.append(self._function_perm)
        if self._function_offsets is not None:
            columns.append(self._function_offsets)
        for column in columns:
            if _file_backed_base(column) is not None:
                mapped += column.nbytes
            else:
                heap += column.nbytes
        return {"mapped_bytes": int(mapped), "heap_bytes": int(heap)}

    def release_mapped_pages(self) -> bool:
        """Advise the OS to drop this store's resident mapped pages.

        The memory-bounded engine passes call this between app chunks so
        the resident set stays proportional to one chunk instead of
        accumulating every touched page of a huge archive.  A no-op (and
        ``False``) for heap-backed stores and on platforms without
        ``madvise``; dropped pages fault back in from the page cache or
        the file on the next access, so this is always safe.
        """
        released = False
        advised: set[int] = set()
        for column in (self.times, self.function_idx):
            base = _file_backed_base(column)
            if base is None or id(base) in advised:
                continue
            advised.add(id(base))
            raw = getattr(base, "_mmap", None)
            if raw is None or not hasattr(raw, "madvise"):
                continue
            try:
                raw.madvise(_mmap_module.MADV_DONTNEED)
            except (AttributeError, ValueError, OSError):  # pragma: no cover
                continue
            released = True
        return released

    def app_index(self, app_id: str) -> int:
        return self._app_index[app_id]

    def function_index(self, function_id: str) -> int:
        return self._function_index[function_id]

    # ------------------------------------------------------------------ #
    # Per-app / per-function slice accessors (read-only, zero-copy views)
    # ------------------------------------------------------------------ #
    def app_slice(self, app_index: int) -> np.ndarray:
        """Zero-copy read-only view of one application's sorted timestamps."""
        start, stop = self.app_offsets[app_index], self.app_offsets[app_index + 1]
        return self.times[start:stop]

    def app_invocations(self, app_id: str) -> np.ndarray:
        return self.app_slice(self._app_index[app_id])

    def app_function_codes(self, app_index: int) -> np.ndarray:
        """Read-only view of the function code of each of an app's invocations."""
        start, stop = self.app_offsets[app_index], self.app_offsets[app_index + 1]
        return self.function_idx[start:stop]

    def iter_app_slices(self) -> Iterator[tuple[str, np.ndarray]]:
        """Yield ``(app_id, sorted timestamp view)`` in population order."""
        for app_index, app_id in enumerate(self.app_ids):
            yield app_id, self.app_slice(app_index)

    def _ensure_function_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Lazily build the by-function permutation and its CSR offsets.

        A stable argsort of the function codes: because each function
        belongs to exactly one application and application blocks are
        time-sorted, the permutation lists each function's invocations in
        ascending time.
        """
        if self._function_perm is None or self._function_offsets is None:
            perm = np.argsort(self.function_idx, kind="stable")
            offsets = np.zeros(self.num_functions + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(self.function_idx, minlength=self.num_functions),
                out=offsets[1:],
            )
            self._function_perm = _readonly(perm.astype(np.int64, copy=False))
            self._function_offsets = _readonly(offsets)
        return self._function_perm, self._function_offsets

    @property
    def function_offsets(self) -> np.ndarray:
        """CSR offsets over functions into the by-function permutation."""
        return self._ensure_function_csr()[1]

    def function_slice(self, function_index: int) -> np.ndarray:
        """One function's sorted timestamps (read-only).

        Zero-copy when the function's invocations are contiguous in the
        app block (always true for single-function applications);
        otherwise a read-only gather.
        """
        perm, offsets = self._ensure_function_csr()
        rows = perm[offsets[function_index] : offsets[function_index + 1]]
        if rows.size == 0:
            return _readonly(np.empty(0, dtype=np.float64))
        start = int(rows[0])
        stop = start + rows.size
        # rows comes from a stable argsort, so it is strictly increasing:
        # first and last landing exactly `size` apart means contiguity.
        if rows.size == 1 or int(rows[-1]) == stop - 1:
            return self.times[start:stop]
        return _readonly(self.times[rows])

    def function_slice_until(
        self, function_index: int, horizon_minutes: float
    ) -> np.ndarray:
        """One function's sorted timestamps strictly before a horizon.

        Because per-function slices are time-sorted, the horizon cut is a
        ``searchsorted`` prefix — no boolean mask is materialized.  This
        is the platform replay feed's accessor.
        """
        times = self.function_slice(function_index)
        if times.size == 0 or times[-1] < horizon_minutes:
            return times
        cut = int(np.searchsorted(times, horizon_minutes, side="left"))
        return times[:cut]

    def function_invocations(self, function_id: str) -> np.ndarray:
        return self.function_slice(self._function_index[function_id])

    # ------------------------------------------------------------------ #
    # Segment reductions (per-app / per-function statistics)
    # ------------------------------------------------------------------ #
    def app_counts(self) -> np.ndarray:
        """Invocation count per application (population order)."""
        return np.diff(self.app_offsets)

    def function_counts(self) -> np.ndarray:
        """Invocation count per function (population order)."""
        return np.bincount(self.function_idx, minlength=self.num_functions)

    def app_of_invocation(self) -> np.ndarray:
        """Owning application index of every invocation."""
        return np.repeat(np.arange(self.num_apps, dtype=np.int64), self.app_counts())

    def iat_cv_per_app(self) -> np.ndarray:
        """Coefficient of variation of inter-arrival times, per application.

        One segment reduction over the flat columns instead of a per-app
        Python loop: matches
        :func:`repro.trace.arrival.iat_coefficient_of_variation`
        (population std over mean; ``nan`` below 2 IATs, 0 for zero-mean)
        to float64 round-off.
        """
        counts = self.app_counts()
        gap_counts = np.maximum(counts - 1, 0)
        cvs = np.full(self.num_apps, np.nan, dtype=np.float64)
        if not self.times.size:
            return cvs
        gaps = np.diff(self.times)
        interior = np.ones(gaps.size, dtype=bool)
        boundaries = self.app_offsets[1:-1]
        boundaries = boundaries[(boundaries > 0) & (boundaries < self.times.size)]
        if gaps.size:
            interior[boundaries - 1] = False
        within = gaps[interior]
        # Segment starts of each app's gap run inside ``within``; empty
        # segments are excluded (np.add.reduceat cannot express them).
        starts = np.zeros(self.num_apps, dtype=np.int64)
        np.cumsum(gap_counts[:-1], out=starts[1:])
        has_gaps = gap_counts > 0
        sums = np.zeros(self.num_apps)
        if within.size:
            sums[has_gaps] = np.add.reduceat(within, starts[has_gaps])
        means = np.divide(
            sums, gap_counts, out=np.zeros(self.num_apps), where=has_gaps
        )
        # Two-pass variance (numpy's np.std algorithm) keeps the segment
        # reduction within round-off of the per-app scalar computation.
        deviations = within - np.repeat(means, gap_counts)
        sq = np.zeros(self.num_apps)
        if within.size:
            sq[has_gaps] = np.add.reduceat(deviations * deviations, starts[has_gaps])
        measurable = gap_counts >= 2
        variance = np.divide(
            sq, gap_counts, out=np.zeros(self.num_apps), where=measurable
        )
        std = np.sqrt(variance)
        nonzero_mean = measurable & (means != 0.0)
        cvs[nonzero_mean] = std[nonzero_mean] / means[nonzero_mean]
        cvs[measurable & (means == 0.0)] = 0.0
        return cvs

    def per_minute_counts(self, function_id: str, num_minutes: int) -> np.ndarray:
        """Per-minute invocation counts of one function (Azure representation)."""
        times = self.function_invocations(function_id)
        counts = np.zeros(num_minutes, dtype=np.int64)
        if times.size:
            bins = np.clip(times.astype(np.int64), 0, num_minutes - 1)
            counts += np.bincount(bins, minlength=num_minutes)
        return counts

    def minute_count_matrix(
        self, start_minute: float, num_minutes: int
    ) -> np.ndarray:
        """Per-function per-minute counts over one window (e.g. a trace day).

        Returns a ``(num_functions, num_minutes)`` int64 matrix computed
        with a single flattened bincount: the writer's inner loop for a
        whole day collapses into one reduction over the columns.
        """
        mask = (self.times >= start_minute) & (self.times < start_minute + num_minutes)
        minutes = (self.times[mask] - start_minute).astype(np.int64)
        np.clip(minutes, 0, num_minutes - 1, out=minutes)
        keys = self.function_idx[mask] * num_minutes + minutes
        flat = np.bincount(keys, minlength=self.num_functions * num_minutes)
        return flat.reshape(self.num_functions, num_minutes).astype(np.int64, copy=False)

    def hourly_totals(self) -> np.ndarray:
        """Platform-wide invocations per hour (Figure 4)."""
        num_hours = int(np.ceil(self.duration_minutes / 60.0))
        totals = np.zeros(num_hours, dtype=np.int64)
        if self.times.size:
            bins = np.clip((self.times / 60.0).astype(np.int64), 0, num_hours - 1)
            totals += np.bincount(bins, minlength=num_hours)
        return totals

    # ------------------------------------------------------------------ #
    # Derived stores
    # ------------------------------------------------------------------ #
    def subset(self, app_indices: Sequence[int]) -> "InvocationStore":
        """A new store restricted to the given applications (given order).

        Copies are minimal: only the selected application blocks are
        gathered (allocation proportional to the subset, never to the
        parent), and a *contiguous* ascending index range keeps the
        timestamp column as a zero-copy view of the parent — on a
        memory-mapped store an app-range slice therefore materializes
        nothing beyond the remapped function codes.
        """
        app_indices = np.asarray(app_indices, dtype=np.int64)
        if app_indices.size and (
            app_indices.min() < 0 or app_indices.max() >= self.num_apps
        ):
            raise IndexError("application index out of range")
        if app_indices.size and (
            app_indices.size == 1 or np.all(np.diff(app_indices) == 1)
        ):
            return self._subset_contiguous(
                int(app_indices[0]), int(app_indices[-1]) + 1
            )
        old_counts = self.app_counts()
        pieces = [self.app_slice(int(i)) for i in app_indices]
        code_pieces = [self.app_function_codes(int(i)) for i in app_indices]
        times = (
            np.concatenate(pieces) if pieces else np.empty(0, dtype=np.float64)
        )
        old_codes = (
            np.concatenate(code_pieces) if code_pieces else np.empty(0, dtype=np.int64)
        )
        app_offsets = np.zeros(app_indices.size + 1, dtype=np.int64)
        np.cumsum(old_counts[app_indices], out=app_offsets[1:])
        # Remap function codes onto the surviving population.
        keep_function = np.isin(self.function_app_idx, app_indices)
        # Order functions by their app's position in app_indices so the
        # new population stays grouped by application.
        app_rank = np.full(self.num_apps, -1, dtype=np.int64)
        app_rank[app_indices] = np.arange(app_indices.size)
        old_function_codes = np.arange(self.num_functions, dtype=np.int64)[keep_function]
        order = np.argsort(app_rank[self.function_app_idx[old_function_codes]], kind="stable")
        old_function_codes = old_function_codes[order]
        code_map = np.full(self.num_functions, -1, dtype=np.int64)
        code_map[old_function_codes] = np.arange(old_function_codes.size)
        return InvocationStore(
            times,
            code_map[old_codes] if old_codes.size else old_codes,
            app_offsets,
            app_ids=[self.app_ids[int(i)] for i in app_indices],
            function_ids=[self.function_ids[int(c)] for c in old_function_codes],
            function_app_idx=app_rank[self.function_app_idx[old_function_codes]],
            duration_minutes=self.duration_minutes,
            validate=False,
        )

    def _subset_contiguous(self, start_app: int, stop_app: int) -> "InvocationStore":
        """Zero-copy app-range slice: the backbone of chunked engine passes.

        ``times`` stays a view of the parent column (mapped or heap);
        only the function codes are rewritten (a subtraction over the
        slice, output-sized) because the surviving functions are
        renumbered from zero.
        """
        lo = int(self.app_offsets[start_app])
        hi = int(self.app_offsets[stop_app])
        # Functions are grouped by owning app, so the surviving codes are
        # one contiguous run found by bisecting the sorted owner column.
        fn_lo = int(np.searchsorted(self.function_app_idx, start_app, side="left"))
        fn_hi = int(np.searchsorted(self.function_app_idx, stop_app, side="left"))
        return InvocationStore(
            self.times[lo:hi],
            self.function_idx[lo:hi] - fn_lo,
            self.app_offsets[start_app : stop_app + 1] - lo,
            app_ids=self.app_ids[start_app:stop_app],
            function_ids=self.function_ids[fn_lo:fn_hi],
            function_app_idx=self.function_app_idx[fn_lo:fn_hi] - start_app,
            duration_minutes=self.duration_minutes,
            validate=False,
        )

    def truncated(self, duration_minutes: float) -> "InvocationStore":
        """A new store cut to the first ``duration_minutes`` minutes.

        Per-app blocks are time-sorted, so the cut is a ``searchsorted``
        prefix per block: peak allocation is the surviving prefix data
        plus ``O(num_apps)`` bookkeeping — no full-column boolean mask and
        no invocation-length owner array, so truncating a memory-mapped
        store only ever touches the pages holding block boundaries and
        surviving data.
        """
        if duration_minutes <= 0 or duration_minutes > self.duration_minutes:
            raise ValueError("truncated duration must be within (0, duration]")
        offsets = self.app_offsets
        counts = np.zeros(self.num_apps, dtype=np.int64)
        pieces: list[np.ndarray] = []
        code_pieces: list[np.ndarray] = []
        for app_index in range(self.num_apps):
            lo, hi = int(offsets[app_index]), int(offsets[app_index + 1])
            if hi == lo:
                continue
            block = self.times[lo:hi]
            keep = int(np.searchsorted(block, duration_minutes, side="left"))
            counts[app_index] = keep
            if keep:
                pieces.append(block[:keep])
                code_pieces.append(self.function_idx[lo : lo + keep])
        app_offsets = np.zeros(self.num_apps + 1, dtype=np.int64)
        np.cumsum(counts, out=app_offsets[1:])
        return InvocationStore(
            np.concatenate(pieces) if pieces else np.empty(0, dtype=np.float64),
            np.concatenate(code_pieces) if code_pieces else np.empty(0, dtype=np.int64),
            app_offsets,
            app_ids=self.app_ids,
            function_ids=self.function_ids,
            function_app_idx=self.function_app_idx,
            duration_minutes=duration_minutes,
            validate=False,
        )

    # ------------------------------------------------------------------ #
    # Persistence (.npz cache with memory-mapped open)
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> Path:
        """Write the store to an uncompressed ``.npz`` cache file.

        Uncompressed members are what makes :meth:`open` able to
        memory-map the columns straight out of the archive.
        """
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_name(path.name + ".npz")
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            times=self.times,
            function_idx=self.function_idx,
            app_offsets=self.app_offsets,
            function_app_idx=self.function_app_idx,
            app_ids=np.asarray(self.app_ids),
            function_ids=np.asarray(self.function_ids),
            duration_minutes=np.asarray([self.duration_minutes]),
        )
        # The store now has an on-disk twin: parallel shards can re-open
        # it memory-mapped from the path instead of inheriting columns.
        self.source_path = path
        return path

    @classmethod
    def open(cls, path: str | Path, *, mmap: bool = True) -> "InvocationStore":
        """Reopen a saved store, memory-mapping the columns when possible.

        With ``mmap=True`` the large column arrays are :class:`numpy.memmap`
        views into the (uncompressed) ``.npz`` members — nothing is read
        eagerly beyond the id arrays, so Azure-scale caches open in
        milliseconds.  Falls back to a regular load for compressed
        archives.
        """
        path = Path(path)
        arrays: dict[str, np.ndarray] = {}
        if mmap:
            mapped = _mmap_npz_members(
                path, ("times", "function_idx", "app_offsets", "function_app_idx")
            )
            if mapped is not None:
                arrays.update(mapped)
        try:
            # np.load leaves a file it opened itself unclosed when the zip
            # directory is unreadable; an owned handle is always closed.
            with open(path, "rb") as handle, np.load(handle) as archive:
                members = set(archive.files)
                missing = _STORE_MEMBERS - members
                if missing:
                    raise ValueError(
                        f"{path} is not a complete invocation store: missing "
                        f"member(s) {sorted(missing)} — the file may be a "
                        "partially written archive (a crashed "
                        "InvocationStoreWriter leaves only a .partial file, "
                        "never a truncated store)"
                    )
                for name in (
                    "times",
                    "function_idx",
                    "app_offsets",
                    "function_app_idx",
                ):
                    if name not in arrays:
                        arrays[name] = archive[name]
                app_ids = [str(a) for a in archive["app_ids"]]
                function_ids = [str(f) for f in archive["function_ids"]]
                duration = float(archive["duration_minutes"][0])
        except (zipfile.BadZipFile, EOFError) as error:
            raise ValueError(
                f"{path} is not a readable invocation store archive: {error} "
                "(the file appears truncated or corrupt)"
            ) from error
        store = cls(
            arrays["times"],
            arrays["function_idx"],
            arrays["app_offsets"],
            app_ids=app_ids,
            function_ids=function_ids,
            function_app_idx=arrays["function_app_idx"],
            duration_minutes=duration,
            validate=False,
        )
        store.source_path = path
        return store

    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, float]:
        """Shape and footprint description used by ``repro trace info``."""
        return {
            "num_apps": float(self.num_apps),
            "num_functions": float(self.num_functions),
            "num_invocations": float(self.num_invocations),
            "duration_minutes": self.duration_minutes,
            "column_bytes": float(self.nbytes),
        }


def _mmap_npz_members(
    path: Path, names: Sequence[str]
) -> dict[str, np.ndarray] | None:
    """Memory-map uncompressed ``.npy`` members inside a ``.npz`` archive.

    :func:`numpy.load` ignores ``mmap_mode`` for zip archives, but
    :func:`numpy.savez` stores members uncompressed (``ZIP_STORED``), so
    each member is a plain ``.npy`` byte range inside the file: locate it
    through the member's local header and hand the range to
    :class:`numpy.memmap`.  Returns ``None`` when any member is
    compressed or malformed (callers fall back to a regular load).
    """
    wanted = {f"{name}.npy": name for name in names}
    mapped: dict[str, np.ndarray] = {}
    try:
        with zipfile.ZipFile(path) as archive:
            infos = {info.filename: info for info in archive.infolist()}
            for member_name, name in wanted.items():
                info = infos.get(member_name)
                if info is None or info.compress_type != zipfile.ZIP_STORED:
                    return None
                with archive.open(info) as member:
                    version = np.lib.format.read_magic(member)
                    if version == (1, 0):
                        shape, fortran, dtype = np.lib.format.read_array_header_1_0(member)
                    elif version == (2, 0):
                        shape, fortran, dtype = np.lib.format.read_array_header_2_0(member)
                    else:
                        return None
                    header_size = member.tell()
                if dtype.hasobject:
                    return None
                if int(np.prod(shape)) == 0:
                    # np.memmap rejects zero-length maps; the regular load
                    # path fills these in.
                    continue
                data_offset = _zip_member_data_offset(path, info)
                mapped[name] = np.memmap(
                    path,
                    dtype=dtype,
                    mode="r",
                    offset=data_offset + header_size,
                    shape=shape,
                    order="F" if fortran else "C",
                )
    except (OSError, ValueError, zipfile.BadZipFile):
        return None
    return mapped


def _zip_member_data_offset(path: Path, info: zipfile.ZipInfo) -> int:
    """Absolute file offset of a stored zip member's data bytes.

    The local file header's name/extra lengths can differ from the
    central directory's, so the 30-byte local header is read and parsed
    directly.
    """
    import struct

    with open(path, "rb") as handle:
        handle.seek(info.header_offset)
        local_header = handle.read(30)
    if len(local_header) != 30 or local_header[:4] != b"PK\x03\x04":
        raise ValueError("malformed zip local header")
    name_len, extra_len = struct.unpack("<HH", local_header[26:30])
    return info.header_offset + 30 + name_len + extra_len
