"""Incremental, out-of-core writer for ``.npz`` invocation stores.

:meth:`InvocationStore.save <repro.trace.store.InvocationStore.save>` needs
every column resident before it can write the archive, which caps trace
size at available RAM.  :class:`InvocationStoreWriter` removes that cap:
application column blocks are appended as they are generated, the big
columns (``times``, ``function_idx``) stream through temporary raw files,
and the final uncompressed ``.npz`` — byte-identical columns to the
one-shot ``save()`` path — is assembled member-by-member at :meth:`close`
without ever materializing a column in memory.  Peak memory is one
appended chunk plus ``O(num_apps)`` bookkeeping (per-app counts and the
function-owner column), never ``O(num_invocations)``.

Crash safety: all intermediate state lives in a ``<name>.npz.partial``
working directory and the archive is assembled to a temporary file that
is atomically renamed onto the final path.  A crashed writer therefore
never leaves a truncated store behind — the final path either holds a
complete archive or does not exist — and
:meth:`InvocationStore.open <repro.trace.store.InvocationStore.open>`
rejects hand-truncated archives with a clear error rather than silently
loading a shorter trace.
"""

from __future__ import annotations

import os
import shutil
import zipfile
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from repro.trace.store import AppFunctions, _finite_or_raise, normalize_app_block

__all__ = ["InvocationStoreWriter"]

#: Bytes copied per read when streaming a raw column file into the archive.
_COPY_CHUNK_BYTES = 8 * 1024 * 1024

#: Id lines converted to fixed-width unicode per batch while streaming the
#: id members (bounds peak memory during close()).
_ID_BATCH = 65536


class InvocationStoreWriter:
    """Append-only builder of an on-disk columnar invocation store.

    Args:
        path: Output archive path (``.npz`` appended when missing, like
            ``InvocationStore.save``).
        duration_minutes: Trace horizon; appended timestamps outside
            ``[0, duration_minutes]`` are rejected per chunk.

    Use as a context manager: the archive is assembled on clean exit and
    the partial state is discarded if the body raises::

        with InvocationStoreWriter(out, duration_minutes=1440) as writer:
            for start in range(0, num_apps, 4096):
                chunk = generator.generate_app_range(start, min(start + 4096, num_apps))
                writer.append_apps(
                    chunk.app_functions(), chunk.app_times, chunk.app_positions
                )
        store = InvocationStore.open(writer.path, mmap=True)
    """

    def __init__(self, path: str | Path, *, duration_minutes: float) -> None:
        if duration_minutes <= 0:
            raise ValueError("trace duration must be positive")
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_name(path.name + ".npz")
        path.parent.mkdir(parents=True, exist_ok=True)
        self.path = path
        self.duration_minutes = float(duration_minutes)
        self._workdir = path.with_name(path.name + f".partial-{os.getpid()}")
        self._workdir.mkdir(parents=True, exist_ok=True)
        self._times_file: IO[bytes] | None = open(self._workdir / "times.bin", "wb")
        self._codes_file: IO[bytes] = open(self._workdir / "codes.bin", "wb")
        self._app_ids_file: IO[bytes] = open(self._workdir / "app_ids.txt", "wb")
        self._function_ids_file: IO[bytes] = open(
            self._workdir / "function_ids.txt", "wb"
        )
        self._app_count_blocks: list[np.ndarray] = []
        self._owner_blocks: list[np.ndarray] = []
        self.num_apps = 0
        self.num_functions = 0
        self.num_invocations = 0
        self._app_id_width = 0
        self._function_id_width = 0

    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._times_file is None

    def append_apps(
        self,
        app_functions: AppFunctions,
        app_times: Sequence[np.ndarray],
        app_function_positions: Sequence[np.ndarray],
    ) -> None:
        """Append one chunk of applications (the generator's chunk format).

        Accepts exactly the per-app column triples
        :meth:`InvocationStore.from_app_columns` takes, and performs the
        same normalization (via the shared
        :func:`~repro.trace.store.normalize_app_block`), so a store built
        from streamed chunks is bit-identical to one built in one shot
        from the concatenated inputs.
        """
        if self.closed:
            raise ValueError("writer is closed")
        if len(app_times) != len(app_functions) or len(app_function_positions) != len(
            app_functions
        ):
            raise ValueError("one times/positions array is required per application")
        counts = np.zeros(len(app_functions), dtype=np.int64)
        owners: list[int] = []
        for position, ((app_id, function_ids), times, positions) in enumerate(
            zip(app_functions, app_times, app_function_positions)
        ):
            times, positions = normalize_app_block(times, positions, len(function_ids))
            _finite_or_raise(times, "invocation store")
            if times.size and (
                float(times.min()) < 0 or float(times.max()) > self.duration_minutes
            ):
                raise ValueError(
                    f"invocation timestamps fall outside the trace horizon "
                    f"[0, {self.duration_minutes}]"
                )
            codes = self.num_functions + positions
            self._times_file.write(memoryview(np.ascontiguousarray(times)))
            self._codes_file.write(memoryview(np.ascontiguousarray(codes)))
            counts[position] = times.size
            self._write_id(self._app_ids_file, app_id)
            self._app_id_width = max(self._app_id_width, len(str(app_id)))
            for function_id in function_ids:
                self._write_id(self._function_ids_file, function_id)
                self._function_id_width = max(
                    self._function_id_width, len(str(function_id))
                )
            owners.append(len(function_ids))
            self.num_functions += len(function_ids)
            self.num_invocations += int(times.size)
        self._app_count_blocks.append(counts)
        self._owner_blocks.append(
            np.repeat(
                np.arange(self.num_apps, self.num_apps + len(app_functions), dtype=np.int64),
                owners,
            )
        )
        self.num_apps += len(app_functions)

    @staticmethod
    def _write_id(handle: IO[bytes], identifier: str) -> None:
        text = str(identifier)
        if "\n" in text:
            raise ValueError(f"identifier {text!r} must not contain newlines")
        handle.write(text.encode("utf-8") + b"\n")

    # ------------------------------------------------------------------ #
    def close(self) -> Path:
        """Assemble the final archive and atomically publish it.

        Returns the archive path.  The member order and per-member bytes
        match ``InvocationStore.save`` exactly.
        """
        if self.closed:
            raise ValueError("writer is already closed")
        for handle in (
            self._times_file,
            self._codes_file,
            self._app_ids_file,
            self._function_ids_file,
        ):
            assert handle is not None
            handle.flush()
            handle.close()
        self._times_file = None

        app_offsets = np.zeros(self.num_apps + 1, dtype=np.int64)
        if self._app_count_blocks:
            np.cumsum(np.concatenate(self._app_count_blocks), out=app_offsets[1:])
        function_app_idx = (
            np.concatenate(self._owner_blocks)
            if self._owner_blocks
            else np.empty(0, dtype=np.int64)
        )

        tmp_archive = self._workdir / "store.npz.tmp"
        try:
            with zipfile.ZipFile(
                tmp_archive, mode="w", compression=zipfile.ZIP_STORED, allowZip64=True
            ) as archive:
                self._stream_member(
                    archive,
                    "times",
                    self._workdir / "times.bin",
                    np.dtype(np.float64),
                    self.num_invocations,
                )
                self._stream_member(
                    archive,
                    "function_idx",
                    self._workdir / "codes.bin",
                    np.dtype(np.int64),
                    self.num_invocations,
                )
                self._write_member(archive, "app_offsets", app_offsets)
                self._write_member(archive, "function_app_idx", function_app_idx)
                self._stream_id_member(
                    archive,
                    "app_ids",
                    self._workdir / "app_ids.txt",
                    self.num_apps,
                    self._app_id_width,
                )
                self._stream_id_member(
                    archive,
                    "function_ids",
                    self._workdir / "function_ids.txt",
                    self.num_functions,
                    self._function_id_width,
                )
                self._write_member(
                    archive,
                    "duration_minutes",
                    np.asarray([self.duration_minutes]),
                )
            os.replace(tmp_archive, self.path)
        finally:
            if tmp_archive.exists():  # pragma: no cover - error cleanup
                tmp_archive.unlink()
        shutil.rmtree(self._workdir, ignore_errors=True)
        return self.path

    def abort(self) -> None:
        """Discard all partial state without publishing anything."""
        if not self.closed:
            for handle in (
                self._times_file,
                self._codes_file,
                self._app_ids_file,
                self._function_ids_file,
            ):
                if handle is not None:
                    handle.close()
            self._times_file = None
        shutil.rmtree(self._workdir, ignore_errors=True)

    def __enter__(self) -> "InvocationStoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        elif not self.closed:
            self.close()

    # ------------------------------------------------------------------ #
    @staticmethod
    def _open_member(archive: zipfile.ZipFile, name: str) -> IO[bytes]:
        # Fixed timestamp keeps archives deterministic for equal inputs
        # (np.savez stamps wall-clock time; only member *data* equality is
        # contracted, and the loaders ignore timestamps entirely).
        info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
        info.compress_type = zipfile.ZIP_STORED
        return archive.open(info, mode="w", force_zip64=True)

    @classmethod
    def _write_member(
        cls, archive: zipfile.ZipFile, name: str, array: np.ndarray
    ) -> None:
        with cls._open_member(archive, name) as member:
            np.lib.format.write_array(member, array, allow_pickle=False)

    @classmethod
    def _write_header(
        cls, member: IO[bytes], dtype: np.dtype, length: int
    ) -> None:
        np.lib.format.write_array_header_1_0(
            member,
            {
                "descr": np.lib.format.dtype_to_descr(dtype),
                "fortran_order": False,
                "shape": (length,),
            },
        )

    @classmethod
    def _stream_member(
        cls,
        archive: zipfile.ZipFile,
        name: str,
        raw_path: Path,
        dtype: np.dtype,
        length: int,
    ) -> None:
        """Copy a raw little-endian column file into an ``.npy`` member."""
        expected = length * dtype.itemsize
        actual = raw_path.stat().st_size
        if actual != expected:  # pragma: no cover - internal invariant
            raise ValueError(
                f"column file {raw_path} holds {actual} bytes, expected {expected}"
            )
        with cls._open_member(archive, name) as member:
            cls._write_header(member, dtype, length)
            with open(raw_path, "rb") as raw:
                while True:
                    block = raw.read(_COPY_CHUNK_BYTES)
                    if not block:
                        break
                    member.write(block)

    @classmethod
    def _stream_id_member(
        cls,
        archive: zipfile.ZipFile,
        name: str,
        ids_path: Path,
        count: int,
        width: int,
    ) -> None:
        """Convert newline-delimited ids to a fixed-width unicode member.

        The dtype (``<U{width}``) matches what ``np.asarray`` infers for
        the full id tuple, so the member bytes equal the ``save()`` path;
        conversion happens in bounded batches so a million-app id column
        never exists as one Python list.
        """
        dtype = np.dtype(f"<U{max(width, 1)}")
        with cls._open_member(archive, name) as member:
            cls._write_header(member, dtype, count)
            written = 0
            with open(ids_path, "rb") as raw:
                batch: list[str] = []
                for line in raw:
                    batch.append(line[:-1].decode("utf-8"))
                    if len(batch) >= _ID_BATCH:
                        member.write(memoryview(np.asarray(batch, dtype=dtype)))
                        written += len(batch)
                        batch = []
                if batch:
                    member.write(memoryview(np.asarray(batch, dtype=dtype)))
                    written += len(batch)
            if written != count:  # pragma: no cover - internal invariant
                raise ValueError(
                    f"id file {ids_path} holds {written} ids, expected {count}"
                )
