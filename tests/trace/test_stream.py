"""Tests for the out-of-core trace pipeline: chunked generation and the
incremental store writer.

The contract under test is bit-identity: a store streamed chunk-by-chunk
through :class:`InvocationStoreWriter` must be member-for-member
byte-identical to the archive ``generate().store.save()`` writes for the
same :class:`GeneratorConfig`, for any chunk size — chunk boundaries must
never touch the RNG stream or the column layout.  Plus the crash-safety
contract: a crashed or aborted writer never publishes anything, and
truncated archives are rejected with a clear error instead of silently
loading a shorter trace.
"""

from __future__ import annotations

import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.trace.generator import GeneratorConfig, WorkloadGenerator
from repro.trace.store import InvocationStore
from repro.trace.store_writer import InvocationStoreWriter
from repro.trace.stream import iter_chunk_columns, stream_workload_to_store

SMALL = dict(num_apps=30, duration_minutes=1440.0, seed=9, max_daily_rate=400.0)


def archive_members(path) -> dict[str, bytes]:
    with zipfile.ZipFile(path) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


class TestWriterRoundTrip:
    def test_streamed_archive_bit_identical_to_save(self, tmp_path):
        config = GeneratorConfig(**SMALL)
        workload = WorkloadGenerator(config).generate()
        saved = workload.store.save(tmp_path / "saved.npz")

        stats = stream_workload_to_store(
            config, tmp_path / "streamed.npz", chunk_apps=7
        )
        assert stats.num_apps == workload.num_apps
        assert stats.num_invocations == workload.total_invocations

        saved_members = archive_members(saved)
        streamed_members = archive_members(stats.path)
        assert sorted(saved_members) == sorted(streamed_members)
        for name in saved_members:
            assert saved_members[name] == streamed_members[name], name

    def test_streamed_store_round_trips_through_open(self, tmp_path):
        config = GeneratorConfig(**SMALL)
        stats = stream_workload_to_store(config, tmp_path / "t.npz", chunk_apps=11)
        store = InvocationStore.open(stats.path)
        assert store.is_memory_mapped
        assert store.source_path == stats.path
        reference = WorkloadGenerator(config).generate().store
        np.testing.assert_array_equal(store.times, reference.times)
        np.testing.assert_array_equal(store.function_idx, reference.function_idx)
        np.testing.assert_array_equal(store.app_offsets, reference.app_offsets)
        assert store.app_ids == reference.app_ids
        assert store.function_ids == reference.function_ids

    def test_writer_appends_npz_suffix_and_empty_store(self, tmp_path):
        with InvocationStoreWriter(tmp_path / "bare", duration_minutes=60.0) as writer:
            pass
        assert writer.path == tmp_path / "bare.npz"
        store = InvocationStore.open(writer.path)
        assert store.num_apps == 0
        assert store.num_invocations == 0

    def test_progress_callback_reports_every_chunk(self, tmp_path):
        config = GeneratorConfig(**SMALL)
        seen: list[tuple[int, int]] = []
        stream_workload_to_store(
            config,
            tmp_path / "t.npz",
            chunk_apps=8,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen[-1] == (config.num_apps, config.num_apps)
        assert [done for done, _ in seen] == sorted({done for done, _ in seen})


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    num_apps=st.integers(min_value=1, max_value=40),
    chunk_apps=st.integers(min_value=1, max_value=50),
)
def test_chunked_generation_matches_monolithic(tmp_path, seed, num_apps, chunk_apps):
    """Property: chunk size never changes the published archive bytes."""
    config = GeneratorConfig(
        num_apps=num_apps, duration_minutes=720.0, seed=seed, max_daily_rate=200.0
    )
    mono = tmp_path / f"mono-{seed}-{num_apps}.npz"
    WorkloadGenerator(config).generate().store.save(mono)
    streamed = stream_workload_to_store(
        config, tmp_path / f"chunk-{seed}-{num_apps}-{chunk_apps}.npz",
        chunk_apps=chunk_apps,
    )
    assert archive_members(mono) == archive_members(streamed.path)


class TestCrashSafety:
    def test_exception_in_body_publishes_nothing(self, tmp_path):
        out = tmp_path / "crash.npz"
        with pytest.raises(RuntimeError):
            with InvocationStoreWriter(out, duration_minutes=60.0) as writer:
                writer.append_apps(
                    [("a0", ("a0-f0",))],
                    [np.array([1.0, 2.0])],
                    [np.array([0, 0])],
                )
                raise RuntimeError("generator died")
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []  # no .partial litter either

    def test_abort_discards_partial_state(self, tmp_path):
        out = tmp_path / "aborted.npz"
        writer = InvocationStoreWriter(out, duration_minutes=60.0)
        writer.append_apps(
            [("a0", ("a0-f0",))], [np.array([1.0])], [np.array([0])]
        )
        writer.abort()
        assert not out.exists()
        assert writer.closed
        assert list(tmp_path.iterdir()) == []

    def test_append_after_close_rejected(self, tmp_path):
        writer = InvocationStoreWriter(tmp_path / "t.npz", duration_minutes=60.0)
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.append_apps([], [], [])
        with pytest.raises(ValueError, match="closed"):
            writer.close()

    def test_truncated_archive_rejected_with_clear_error(self, tmp_path):
        config = GeneratorConfig(**SMALL)
        stats = stream_workload_to_store(config, tmp_path / "t.npz", chunk_apps=10)
        data = stats.path.read_bytes()
        truncated = tmp_path / "truncated.npz"
        truncated.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated or corrupt"):
            InvocationStore.open(truncated)

    def test_archive_missing_members_rejected(self, tmp_path):
        partial = tmp_path / "partial.npz"
        np.savez(partial, times=np.zeros(3), duration_minutes=np.asarray([60.0]))
        with pytest.raises(ValueError, match="missing member"):
            InvocationStore.open(partial)

    def test_writer_validates_inputs(self, tmp_path):
        with pytest.raises(ValueError, match="duration must be positive"):
            InvocationStoreWriter(tmp_path / "t.npz", duration_minutes=0.0)
        writer = InvocationStoreWriter(tmp_path / "t.npz", duration_minutes=60.0)
        with pytest.raises(ValueError, match="horizon"):
            writer.append_apps(
                [("a0", ("a0-f0",))], [np.array([61.0])], [np.array([0])]
            )
        with pytest.raises(ValueError, match="newlines"):
            writer.append_apps(
                [("a\n0", ("a0-f0",))], [np.array([1.0])], [np.array([0])]
            )
        with pytest.raises(ValueError, match="per application"):
            writer.append_apps([("a0", ("a0-f0",))], [], [])
        writer.abort()


class TestParallelGeneration:
    """Worker count must be invisible in the published archive bytes."""

    def test_parallel_archive_byte_identical_to_serial(self, tmp_path):
        config = GeneratorConfig(**SMALL)
        serial = stream_workload_to_store(
            config, tmp_path / "serial.npz", chunk_apps=7, workers=1
        )
        parallel = stream_workload_to_store(
            config, tmp_path / "parallel.npz", chunk_apps=7, workers=3
        )
        assert archive_members(serial.path) == archive_members(parallel.path)
        assert parallel.workers == 3
        assert parallel.rng_scheme == "v2"

    def test_parallel_and_serial_agree_across_chunk_sizes(self, tmp_path):
        config = GeneratorConfig(**SMALL)
        small_chunks = stream_workload_to_store(
            config, tmp_path / "a.npz", chunk_apps=4, workers=2
        )
        big_chunks = stream_workload_to_store(
            config, tmp_path / "b.npz", chunk_apps=19, workers=4
        )
        assert archive_members(small_chunks.path) == archive_members(big_chunks.path)

    def test_invalid_arguments_rejected(self, tmp_path):
        config = GeneratorConfig(**SMALL)
        with pytest.raises(ValueError, match="workers"):
            stream_workload_to_store(config, tmp_path / "x.npz", workers=0)
        with pytest.raises(ValueError, match="chunk_apps"):
            stream_workload_to_store(config, tmp_path / "x.npz", chunk_apps=0)

    def test_chunk_columns_stream_in_order(self):
        config = GeneratorConfig(**SMALL)
        chunks = list(iter_chunk_columns(config, chunk_apps=8, workers=2))
        assert [chunk.start_index for chunk in chunks] == list(
            range(0, config.num_apps, 8)
        )
        assert sum(chunk.num_apps for chunk in chunks) == config.num_apps

    def test_one_worker_generates_chunks_lazily(self, monkeypatch):
        # One worker runs no pool: each chunk's app range is generated in
        # this process only when the consumer asks for that chunk.
        ranges = []
        generate_app_range = WorkloadGenerator.generate_app_range

        def recording(self, start, stop):
            ranges.append((start, stop))
            return generate_app_range(self, start, stop)

        monkeypatch.setattr(WorkloadGenerator, "generate_app_range", recording)
        iterator = iter_chunk_columns(GeneratorConfig(**SMALL), chunk_apps=8, workers=1)
        assert next(iterator).start_index == 0
        assert ranges == [(0, 8)]
        assert [chunk.start_index for chunk in iterator] == [8, 16, 24]
        assert ranges == [(0, 8), (8, 16), (16, 24), (24, 30)]

    def test_early_consumer_exit_terminates_cleanly(self):
        config = GeneratorConfig(**SMALL)
        iterator = iter_chunk_columns(config, chunk_apps=4, workers=2)
        first = next(iterator)
        assert first.start_index == 0
        iterator.close()  # must not leak or deadlock on pool workers

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        num_apps=st.integers(min_value=1, max_value=30),
        chunk_apps=st.integers(min_value=1, max_value=12),
        workers=st.integers(min_value=1, max_value=4),
    )
    def test_worker_count_never_changes_archive(
        self, tmp_path, seed, num_apps, chunk_apps, workers
    ):
        """Property: archives are a pure function of the config."""
        config = GeneratorConfig(
            num_apps=num_apps,
            duration_minutes=720.0,
            seed=seed,
            max_daily_rate=200.0,
        )
        reference = stream_workload_to_store(
            config, tmp_path / f"ref-{seed}-{num_apps}.npz", chunk_apps=num_apps
        )
        streamed = stream_workload_to_store(
            config,
            tmp_path / f"par-{seed}-{num_apps}-{chunk_apps}-{workers}.npz",
            chunk_apps=chunk_apps,
            workers=workers,
        )
        assert archive_members(reference.path) == archive_members(streamed.path)


class TestTargetRps:
    def test_target_rps_rescales_aggregate_load(self):
        base = GeneratorConfig(num_apps=60, duration_minutes=1440.0, seed=3)
        scaled = GeneratorConfig(
            num_apps=60, duration_minutes=1440.0, seed=3, target_rps=5.0
        )
        low = WorkloadGenerator(base).generate().total_invocations
        high = WorkloadGenerator(scaled).generate().total_invocations
        measured_rps = high / (1440.0 * 60.0)
        # Arrival realizations and per-app caps leave slack around the
        # target; the rescale must land well within a factor of two.
        assert 0.5 * 5.0 <= measured_rps <= 2.0 * 5.0
        assert high != low

    def test_target_rps_validation(self):
        with pytest.raises(ValueError, match="target_rps"):
            GeneratorConfig(num_apps=5, duration_minutes=60.0, target_rps=0.0)

    def test_target_rps_streams_identically(self, tmp_path):
        config = GeneratorConfig(
            num_apps=25, duration_minutes=720.0, seed=5, target_rps=2.0
        )
        mono = tmp_path / "mono.npz"
        WorkloadGenerator(config).generate().store.save(mono)
        streamed = stream_workload_to_store(config, tmp_path / "s.npz", chunk_apps=6)
        assert archive_members(mono) == archive_members(streamed.path)
