"""Tests for the generator's counter-keyed RNG scheme (``v2``).

Every application's dynamic draws come from its own counter-keyed
stream, so any app range is a pure function of ``(seed, start, stop)``
and chunk boundaries, generation order, and worker count can never
change the output.  The stream is pinned byte-for-byte by a golden
digest — refactors of the generator internals must not move it.  The
sequential ``v1`` scheme was removed and is rejected by name.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.trace.generator import GeneratorConfig, WorkloadGenerator

GOLDEN_CONFIG = dict(
    num_apps=12, duration_minutes=360.0, seed=7, max_daily_rate=100.0
)

#: sha256 of the saved archive for GOLDEN_CONFIG, pinned so generator
#: refactors cannot silently shift the random stream.
GOLDEN_DIGEST = "3982068ca060a1895cffc830977ad86a1db4c724284799cbd4f39c197ed8e17c"


def flatten(generator: WorkloadGenerator, chunk_apps: int):
    apps, times, positions = [], [], []
    num_apps = generator.config.num_apps
    for start in range(0, num_apps, chunk_apps):
        chunk = generator.generate_app_range(start, min(start + chunk_apps, num_apps))
        apps.extend(chunk.apps)
        times.extend(chunk.app_times)
        positions.extend(chunk.app_positions)
    return apps, times, positions


class TestSchemeValidation:
    def test_known_schemes(self):
        assert GeneratorConfig(num_apps=3, duration_minutes=60.0).rng_scheme == "v2"
        GeneratorConfig(num_apps=3, duration_minutes=60.0, rng_scheme="v2")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="rng_scheme"):
            GeneratorConfig(num_apps=3, duration_minutes=60.0, rng_scheme="v3")

    def test_removed_v1_scheme_rejected(self):
        with pytest.raises(ValueError, match="'v1' scheme was removed"):
            GeneratorConfig(num_apps=3, duration_minutes=60.0, rng_scheme="v1")


class TestGoldenOutputs:
    @pytest.mark.parametrize(
        "scheme", [{}, {"rng_scheme": "v2"}], ids=["default", "v2"]
    )
    def test_archive_digest_pinned(self, tmp_path, scheme):
        # With no rng_scheme argument the default is the counter-keyed
        # stream, and spelling it out as "v2" (still accepted) changes
        # nothing: generate() is byte-identical to the pinned archive.
        path = tmp_path / "golden.npz"
        config = GeneratorConfig(**GOLDEN_CONFIG, **scheme)
        WorkloadGenerator(config).generate().store.save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_DIGEST


class TestV2Purity:
    def test_generate_app_range_matches_full_generation(self):
        config = GeneratorConfig(num_apps=30, duration_minutes=720.0, seed=13)
        apps, times, positions = flatten(WorkloadGenerator(config), chunk_apps=30)
        # A fresh generator jumping straight to an interior range must
        # reproduce exactly the same applications: no hidden sequential
        # state survives between ranges.
        chunk = WorkloadGenerator(config).generate_app_range(11, 23)
        assert chunk.start_index == 11
        assert chunk.apps == tuple(apps[11:23])
        for got, expected in zip(chunk.app_times, times[11:23]):
            np.testing.assert_array_equal(got, expected)
        for got, expected in zip(chunk.app_positions, positions[11:23]):
            np.testing.assert_array_equal(got, expected)

    def test_generate_app_range_bounds_checked(self):
        config = GeneratorConfig(**GOLDEN_CONFIG)
        generator = WorkloadGenerator(config)
        for start, stop in [(-1, 3), (3, 2), (0, 13)]:
            with pytest.raises(ValueError, match="range"):
                generator.generate_app_range(start, stop)

    def test_app_rng_streams_are_counter_keyed(self):
        config = GeneratorConfig(**GOLDEN_CONFIG)
        generator = WorkloadGenerator(config)
        same = generator.app_rng(4).random(8)
        np.testing.assert_array_equal(same, generator.app_rng(4).random(8))
        assert not np.array_equal(same, generator.app_rng(5).random(8))

    def test_population_cached_and_seed_pure(self):
        config = GeneratorConfig(**GOLDEN_CONFIG)
        generator = WorkloadGenerator(config)
        population = generator.ensure_population()
        assert generator.ensure_population() is population
        other = WorkloadGenerator(config).ensure_population()
        np.testing.assert_array_equal(population.daily_rates, other.daily_rates)
        np.testing.assert_array_equal(population.memory_mb, other.memory_mb)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    num_apps=st.integers(min_value=1, max_value=30),
    chunk_a=st.integers(min_value=1, max_value=40),
    chunk_b=st.integers(min_value=1, max_value=40),
)
def test_v2_chunk_size_never_changes_output(seed, num_apps, chunk_a, chunk_b):
    """Property: the chunking is invisible in the output."""
    config = GeneratorConfig(
        num_apps=num_apps,
        duration_minutes=360.0,
        seed=seed,
        max_daily_rate=150.0,
    )
    apps_a, times_a, _ = flatten(WorkloadGenerator(config), chunk_a)
    apps_b, times_b, _ = flatten(WorkloadGenerator(config), chunk_b)
    assert apps_a == apps_b
    for left, right in zip(times_a, times_b):
        np.testing.assert_array_equal(left, right)
