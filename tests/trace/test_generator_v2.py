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

from repro.trace.generator import GeneratorConfig, WorkloadGenerator, _weighted_choice
from repro.trace.schema import TriggerType

GOLDEN_CONFIG = dict(
    num_apps=12, duration_minutes=360.0, seed=7, max_daily_rate=100.0
)

#: sha256 of the saved archive for GOLDEN_CONFIG, pinned so generator
#: refactors cannot silently shift the random stream.
GOLDEN_DIGEST = "3982068ca060a1895cffc830977ad86a1db4c724284799cbd4f39c197ed8e17c"

#: A larger population that reaches every branch of the static draws:
#: single- and multi-function apps, apps with more functions than
#: triggers, timer-only apps, and apps capped at max_invocations_per_app.
POPULATION_CONFIG = dict(
    num_apps=300,
    duration_minutes=1440.0,
    seed=2020,
    max_daily_rate=500.0,
    max_invocations_per_app=300,
)

#: sha256 over every AppSpec's repr plus its times and positions (dtype
#: and bytes).  The archive digest above does not see the memory or
#: execution profiles; these do.
POPULATION_DIGESTS = {
    "golden": "bbbe6b0168829c8c593b2a65f689020430cf2940854cca57008038524ea411a6",
    "population": "55b5669f275c6756c9ebffce5548ecef8c69c0207665a78613a3f18a5accde8c",
}


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


def population_digest(chunk) -> str:
    digest = hashlib.sha256()
    for app, times, positions in zip(chunk.apps, chunk.app_times, chunk.app_positions):
        digest.update(repr(app).encode())
        for column in (times, positions):
            digest.update(column.dtype.str.encode())
            digest.update(column.tobytes())
    return digest.hexdigest()


class TestPopulationPinned:
    @pytest.mark.parametrize(
        "name, config",
        [("golden", GOLDEN_CONFIG), ("population", POPULATION_CONFIG)],
        ids=["golden", "population"],
    )
    def test_population_digest_pinned(self, name, config):
        config = GeneratorConfig(**config)
        chunk = WorkloadGenerator(config).generate_app_range(0, config.num_apps)
        assert population_digest(chunk) == POPULATION_DIGESTS[name]

    def test_population_config_reaches_every_branch(self):
        config = GeneratorConfig(**POPULATION_CONFIG)
        chunk = WorkloadGenerator(config).generate_app_range(0, config.num_apps)
        counts = [app.num_functions for app in chunk.apps]
        assert 1 in counts and max(counts) > 1
        assert any(app.num_functions > len(app.trigger_types) for app in chunk.apps)
        assert any(app.trigger_types == {TriggerType.TIMER} for app in chunk.apps)
        assert any(
            times.size == config.max_invocations_per_app for times in chunk.app_times
        )


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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    weights=st.lists(
        st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60
    ).filter(lambda weights: sum(weights) > 0),
    size=st.integers(min_value=0, max_value=300),
)
def test_weighted_choice_matches_generator_choice(seed, weights, size):
    """Property: the generator's unchecked draw is ``Generator.choice``."""
    p = np.asarray(weights) / np.sum(weights)
    expected_rng = np.random.default_rng(seed)
    expected = expected_rng.choice(p.size, size=size, p=p)
    rng = np.random.default_rng(seed)
    got = _weighted_choice(rng, p, size)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    # Both consumed the same draws, so the streams stay in step.
    assert rng.random() == expected_rng.random()
