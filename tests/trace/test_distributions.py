"""Tests for the published-distribution models used by the generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.trace.distributions import (
    AnchoredCdfSampler,
    BurrMemoryModel,
    DAILY_RATE_ANCHORS,
    EXECUTION_MODEL,
    FUNCTIONS_PER_APP_ANCHORS,
    LogNormalExecutionModel,
    MEMORY_MODEL,
    TRIGGER_COMBINATION_SHARES,
    TRIGGER_FUNCTION_SHARES,
    TRIGGER_INVOCATION_SHARES,
    normalized_trigger_weights,
    sample_daily_rates,
    sample_functions_per_app,
    sample_trigger_combinations,
)
from repro.trace.schema import TriggerType

RNG_SEED = 7


class TestPublishedConstants:
    def test_trigger_shares_sum_to_one(self):
        assert sum(TRIGGER_FUNCTION_SHARES.values()) == pytest.approx(1.0, abs=0.01)
        assert sum(TRIGGER_INVOCATION_SHARES.values()) == pytest.approx(1.0, abs=0.01)

    def test_trigger_combination_shares_sum_to_one(self):
        assert sum(TRIGGER_COMBINATION_SHARES.values()) == pytest.approx(1.0, abs=0.01)

    def test_http_is_most_common_trigger(self):
        assert max(TRIGGER_FUNCTION_SHARES, key=TRIGGER_FUNCTION_SHARES.get) is TriggerType.HTTP

    def test_event_triggers_punch_above_their_weight(self):
        # 2.2% of functions but 24.7% of invocations (Figure 2).
        assert TRIGGER_INVOCATION_SHARES[TriggerType.EVENT] > 10 * TRIGGER_FUNCTION_SHARES[
            TriggerType.EVENT
        ]

    def test_anchor_tables_are_monotone(self):
        for anchors in (FUNCTIONS_PER_APP_ANCHORS, DAILY_RATE_ANCHORS):
            values = [a[0] for a in anchors]
            probs = [a[1] for a in anchors]
            assert values == sorted(values)
            assert probs == sorted(probs)


class TestAnchoredSampler:
    def test_quantile_matches_anchors(self):
        sampler = AnchoredCdfSampler([(1.0, 0.5), (10.0, 1.0)])
        assert sampler.quantile(0.5)[0] == pytest.approx(1.0)
        assert sampler.quantile(1.0)[0] == pytest.approx(10.0)

    def test_cdf_is_inverse_of_quantile(self):
        sampler = AnchoredCdfSampler(list(DAILY_RATE_ANCHORS))
        for q in (0.1, 0.45, 0.81, 0.95):
            value = sampler.quantile(q)[0]
            assert sampler.cdf(value)[0] == pytest.approx(q, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            AnchoredCdfSampler([(1.0, 0.5)])
        with pytest.raises(ValueError):
            AnchoredCdfSampler([(2.0, 0.5), (1.0, 1.0)])
        with pytest.raises(ValueError):
            AnchoredCdfSampler([(0.0, 0.5), (1.0, 1.0)], log_space=True)

    def test_samples_within_anchor_range(self):
        sampler = AnchoredCdfSampler(list(FUNCTIONS_PER_APP_ANCHORS))
        samples = sampler.sample(np.random.default_rng(RNG_SEED), 1000)
        assert samples.min() >= 1.0
        assert samples.max() <= 1000.0


class TestSamplers:
    def test_functions_per_app_matches_paper_quantiles(self):
        rng = np.random.default_rng(RNG_SEED)
        counts = sample_functions_per_app(rng, 20_000)
        assert counts.min() >= 1
        assert np.mean(counts == 1) == pytest.approx(0.54, abs=0.05)
        assert np.mean(counts <= 10) == pytest.approx(0.95, abs=0.03)

    def test_daily_rates_match_paper_quantiles(self):
        rng = np.random.default_rng(RNG_SEED)
        rates = sample_daily_rates(rng, 20_000)
        assert np.mean(rates <= 24.0) == pytest.approx(0.45, abs=0.05)
        assert np.mean(rates <= 1440.0) == pytest.approx(0.81, abs=0.05)

    def test_trigger_combinations_follow_figure3(self):
        rng = np.random.default_rng(RNG_SEED)
        combos = sample_trigger_combinations(rng, 20_000)
        http_only = np.mean([c == "H" for c in combos])
        timer_only = np.mean([c == "T" for c in combos])
        assert http_only == pytest.approx(0.43, abs=0.03)
        assert timer_only == pytest.approx(0.13, abs=0.03)

    def test_normalized_trigger_weights(self):
        triggers, weights = normalized_trigger_weights(TRIGGER_FUNCTION_SHARES)
        assert len(triggers) == len(weights)
        assert weights.sum() == pytest.approx(1.0)


class TestExecutionModel:
    def test_median_matches_lognormal_parameters(self):
        model = LogNormalExecutionModel()
        assert model.median_seconds() == pytest.approx(np.exp(-0.38))

    def test_half_of_functions_run_under_a_second(self):
        rng = np.random.default_rng(RNG_SEED)
        samples = EXECUTION_MODEL.sample_average_seconds(rng, 20_000)
        assert np.mean(samples < 1.0) == pytest.approx(0.56, abs=0.05)

    def test_cdf_monotone(self):
        grid = np.asarray([0.01, 0.1, 1.0, 10.0, 100.0])
        cdf = EXECUTION_MODEL.cdf(grid)
        assert np.all(np.diff(cdf) > 0)


class TestMemoryModel:
    def test_median_close_to_paper(self):
        # The paper reports ~170 MB median allocated memory (max curve); the
        # Burr fit of the average curve has a median around 100-130 MB.
        assert 80 < MEMORY_MODEL.median_mb() < 200

    def test_samples_are_positive_and_bounded_spread(self):
        rng = np.random.default_rng(RNG_SEED)
        samples = BurrMemoryModel().sample_mb(rng, 10_000)
        assert samples.min() > 0
        # The paper reports a ~4x spread within the first 90% of apps.
        p5, p90 = np.percentile(samples, [5, 90])
        assert p90 / p5 < 10

    def test_samples_equal_scipy_burr12_ppf_bit_for_bit(self):
        from scipy import stats

        def ppf(uniform):
            return stats.burr12.ppf(
                uniform, c=MEMORY_MODEL.c, d=MEMORY_MODEL.k, scale=MEMORY_MODEL.scale
            )

        samples = MEMORY_MODEL.sample_mb(np.random.default_rng(RNG_SEED), 10**6)
        uniform = np.random.default_rng(RNG_SEED).random(10**6)
        assert samples.tobytes() == ppf(uniform).tobytes()

        class FixedUniforms:
            """Stands in for a Generator whose draws hit the range's ends."""

            values = np.asarray([0.0, 2.0**-53, 2.0**-30, 0.5, 1.0 - 2.0**-53])

            def random(self, size):
                return self.values[:size]

        edges = MEMORY_MODEL.sample_mb(FixedUniforms(), FixedUniforms.values.size)
        assert edges[0] == 0.0
        assert edges.tobytes() == ppf(FixedUniforms.values).tobytes()

    def test_cdf_monotone(self):
        grid = np.asarray([10.0, 100.0, 300.0, 1000.0])
        cdf = MEMORY_MODEL.cdf(grid)
        assert np.all(np.diff(cdf) > 0)
