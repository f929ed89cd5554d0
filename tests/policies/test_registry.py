"""Tests for policy factories and string-spec parsing."""

from __future__ import annotations

import pytest

from repro.core.config import HybridPolicyConfig
from repro.core.hybrid import HybridHistogramPolicy
from repro.policies.fixed import FixedKeepAlivePolicy
from repro.policies.no_unload import NoUnloadingPolicy
from repro.policies.registry import (
    PolicyFactory,
    fixed_keepalive_factory,
    hybrid_factory,
    no_unloading_factory,
    parse_policy_spec,
    standard_policy_suite,
)


class TestFactories:
    def test_fixed_factory_creates_fresh_instances(self):
        factory = fixed_keepalive_factory(10)
        first, second = factory.create(), factory()
        assert first is not second
        assert isinstance(first, FixedKeepAlivePolicy)
        assert first.keepalive_minutes == 10

    def test_no_unloading_factory(self):
        assert isinstance(no_unloading_factory().create(), NoUnloadingPolicy)

    def test_hybrid_factory_default_config(self):
        policy = hybrid_factory().create()
        assert isinstance(policy, HybridHistogramPolicy)
        assert policy.config == HybridPolicyConfig()

    def test_hybrid_factory_with_overrides(self):
        factory = hybrid_factory(histogram_range_minutes=120.0, enable_arima=False)
        policy = factory.create()
        assert policy.config.histogram_range_minutes == 120.0
        assert not policy.config.enable_arima
        assert "2h" in factory.name
        assert "noarima" in factory.name

    def test_hybrid_factory_name_encodes_cutoffs(self):
        factory = hybrid_factory(HybridPolicyConfig().with_cutoffs(1, 95))
        assert "[1,95]" in factory.name

    def test_hybrid_instances_do_not_share_state(self):
        factory = hybrid_factory()
        first, second = factory.create(), factory.create()
        first.on_invocation(0.0, cold=True)
        assert second.histogram.total_count == 0


class TestSpecParsing:
    def test_parse_fixed(self):
        policy = parse_policy_spec("fixed:20").create()
        assert isinstance(policy, FixedKeepAlivePolicy)
        assert policy.keepalive_minutes == 20

    def test_parse_no_unloading_aliases(self):
        for spec in ("no-unloading", "no_unloading", "nounload", "infinite"):
            assert isinstance(parse_policy_spec(spec).create(), NoUnloadingPolicy)

    def test_parse_hybrid_default(self):
        policy = parse_policy_spec("hybrid").create()
        assert policy.config.histogram_range_minutes == 240.0

    def test_parse_hybrid_with_range(self):
        policy = parse_policy_spec("hybrid:120").create()
        assert policy.config.histogram_range_minutes == 120.0

    def test_parse_hybrid_with_cutoffs(self):
        policy = parse_policy_spec("hybrid:240:1:95").create()
        assert policy.config.head_percentile == 1.0
        assert policy.config.tail_percentile == 95.0

    @pytest.mark.parametrize("spec", ["fixed", "fixed:10:20", "hybrid:240:5", "bogus:1"])
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_policy_spec(spec)

    @pytest.mark.parametrize("spec", ["fixed:0", "fixed:-5", "fixed:inf", "fixed:nan"])
    def test_non_positive_fixed_windows_rejected(self, spec):
        with pytest.raises(ValueError, match="keep-alive window"):
            parse_policy_spec(spec)

    def test_non_numeric_fixed_window_rejected(self):
        with pytest.raises(ValueError, match="must be a number"):
            parse_policy_spec("fixed:ten")

    @pytest.mark.parametrize("spec", ["hybrid:0", "hybrid:-240", "hybrid:inf"])
    def test_non_positive_hybrid_range_rejected(self, spec):
        with pytest.raises(ValueError, match="histogram range"):
            parse_policy_spec(spec)

    @pytest.mark.parametrize(
        "spec",
        ["hybrid:240:-1:99", "hybrid:240:5:101", "hybrid:240:120:130", "hybrid:240:nan:99"],
    )
    def test_out_of_range_percentiles_rejected(self, spec):
        with pytest.raises(ValueError, match="percentile"):
            parse_policy_spec(spec)

    def test_head_above_tail_rejected(self):
        with pytest.raises(ValueError, match="head percentile must not exceed"):
            parse_policy_spec("hybrid:240:99:5")


class TestBankCapabilities:
    def test_hybrid_factory_supports_banked(self):
        factory = hybrid_factory(histogram_range_minutes=120.0)
        assert factory.supports_banked
        bank = factory.make_bank(3)
        assert bank.num_apps == 3
        assert bank.config.histogram_range_minutes == 120.0

    def test_fixed_and_no_unloading_do_not_support_banked(self):
        for factory in (fixed_keepalive_factory(10.0), no_unloading_factory()):
            assert not factory.supports_banked
            with pytest.raises(NotImplementedError):
                factory.make_bank(2)


class TestSweepFamilyCapability:
    def test_fixed_family_metadata(self):
        factory = fixed_keepalive_factory(45)
        assert factory.family == "constant-keepalive"
        assert factory.family_config == 45.0
        assert factory.sweep_key == ("constant-keepalive",)

    def test_no_unloading_family_metadata(self):
        factory = no_unloading_factory()
        assert factory.family == "constant-keepalive"
        assert factory.family_config == float("inf")
        assert factory.sweep_key == fixed_keepalive_factory(10).sweep_key

    def test_hybrid_family_metadata(self):
        config = HybridPolicyConfig(histogram_range_minutes=120.0)
        factory = hybrid_factory(config)
        assert factory.family == "hybrid-histogram"
        assert factory.family_config == config
        # Power-of-two bin width, whole number of bins: keyed by bin width.
        assert factory.sweep_key == ("hybrid-histogram", 1.0)

    def test_parsed_specs_carry_family_metadata(self):
        assert parse_policy_spec("fixed:20").sweep_key == ("constant-keepalive",)
        assert parse_policy_spec("hybrid:240").sweep_key == ("hybrid-histogram", 1.0)
        assert parse_policy_spec("hybrid:60.5").sweep_key == ("hybrid-histogram", 60.5, 1.0)

    def test_bare_factory_has_no_sweep_key(self):
        bare = PolicyFactory(name="bare", builder=lambda: FixedKeepAlivePolicy(5.0))
        assert bare.family is None
        assert bare.sweep_key is None

    def test_renamed_keeps_builder_and_family(self):
        factory = hybrid_factory(cv_threshold=5.0)
        renamed = factory.renamed("hybrid-cv5")
        assert renamed.name == "hybrid-cv5"
        assert renamed.sweep_key == factory.sweep_key
        assert renamed.create().config.cv_threshold == 5.0


class TestSuite:
    def test_standard_suite_contents(self):
        suite = standard_policy_suite()
        names = [factory.name for factory in suite]
        assert "no-unloading" in names
        assert "fixed-10min" in names
        assert "hybrid-4h" in names
        # 1 no-unloading + 8 fixed + 4 hybrid ranges.
        assert len(suite) == 13

    def test_suite_without_no_unloading(self):
        suite = standard_policy_suite(include_no_unloading=False)
        assert all(factory.name != "no-unloading" for factory in suite)
