"""Unit tests for the nightly benchmark regression gate.

``benchmarks/report_trend.py`` compares each ``BENCH_results.json`` key's
latest entry against its previous one: more-is-better numbers (speedups,
rates) fail on a drop, less-is-better numbers (seconds, overheads,
resident-set sizes) on a rise, and an entry that recorded ``passed:
false`` fails whatever its history.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "report_trend.py"
_SPEC = importlib.util.spec_from_file_location("report_trend", _SCRIPT)
report_trend = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_trend)


def entry(speedup: float | None = None, **details) -> dict:
    record: dict = {"name": "bench/key", "details": details}
    if speedup is not None:
        record["speedup"] = speedup
    return record


def flagged_keys(*entries: dict) -> list[str]:
    return [r.key for r in report_trend.find_regressions({"bench/key": list(entries)})]


class TestDirection:
    @pytest.mark.parametrize(
        "key, expected",
        [
            ("speedup", True),
            ("invocations_per_second", True),
            ("banked_invocations_per_second", True),
            ("family_seconds", False),
            ("setup_s", False),
            ("overhead_fraction", False),
            ("peak_rss_mb_100k", False),
            ("configs", None),
            ("cpu_count", None),
        ],
    )
    def test_key_direction(self, key, expected):
        assert report_trend.higher_is_better(key) is expected

    def test_perf_values_skip_flags_and_settings(self):
        values = report_trend.perf_values(
            entry(2.0, family_seconds=1.5, passed=True, configs=19, commit="abc")
        )
        assert values == {"speedup": 2.0, "family_seconds": 1.5}


class TestMoreIsBetter:
    def test_drop_beyond_threshold_flagged(self):
        assert flagged_keys(entry(10.0), entry(7.9)) == ["speedup"]
        assert flagged_keys(
            entry(gen_invocations_per_second=1000.0),
            entry(gen_invocations_per_second=700.0),
        ) == ["gen_invocations_per_second"]

    def test_small_drop_and_any_rise_pass(self):
        assert flagged_keys(entry(10.0), entry(8.5)) == []
        assert flagged_keys(entry(10.0), entry(30.0)) == []


class TestLessIsBetter:
    @pytest.mark.parametrize(
        "key", ["family_seconds", "setup_s", "overhead_fraction", "peak_rss_mb_full"]
    )
    def test_rise_beyond_threshold_flagged(self, key):
        assert flagged_keys(entry(**{key: 1.0}), entry(**{key: 1.25})) == [key]

    @pytest.mark.parametrize("key", ["family_seconds", "peak_rss_mb_full"])
    def test_small_rise_and_any_drop_pass(self, key):
        assert flagged_keys(entry(**{key: 1.0}), entry(**{key: 1.15})) == []
        assert flagged_keys(entry(**{key: 1.0}), entry(**{key: 0.2})) == []

    def test_regression_message_names_the_direction(self):
        (regression,) = report_trend.find_regressions(
            {"bench/key": [entry(family_seconds=2.0), entry(family_seconds=3.0)]}
        )
        assert "50% rise" in regression.describe()


class TestRecordedBar:
    @pytest.mark.parametrize(
        "failing",
        [{"name": "bench/key", "passed": False}, entry(passed=False)],
        ids=["top-level", "details"],
    )
    def test_entry_missing_its_own_bar_is_flagged(self, failing):
        # Flagged even as the key's first entry, with no history to compare.
        assert flagged_keys(failing) == ["passed"]
        assert flagged_keys(entry(passed=True)) == []

    def test_only_the_latest_entry_counts(self):
        assert flagged_keys(entry(1.0, passed=False), entry(1.0, passed=True)) == []


class TestBaseline:
    def test_same_cpu_count_baseline_preferred(self):
        history = [
            entry(4.0, cpu_count=4),
            entry(1.5, cpu_count=2),
            entry(1.4, cpu_count=4),
        ]
        # Against the 4-core entry (4.0) 1.4 is a 65% drop; the 2-core
        # entry just before it would have hidden it.
        assert flagged_keys(*history) == ["speedup"]

    def test_top_level_cpu_count_preferred(self):
        """Entries name their environment at the top level."""
        history = [
            {**entry(4.0), "cpu_count": 4},
            {**entry(1.5), "cpu_count": 2},
            {**entry(1.4), "cpu_count": 4},
        ]
        assert flagged_keys(*history) == ["speedup"]

    def test_main_exits_nonzero_on_regression(self, monkeypatch, capsys):
        history = [entry(family_seconds=1.0), entry(family_seconds=2.0)]
        monkeypatch.setattr(report_trend, "load_entries", lambda: history)
        assert report_trend.main([]) == 3
        assert "REGRESSION bench/key: family_seconds" in capsys.readouterr().out
        monkeypatch.setattr(report_trend, "load_entries", lambda: history[:1])
        assert report_trend.main([]) == 0
