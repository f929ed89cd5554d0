"""Tests for the range-limited idle-time histogram."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.histogram import IdleTimeHistogram
from repro.core.welford import Welford


class TestConstruction:
    def test_default_geometry_matches_paper(self):
        histogram = IdleTimeHistogram()
        assert histogram.range_minutes == 240.0
        assert histogram.bin_width_minutes == 1.0
        assert histogram.num_bins == 240
        # 240 four-byte integers = 960 bytes, the figure quoted in Section 6.
        assert histogram.metadata_bytes == 960

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            IdleTimeHistogram(range_minutes=0)
        with pytest.raises(ValueError):
            IdleTimeHistogram(bin_width_minutes=0)
        with pytest.raises(ValueError):
            IdleTimeHistogram(range_minutes=0.5, bin_width_minutes=1.0)

    @pytest.mark.parametrize("geometry", [(240.0, 1.0), (10.0, 1.0), (12.0, 0.5), (1.0, 1.0)])
    def test_single_observation_cv_fresh_and_after_reset(self, geometry):
        range_minutes, width = geometry
        fresh = IdleTimeHistogram(range_minutes, width)
        cleared = IdleTimeHistogram(range_minutes, width)
        cleared.observe_many([0.0, 0.5, 300.0])
        cleared.reset()
        # Bin-count statistics built by adding one zero per bin.
        zero_filled = IdleTimeHistogram.from_state(
            np.zeros(fresh.num_bins, dtype=np.int64),
            oob_count=0,
            range_minutes=range_minutes,
            bin_width_minutes=width,
            bin_stats=Welford.from_values([0.0] * fresh.num_bins),
        )
        for histogram in (fresh, cleared, zero_filled):
            histogram.observe(0.25)
        # One count of 1 among num_bins bins: the CV is sqrt(num_bins - 1),
        # exactly for 240 bins and up to the last bit for some others.
        expected = math.sqrt(fresh.num_bins - 1)
        assert fresh.bin_count_cv == pytest.approx(expected, rel=1e-15)
        assert fresh.bin_count_cv == cleared.bin_count_cv == zero_filled.bin_count_cv

    def test_empty_histogram_state(self):
        histogram = IdleTimeHistogram()
        assert histogram.is_empty()
        assert histogram.total_count == 0
        assert histogram.oob_fraction == 0.0
        with pytest.raises(ValueError):
            histogram.percentile(50)


class TestObservation:
    def test_observe_in_bounds(self):
        histogram = IdleTimeHistogram(range_minutes=10, bin_width_minutes=1)
        assert histogram.observe(3.5) is True
        assert histogram.counts[3] == 1
        assert histogram.in_bounds_count == 1
        assert histogram.oob_count == 0

    def test_observe_out_of_bounds(self):
        histogram = IdleTimeHistogram(range_minutes=10, bin_width_minutes=1)
        assert histogram.observe(10.0) is False
        assert histogram.observe(500.0) is False
        assert histogram.oob_count == 2
        assert histogram.in_bounds_count == 0
        assert histogram.oob_fraction == 1.0

    def test_negative_idle_time_rejected(self):
        with pytest.raises(ValueError):
            IdleTimeHistogram().observe(-1.0)

    def test_bin_index_boundaries(self):
        histogram = IdleTimeHistogram(range_minutes=5, bin_width_minutes=1)
        assert histogram.bin_index(0.0) == 0
        assert histogram.bin_index(0.999) == 0
        assert histogram.bin_index(1.0) == 1
        assert histogram.bin_index(4.999) == 4
        assert histogram.bin_index(5.0) is None

    def test_observe_many_returns_in_bounds_count(self):
        histogram = IdleTimeHistogram(range_minutes=10)
        in_bounds = histogram.observe_many([1.0, 2.0, 50.0, 3.0])
        assert in_bounds == 3
        assert histogram.total_count == 4

    def test_reset(self):
        histogram = IdleTimeHistogram.from_idle_times([1, 2, 3, 300])
        histogram.reset()
        assert histogram.is_empty()
        assert histogram.oob_count == 0
        assert np.all(histogram.counts == 0)

    def test_decay_halves_counts(self):
        histogram = IdleTimeHistogram(range_minutes=10)
        histogram.observe_many([2.5] * 8 + [20.0] * 4)
        histogram.decay(0.5)
        assert histogram.counts[2] == 4
        assert histogram.oob_count == 2
        assert histogram.total_count == 6

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_decay_floors_oob_count_like_bins(self, n):
        histogram = IdleTimeHistogram(range_minutes=10)
        histogram.observe_many([2.5] * n + [20.0] * n)
        histogram.decay(0.5)
        assert histogram.in_bounds_count == histogram.oob_count == n // 2
        assert histogram.oob_fraction == 0.5


class TestPercentiles:
    def test_single_bin_percentiles(self):
        histogram = IdleTimeHistogram.from_idle_times([7.2] * 20, range_minutes=60)
        assert histogram.percentile(5, rounding="down") == 7.0
        assert histogram.percentile(99, rounding="up") == 8.0
        assert histogram.percentile(50, rounding="nearest") == 7.5

    def test_head_and_tail_cutoffs(self):
        # 100 observations at 2 minutes, 5 at 30 minutes: the head should sit
        # at the 2-minute bin and the tail at the 30-minute bin.
        idle_times = [2.1] * 100 + [30.4] * 5
        histogram = IdleTimeHistogram.from_idle_times(idle_times, range_minutes=60)
        assert histogram.head_cutoff(5) == 2.0
        assert histogram.tail_cutoff(99) == 31.0

    def test_percentile_ordering(self):
        rng = np.random.default_rng(0)
        histogram = IdleTimeHistogram.from_idle_times(rng.uniform(0, 200, size=500))
        p5 = histogram.percentile(5, rounding="down")
        p50 = histogram.percentile(50, rounding="nearest")
        p99 = histogram.percentile(99, rounding="up")
        assert p5 <= p50 <= p99

    def test_percentile_requires_in_bounds_data(self):
        histogram = IdleTimeHistogram(range_minutes=10)
        histogram.observe(100.0)
        with pytest.raises(ValueError):
            histogram.percentile(50)

    def test_invalid_percentile_arguments(self):
        histogram = IdleTimeHistogram.from_idle_times([1.0])
        with pytest.raises(ValueError):
            histogram.percentile(101)
        with pytest.raises(ValueError):
            histogram.percentile(50, rounding="sideways")

    def test_mean_idle_time_uses_midpoints(self):
        histogram = IdleTimeHistogram.from_idle_times([1.2, 1.7], range_minutes=10)
        assert histogram.mean_idle_time() == pytest.approx(1.5)


class TestRepresentativenessSignal:
    def test_concentrated_histogram_has_high_cv(self):
        concentrated = IdleTimeHistogram.from_idle_times([5.5] * 50)
        assert concentrated.bin_count_cv > 10

    def test_flat_histogram_has_low_cv(self):
        histogram = IdleTimeHistogram(range_minutes=10, bin_width_minutes=1)
        histogram.observe_many([b + 0.5 for b in range(10)] * 3)
        assert histogram.bin_count_cv == pytest.approx(0.0, abs=1e-6)

    def test_cv_matches_direct_computation(self):
        rng = np.random.default_rng(1)
        histogram = IdleTimeHistogram.from_idle_times(
            rng.exponential(20, size=300), range_minutes=120
        )
        counts = histogram.counts.astype(float)
        expected = counts.std() / counts.mean()
        assert histogram.bin_count_cv == pytest.approx(expected, rel=1e-9)


class TestMergeAndSnapshot:
    def test_merge_adds_counts(self):
        left = IdleTimeHistogram.from_idle_times([1, 2, 3], range_minutes=10)
        right = IdleTimeHistogram.from_idle_times([2, 50], range_minutes=10)
        merged = left.merge(right)
        assert merged.total_count == 5
        assert merged.oob_count == 1
        assert merged.counts[2] == 2

    def test_merge_requires_identical_geometry(self):
        with pytest.raises(ValueError):
            IdleTimeHistogram(range_minutes=10).merge(IdleTimeHistogram(range_minutes=20))

    def test_snapshot_is_independent_copy(self):
        histogram = IdleTimeHistogram.from_idle_times([1, 2], range_minutes=10)
        snapshot = histogram.snapshot()
        histogram.observe(3)
        assert snapshot.total_count == 2
        assert snapshot.counts.sum() == 2

    def test_normalized_peaks_at_one(self):
        histogram = IdleTimeHistogram.from_idle_times([4.5] * 10 + [9.5], range_minutes=20)
        normalized = histogram.normalized()
        assert normalized.max() == pytest.approx(1.0)
        assert normalized[9] == pytest.approx(0.1)

    def test_normalized_of_empty_is_zero(self):
        assert IdleTimeHistogram(range_minutes=5).normalized().max() == 0.0


class TestProperties:
    @given(
        st.lists(st.floats(min_value=0, max_value=500), min_size=1, max_size=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_counts_are_conserved(self, idle_times):
        histogram = IdleTimeHistogram.from_idle_times(idle_times, range_minutes=240)
        assert histogram.total_count == len(idle_times)
        assert histogram.in_bounds_count == int(histogram.counts.sum())
        assert histogram.in_bounds_count + histogram.oob_count == len(idle_times)

    @given(
        st.lists(st.floats(min_value=0, max_value=239), min_size=2, max_size=200),
        st.floats(min_value=1, max_value=49),
        st.floats(min_value=50, max_value=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_percentiles_are_monotone(self, idle_times, low, high):
        histogram = IdleTimeHistogram.from_idle_times(idle_times)
        assert histogram.percentile(low, rounding="down") <= histogram.percentile(
            high, rounding="up"
        )

    @given(st.lists(st.floats(min_value=0, max_value=239), min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_percentile_bounded_by_range(self, idle_times):
        histogram = IdleTimeHistogram.from_idle_times(idle_times)
        assert 0 <= histogram.percentile(99, rounding="up") <= histogram.range_minutes


# --------------------------------------------------------------------------- #
# Percentile cursors against a fresh search
# --------------------------------------------------------------------------- #
def reference_percentile_bins(histogram: IdleTimeHistogram, percentiles) -> np.ndarray:
    """The first bin whose cumulative count reaches each target, searched afresh."""
    in_bounds = histogram.in_bounds_count
    targets = np.asarray(percentiles) / 100 * in_bounds
    return np.minimum(
        np.searchsorted(np.cumsum(histogram.counts), np.maximum(targets, 1e-12)),
        histogram.num_bins - 1,
    )


GEOMETRIES = [(10.0, 1.0), (12.0, 0.5), (7.0, 0.7), (1.0, 1.0), (240.0, 1.0)]

#: Idle times as fractions of the histogram range: below 1 lands in bounds
#: (0 is bin 0, just below 1 the last bin), 1 and above out of bounds.  A
#: few fixed fractions pile counts into few bins, so cumulative counts
#: often equal a target exactly.
idle_fractions = st.one_of(
    st.sampled_from([0.0, 0.3, 0.5, 0.999999, 1.0]),
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(1.0, 3.0),
)

#: Each step is a kind, idle times (observed, or merged in from a second
#: histogram) and a decay factor.  Observations outnumber the kinds that
#: drop every cursor, so cursors live long enough to move both ways.
steps = st.lists(
    st.tuples(
        st.sampled_from(["observe"] * 8 + ["reset", "decay", "merge", "from_state"]),
        st.lists(idle_fractions, min_size=1, max_size=3),
        st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    ),
    min_size=1,
    max_size=60,
)

percentile_values = st.one_of(
    st.sampled_from([0.0, 1e-9, 5.0, 25.0, 50.0, 75.0, 99.0, 100.0]),
    st.floats(0.0, 100.0),
    st.floats(0.0, 100.0).map(np.float64),
)


class TestPercentileCursors:
    @given(
        geometry=st.sampled_from(GEOMETRIES),
        percentile_lists=st.lists(
            st.lists(percentile_values, min_size=1, max_size=4), min_size=1, max_size=3
        ),
        steps=steps,
    )
    @settings(max_examples=300, deadline=None)
    def test_cursors_match_a_fresh_search_at_every_step(
        self, geometry, percentile_lists, steps
    ):
        range_minutes, width = geometry
        histogram = IdleTimeHistogram(range_minutes, width)
        for number, (kind, fractions, factor) in enumerate(steps):
            idle_times = [fraction * range_minutes for fraction in fractions]
            if kind == "observe":
                histogram.observe_many(idle_times)
            elif kind == "reset":
                histogram.reset()
            elif kind == "decay":
                histogram.decay(factor)
            elif kind == "merge":
                other = IdleTimeHistogram.from_idle_times(
                    idle_times, range_minutes=range_minutes, bin_width_minutes=width
                )
                histogram = histogram.merge(other)
            else:
                histogram = IdleTimeHistogram.from_state(
                    histogram.counts,
                    oob_count=histogram.oob_count,
                    range_minutes=range_minutes,
                    bin_width_minutes=width,
                    bin_stats=Welford.from_values(histogram.counts.astype(float)),
                )
            # Lists take turns, so a percentile may first be asked mid-sequence.
            percentiles = percentile_lists[number % len(percentile_lists)]
            if histogram.in_bounds_count == 0:
                with pytest.raises(ValueError, match="no in-bounds"):
                    histogram.percentile_bins(percentiles)
                continue
            bins = histogram.percentile_bins(percentiles)
            assert bins == reference_percentile_bins(histogram, percentiles).tolist()
            assert all(type(index) is int for index in bins)

    def test_invalid_percentile_is_rejected_empty_or_not(self):
        histogram = IdleTimeHistogram(range_minutes=10)
        with pytest.raises(ValueError, match="percentile must be within"):
            histogram.percentile_bins((5.0, 101.0))
        histogram.observe(3.0)
        with pytest.raises(ValueError, match="percentile must be within"):
            histogram.percentile_bins((5.0, -1.0))
        assert histogram.percentile_bins((5.0,)) == [3]
