"""Nested ranges of one wide :class:`HistogramBank` against scalar histograms.

With a power-of-two bin width and whole-bin ranges, a narrower range's
histogram is the leading bins of a wider one, so a single bank at the
widest range can serve every range (``nested_ranges``).  The property
here is the one the sweep engine's Figure 15 family rests on: after any
observation stream — fed through either the lockstep prefix path or the
row-subset path — each range's CV, percentile bins, in-bounds count, and
extracted scalar clone equal those of a scalar
``IdleTimeHistogram(range=R)`` fed the same idle times, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.histogram import IdleTimeHistogram
from repro.core.histogram_bank import HistogramBank, nests_exactly

ROWS = 3
PERCENTILES = (0.0, 1.0, 5.0, 50.0, 95.0, 99.0, 100.0)


@st.composite
def nested_streams(draw):
    """A bin width, 2-4 nested ranges, and lockstep idle-time steps."""
    width = draw(st.sampled_from([0.5, 1.0, 2.0]))
    bin_counts = draw(
        st.lists(st.integers(1, 24), min_size=2, max_size=4, unique=True)
    )
    ranges = sorted(count * width for count in bin_counts)
    # Idle times straddling every range boundary, on bin edges, and at
    # random points out to beyond the widest range.
    edges = [v for r in ranges for v in (np.nextafter(r, 0.0), r)]
    idle = st.one_of(
        st.sampled_from(edges),
        st.integers(0, int(ranges[-1] / width) + 2).map(lambda k: k * width),
        st.floats(0.0, 1.5 * ranges[-1], allow_nan=False),
    )
    steps = draw(
        st.lists(
            st.tuples(
                st.lists(idle, min_size=ROWS, max_size=ROWS),
                st.lists(st.booleans(), min_size=ROWS, max_size=ROWS),
            ),
            max_size=40,
        )
    )
    return width, ranges, steps


def assert_matches_scalars(bank, scalars, ranges):
    pairs = [(r, q) for r in ranges for q in PERCENTILES]
    in_bounds = bank.in_bounds_prefix(ROWS)
    cvs = bank.bin_count_cvs_prefix(ROWS)
    assert np.array_equal(cvs[-1], bank.bin_count_cv_prefix(ROWS), equal_nan=True)
    bins = bank.percentile_bins_prefix(
        ROWS,
        [q for _, q in pairs],
        in_bounds[[ranges.index(r) for r, _ in pairs]],
        [bank.num_bins_for(r) for r, _ in pairs],
    )
    # Every recorded bin stays inside its own range, even for rows with
    # nothing in bounds (whose bins the policy masks out).
    last_bins = np.array([bank.num_bins_for(r) - 1 for r, _ in pairs])
    assert np.all((bins >= 0) & (bins <= last_bins[:, None]))
    for ri, r in enumerate(ranges):
        for row in range(ROWS):
            scalar = scalars[r][row]
            assert cvs[ri, row] == scalar.bin_count_cv
            assert in_bounds[ri, row] == scalar.in_bounds_count
            clone = bank.extract_row(row, r)
            assert clone.range_minutes == scalar.range_minutes
            assert np.array_equal(clone.counts, scalar.counts)
            assert clone.oob_count == scalar.oob_count
            assert clone.bin_count_cv == scalar.bin_count_cv
            if scalar.in_bounds_count:
                for pi, (pr, q) in enumerate(pairs):
                    if pr == r:
                        assert bins[pi, row] * bank.bin_width_minutes == (
                            scalar.percentile(q, rounding="down")
                        ), (r, q, row)


class TestNestedRanges:
    @settings(deadline=None, max_examples=60)
    @given(case=nested_streams())
    def test_every_range_matches_its_scalar_histogram(self, case):
        width, ranges, steps = case
        bank = HistogramBank(
            ROWS,
            range_minutes=ranges[-1],
            bin_width_minutes=width,
            nested_ranges=ranges[:-1],
        )
        scalars = {r: [IdleTimeHistogram(r, width) for _ in range(ROWS)] for r in ranges}
        for idle, selected in steps:
            idle = np.asarray(idle, dtype=np.float64)
            if all(selected):
                bank.observe_prefix(idle)
            else:
                rows = np.nonzero(selected)[0]
                bank.observe(rows, idle[rows])
            for row in np.nonzero(selected)[0]:
                for r in ranges:
                    scalars[r][row].observe(float(idle[row]))
            assert_matches_scalars(bank, scalars, ranges)

    def test_exactness_rule(self):
        assert nests_exactly(60.0, 1.0)
        assert nests_exactly(7.5, 0.5)
        assert nests_exactly(240.0, 0.25)
        assert not nests_exactly(60.0, 0.3)  # not a power of two
        assert not nests_exactly(60.5, 1.0)  # not a whole number of bins
        assert not nests_exactly(float("inf"), 1.0)

    @pytest.mark.parametrize("nested", [60.5, 300.0, 0.0])
    def test_rejects_ranges_that_do_not_nest(self, nested):
        with pytest.raises(ValueError, match="does not nest"):
            HistogramBank(2, range_minutes=240.0, nested_ranges=[nested])

    def test_untracked_range_rejected(self):
        bank = HistogramBank(2, range_minutes=240.0, nested_ranges=[60.0])
        with pytest.raises(ValueError, match="not tracked"):
            bank.extract_row(0, 120.0)
