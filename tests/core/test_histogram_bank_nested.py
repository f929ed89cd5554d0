"""Nested ranges of one wide :class:`HistogramBank` against scalar histograms.

With a power-of-two bin width and whole-bin ranges, a narrower range's
histogram is the leading bins of a wider one, so a single bank at the
widest range can serve every range (``nested_ranges``).  The property
here is the one the sweep engine's Figure 15 family rests on: after any
observation stream — fed through either the lockstep prefix path or the
row-subset path — each range's CV, percentile bins, in-bounds count, and
extracted scalar clone equal those of a scalar
``IdleTimeHistogram(range=R)`` fed the same idle times, bit for bit.

The bank answers percentile queries from cursors it keeps between calls
(:mod:`repro.core.histogram_bank`), so a second property drives those
cursors far — runs of idle times that jump between distant bins, rows
that sit out or see only out-of-range gaps — and checks every answer
against a stateless search over the same counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
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
        with pytest.raises(ValueError, match="not a range tracked"):
            bank.percentile_bins_prefix(2, [5.0], num_bins=[120])


def fresh_search_bins(histograms, pairs, width):
    """Percentile bins from a fresh cumsum and search of each row's counts.

    ``histograms`` are scalar histograms at the widest range; a pair's
    range is the leading ``range / width`` bins, and a row with nothing
    in it answers the range's last bin.
    """
    bins = np.empty((len(pairs), len(histograms)), dtype=np.int64)
    for row, histogram in enumerate(histograms):
        cumulative = np.cumsum(histogram.counts)
        for i, (r, q) in enumerate(pairs):
            nb = round(r / width)
            target = max(q / 100.0 * int(cumulative[nb - 1]), 1e-12)
            index = int(np.searchsorted(cumulative, target, side="left"))
            bins[i, row] = min(index, nb - 1)
    return bins


@st.composite
def cursor_runs(draw):
    """Runs of idle times that move percentile cursors far, down and up.

    Every row's idle times come from a few far-apart spots: the first
    bin, both ends of the narrowest range, the middle and last bin of the
    widest range, and beyond every range.  A run repeats one choice per
    row a few times, so a percentile's bin jumps across runs of empty
    bins whenever the mix shifts.  A row may sit a run out (``None``),
    every row starts empty, and some runs leave a range, or the whole
    histogram, without in-range observations.  Each run also picks how
    many leading rows its queries cover.
    """
    width = draw(st.sampled_from([0.5, 1.0, 2.0]))
    bin_counts = draw(
        st.lists(st.integers(1, 24), min_size=1, max_size=3, unique=True)
    )
    ranges = sorted(count * width for count in bin_counts)
    widest = ranges[-1]
    spots = sorted(
        {
            0.0,
            ranges[0] - width,
            ranges[0],
            (widest // (2 * width)) * width,
            widest - width,
            widest,
            3.0 * widest,
        }
    )
    spot = st.one_of(st.none(), st.sampled_from(spots))
    runs = draw(
        st.lists(
            st.tuples(
                st.lists(spot, min_size=ROWS, max_size=ROWS),
                st.integers(1, 6),
                st.integers(1, ROWS),
            ),
            max_size=12,
        )
    )
    return width, ranges, runs


class TestPercentileCursors:
    @settings(deadline=None, max_examples=100)
    @given(case=cursor_runs())
    # Every percentile leaves the first bin for the last one and comes back.
    @example(
        case=(
            1.0,
            [4.0, 8.0],
            [([0.0] * ROWS, 3, ROWS), ([7.0] * ROWS, 6, ROWS), ([0.0] * ROWS, 6, ROWS)],
        )
    )
    def test_cursors_match_a_fresh_search_at_every_step(self, case):
        width, ranges, runs = case
        bank = HistogramBank(
            ROWS,
            range_minutes=ranges[-1],
            bin_width_minutes=width,
            nested_ranges=ranges[:-1],
        )
        scalars = [IdleTimeHistogram(ranges[-1], width) for _ in range(ROWS)]
        pairs = [(r, q) for r in ranges for q in PERCENTILES]
        percentiles = [q for _, q in pairs]
        num_bins = [bank.num_bins_for(r) for r, _ in pairs]
        # The banked policy's query: its own range, in-bounds counts given.
        own = [(ranges[-1], q) for q in (5.0, 99.0)]

        def check(n):
            expected = fresh_search_bins(scalars, pairs, width)[:, :n]
            got = bank.percentile_bins_prefix(n, percentiles, num_bins=num_bins)
            assert np.array_equal(got, expected)

        check(ROWS)
        for spots, repeat, queried in runs:
            rows = np.array([row for row, s in enumerate(spots) if s is not None])
            idle = np.array([spots[row] for row in rows], dtype=np.float64)
            for _ in range(repeat):
                if rows.size == ROWS:
                    bank.observe_prefix(idle)
                elif rows.size:
                    bank.observe(rows, idle)
                for row, value in zip(rows, idle):
                    scalars[row].observe(float(value))
                check(queried)
            in_bounds = bank.in_bounds_prefix(ROWS)[-1]
            got = bank.percentile_bins_prefix(ROWS, [q for _, q in own], in_bounds)
            assert np.array_equal(got, fresh_search_bins(scalars, own, width))
        check(ROWS)
