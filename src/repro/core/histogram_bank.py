"""Struct-of-arrays bank of idle-time histograms (one row per application).

:class:`~repro.core.histogram.IdleTimeHistogram` keeps one application's
idle-time distribution; the banked simulation engine needs the state of
*every* application at once so that one numpy operation can update or
query all of them.  :class:`HistogramBank` is the struct-of-arrays twin:

* per-row bin counts for a 2D ``(num_apps, num_bins)`` layout;
* per-row out-of-bounds (OOB) and total counters;
* per-row Welford accumulators over the *bin counts* (the
  representativeness CV signal of the hybrid policy), maintained with the
  exact ``remove``/``add`` update sequence of
  :class:`~repro.core.welford.Welford.replace` so every row's statistics
  are bit-identical to a scalar histogram fed the same observations;
* vectorized head/tail percentile cutoffs over arbitrary row subsets and
  over row prefixes (the hot path of the banked policy), answered from
  per-row **percentile cursors** (see below).

Storage layout
--------------
The bank stores plain bin counts, ``counts[r, b]``, plus each row's
number of observations inside every tracked range.  Recording an
observation is a gather of the old count (the Welford replace needs it),
a ``+1`` scatter, the Welford replace of every tracked range and a few
counter updates per row and cursor: O(1) per row, not O(bins).  An
out-of-bounds observation lands in one extra overflow bin past the last,
which no range and no query reads, so every row of a step takes the same
path.

Percentile cursors
------------------
The percentile bin of a row is the first bin whose cumulative count
reaches ``thr = ceil(max(q / 100 * n_R, 1e-12))``, where ``n_R`` is the
row's count inside the range the percentile belongs to.  Integerizing the
target with ``ceil`` is exact, because cumulative counts are integers.
With ``n_R >= 1``, ``1 <= thr <= n_R``, so that bin lies inside the
range; with ``n_R == 0`` the answer is the range's last bin.

Consecutive decisions of one application rarely move a percentile bin,
so :meth:`HistogramBank.percentile_bins_prefix` does not search from
scratch.  For every list of percentiles it is asked about, it keeps per
percentile and row a *cursor*: the bin it answered last, ``at`` (the
cumulative count up to and including that bin) and ``below`` (the
cumulative count before it).  An observation in bin ``b`` adds
``b <= cursor`` to ``at`` and ``b < cursor`` to ``below``, so both stay
exact.  Cumulative counts never decrease along a row, so the cursor is
the first bin reaching ``thr`` exactly when ``at >= thr > below``.
Cursors start at the range's last bin, and a row with ``n_R == 0`` has
never moved its cursor, so it is still the answer.  Only the cursors
that fail the check are searched again: the counts of their distinct
rows are summed end to end into one running total, so a single
:func:`numpy.searchsorted` finds every new bin, and the totals on either
side of it reseed ``at`` and ``below``.

Nested ranges
-------------
When the bin width is a power of two (so ``idle / width`` is exact) and
``R / width`` is an integer, a range-``R`` histogram is exactly the first
``R / width`` bins of any wider histogram with the same bin width: an
idle time lands in one of those bins if and only if it is below ``R``
(:func:`nests_exactly`).  A bank built with ``nested_ranges`` therefore
serves every such narrower range from its one count matrix; it only
keeps a separate Welford accumulator and in-range count per nested range
(updated for the observations that fall inside it).

All float arithmetic mirrors the scalar code operation for operation, so
a bank row and a scalar :class:`IdleTimeHistogram` that observe the same
idle times agree on every derived quantity down to the last bit — the
property the bank-equivalence test suite locks down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.histogram import IdleTimeHistogram
from repro.core.welford import Welford

def nests_exactly(range_minutes: float, bin_width_minutes: float) -> bool:
    """Whether a range's histogram is a bin prefix of every wider one.

    True when the bin width is a power of two (``idle / width`` is then
    exact, so bin membership never depends on rounding) and the range is
    a whole number of bins.  Any two ranges passing this test with one bin
    width can share a single :class:`HistogramBank` (module docstring).
    """
    mantissa, _ = math.frexp(bin_width_minutes)
    return mantissa == 0.5 and float(range_minutes / bin_width_minutes).is_integer()


def _replaced_bin_stat(
    mean: np.ndarray,
    m2: np.ndarray,
    nb: int | np.ndarray,
    old_values: np.ndarray,
    new_values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :meth:`Welford.replace` over ``nb``-value streams.

    Returns the replaced ``(mean, m2)``, ``nb`` broadcast against them.
    Mirrors the scalar remove-then-add sequence operation for operation
    so each element stays bit-identical to a scalar accumulator fed the
    same replacements.  With ``nb == 1``, remove() empties the
    accumulator and add() refills it with one value: the mean becomes
    the new value and m2 collapses to zero.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        # remove(old)
        old_mean = (nb * mean - old_values) / (nb - 1)
        m2 = m2 - (old_values - mean) * (old_values - old_mean)
        m2 = np.where(m2 < 0.0, 0.0, m2)
        # add(new)
        delta = new_values - old_mean
        mean = old_mean + delta / nb
        delta2 = new_values - mean
        m2 = m2 + delta * delta2
    if np.any(nb == 1):
        single = nb == 1
        mean = np.where(single, new_values, mean)
        m2 = np.where(single, 0.0, m2)
    return mean, m2


def _bin_count_cv(nb, mean: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Welford.cv of bin-count accumulators, elementwise (``nb`` broadcast)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cv = np.sqrt(m2 / nb) / np.abs(mean)
    # Same zero-mean convention as Welford.cv: an all-zero row is
    # perfectly regular (0.0); zero mean with residual variance is inf.
    zero_mean = mean == 0.0
    return np.where(zero_mean, np.where(m2 == 0.0, 0.0, np.inf), cv)


@dataclass(slots=True)
class _Cursors:
    """The percentile cursors of one percentile list (module docstring).

    The per-percentile arrays hold one entry per percentile; ``bin``,
    ``at`` and ``below`` one row per percentile and a column per bank row.
    """

    fractions: np.ndarray  #: ``q / 100`` per percentile, as a column
    ranges: np.ndarray  #: tracked-range index per percentile
    last_bin: np.ndarray  #: last bin of that range
    bin: np.ndarray  #: the bin answered last
    at: np.ndarray  #: cumulative count up to and including ``bin``
    below: np.ndarray  #: cumulative count before ``bin``


class HistogramBank:
    """Fixed-range idle-time histograms for a whole population of apps.

    Args:
        num_apps: Number of rows (applications) in the bank.
        range_minutes: Histogram range shared by every row; idle times at
            or beyond this value are counted as out of bounds.
        bin_width_minutes: Width of each bin in minutes.
        nested_ranges: Narrower ranges to track alongside (module
            docstring); each must pass :func:`nests_exactly`.
    """

    def __init__(
        self,
        num_apps: int,
        range_minutes: float = 240.0,
        bin_width_minutes: float = 1.0,
        nested_ranges: Sequence[float] = (),
    ) -> None:
        if num_apps < 0:
            raise ValueError("number of applications must be non-negative")
        if range_minutes <= 0:
            raise ValueError("histogram range must be positive")
        if bin_width_minutes <= 0:
            raise ValueError("bin width must be positive")
        if range_minutes < bin_width_minutes:
            raise ValueError("histogram range must cover at least one bin")
        self._num_apps = int(num_apps)
        self._range_minutes = float(range_minutes)
        self._bin_width = float(bin_width_minutes)
        self._num_bins = int(round(self._range_minutes / self._bin_width))
        # Bin counts plus one overflow bin for out-of-bounds observations
        # (see _record); nothing reads the overflow bin.
        self._counts = np.zeros((self._num_apps, self._num_bins + 1), dtype=np.int64)
        self._oob_count = np.zeros(self._num_apps, dtype=np.int64)
        self._total_count = np.zeros(self._num_apps, dtype=np.int64)
        self._row_indices = np.arange(self._num_apps, dtype=np.intp)
        # Lowest row index with any out-of-bounds observation: every row
        # below this bound has a zero OOB count, which lets callers skip
        # OOB-dependent work for row prefixes that never went out of range.
        self._min_oob_row = self._num_apps
        # Per-row Welford state over the bin counts.  A fresh scalar
        # histogram seeds its accumulator with num_bins zeros, which yields
        # exactly (count=num_bins, mean=0, m2=0); the count never changes
        # afterwards because every update is a replace.
        # One state row per tracked range, narrowest first and the bank's
        # own range last; every nested range is seeded the same way.
        nested = sorted({float(r) for r in nested_ranges} - {self._range_minutes})
        for r in nested:
            if not (
                0 < r < self._range_minutes
                and nests_exactly(r, self._bin_width)
                and nests_exactly(self._range_minutes, self._bin_width)
            ):
                raise ValueError(
                    f"range {r:g} does not nest exactly in range "
                    f"{self._range_minutes:g} with bin width {self._bin_width:g}"
                )
        self._ranges = (*nested, self._range_minutes)
        self._range_index = {r: i for i, r in enumerate(self._ranges)}
        self._range_bins = np.array(
            [round(r / self._bin_width) for r in self._ranges], dtype=np.int64
        )
        self._range_of_bins = {int(nb): i for i, nb in enumerate(self._range_bins)}
        self._stat_mean = np.zeros((len(self._ranges), self._num_apps), dtype=np.float64)
        self._stat_m2 = np.zeros_like(self._stat_mean)
        self._bin_mean = self._stat_mean[-1]
        self._bin_m2 = self._stat_m2[-1]
        # Per-row observation count inside each tracked range, same order.
        self._range_count = np.zeros((len(self._ranges), self._num_apps), dtype=np.int64)
        # Percentile cursors per queried (percentiles, num_bins) list.
        self._cursors: dict[tuple, _Cursors] = {}

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_apps(self) -> int:
        """Number of rows (applications) in the bank."""
        return self._num_apps

    @property
    def range_minutes(self) -> float:
        """Histogram range in minutes (shared by every row)."""
        return self._range_minutes

    @property
    def bin_width_minutes(self) -> float:
        """Bin width in minutes."""
        return self._bin_width

    @property
    def num_bins(self) -> int:
        """Number of bins per row."""
        return self._num_bins

    @property
    def oob_count(self) -> np.ndarray:
        """Per-row out-of-bounds counters (a live view; do not mutate)."""
        return self._oob_count

    @property
    def total_count(self) -> np.ndarray:
        """Per-row total observation counters (a live view; do not mutate)."""
        return self._total_count

    @property
    def in_bounds_count(self) -> np.ndarray:
        """Per-row number of observations recorded inside the range."""
        return self._total_count - self._oob_count

    @property
    def min_oob_row(self) -> int:
        """Lowest row index with any OOB observation (``num_apps`` if none)."""
        return self._min_oob_row

    @property
    def metadata_bytes(self) -> int:
        """Approximate per-application metadata size (4 bytes per bin)."""
        return 4 * self._num_bins

    def num_bins_for(self, range_minutes: float | None = None) -> int:
        """Bin count of the bank's own range or of one of its nested ranges."""
        return int(self._range_bins[self._index(range_minutes)])

    def _index(self, range_minutes: float | None) -> int:
        """State row of one tracked range (default: the bank's own)."""
        if range_minutes is None:
            return len(self._ranges) - 1
        try:
            return self._range_index[range_minutes]
        except KeyError:
            raise ValueError(f"range {range_minutes:g} is not tracked by this bank") from None

    def counts_row(self, row: int) -> np.ndarray:
        """Copy of one row's per-bin counts."""
        return self._counts[row, : self._num_bins].copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HistogramBank(apps={self._num_apps}, range={self._range_minutes}min, "
            f"bins={self._num_bins})"
        )

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def observe(self, rows: np.ndarray, idle_times_minutes: np.ndarray) -> np.ndarray:
        """Record one idle time for each of the given rows.

        Args:
            rows: Unique row indices (one observation per row per call).
            idle_times_minutes: Idle time observed for each row.

        Returns:
            Boolean array: True where the idle time landed inside the
            histogram range, False where it was counted as out of bounds.
        """
        rows = np.asarray(rows, dtype=np.intp)
        idle = np.asarray(idle_times_minutes, dtype=np.float64)
        if np.any(idle < 0):
            raise ValueError("idle time must be non-negative")
        return self._record(rows, idle, prefix=False)

    def observe_prefix(self, idle_times_minutes: np.ndarray) -> np.ndarray:
        """Record one idle time for each of the first ``len(idle)`` rows.

        Prefix fast path of :meth:`observe` used by the grouped-stepping
        loop: row ``k`` receives ``idle_times_minutes[k]``, and the caller
        guarantees non-negative idle times (bank stepping derives them
        from monotonicity-checked timestamps).  The per-element arithmetic
        is identical to :meth:`observe`; only the row-index bookkeeping is
        cheaper.

        Returns:
            Boolean array: True where the idle time landed inside the
            histogram range.
        """
        idle = np.asarray(idle_times_minutes, dtype=np.float64)
        return self._record(self._row_indices[: idle.size], idle, prefix=True)

    def _record(self, rows: np.ndarray, idle: np.ndarray, *, prefix: bool) -> np.ndarray:
        """Add idle time ``idle[i]`` to row ``rows[i]``.

        Gathers each observation's previous bin count, bumps it, replays
        the exact scalar Welford replace for every tracked range the
        observation falls inside, and bumps the in-range counts and every
        percentile cursor's bracketing counts (module docstring).  An
        out-of-bounds observation goes to the overflow bin ``num_bins``,
        which lies outside every range and past every cursor, so one
        scatter serves every row and the masks drop it from the rest.

        Args:
            rows: Row index per observation.
            idle: Non-negative idle time per observation.
            prefix: True when (and only when) ``rows`` is exactly
                ``0..len(rows)-1``, enabling in-place slice updates of the
                per-row state.

        Returns:
            Boolean array: True where the idle time landed inside the
            histogram range.
        """
        columns = slice(None, rows.size) if prefix else rows
        in_bounds = idle < self._range_minutes
        self._total_count[columns] += 1
        everything_in = in_bounds.all()
        if not everything_in:
            out = ~in_bounds
            self._oob_count[columns] += out
            first = int(np.argmax(out)) if prefix else int(rows[out].min())
            self._min_oob_row = min(self._min_oob_row, first)
            idle = np.where(in_bounds, idle, 0.0)
        # Same truncation as the scalar bin_index: int() toward zero.
        bins = np.minimum((idle / self._bin_width).astype(np.int64), self._num_bins - 1)
        if not everything_in:
            bins[out] = self._num_bins
        flat = self._counts.reshape(-1)
        positions = rows * (self._num_bins + 1) + bins
        old_counts = flat[positions]
        flat[positions] = old_counts + 1
        old = old_counts.astype(np.float64)
        # A nested range sees exactly the observations in its leading bins,
        # and the count it replaces is the wide bin's (the bins coincide).
        # Every range updates at once and keeps its old state where the
        # observation fell outside it.
        nb = self._range_bins[:, None]
        inside = bins < nb
        mean = self._stat_mean[:, columns]
        m2 = self._stat_m2[:, columns]
        new_mean, new_m2 = _replaced_bin_stat(mean, m2, nb, old, old + 1.0)
        if prefix:
            np.copyto(mean, new_mean, where=inside)
            np.copyto(m2, new_m2, where=inside)
        else:
            self._stat_mean[:, rows] = np.where(inside, new_mean, mean)
            self._stat_m2[:, rows] = np.where(inside, new_m2, m2)
        self._range_count[:, columns] += inside
        for cursors in self._cursors.values():
            cursor = cursors.bin[:, columns]
            cursors.at[:, columns] += bins <= cursor
            cursors.below[:, columns] += bins < cursor
        return in_bounds

    # ------------------------------------------------------------------ #
    # Derived statistics
    # ------------------------------------------------------------------ #
    @property
    def oob_fraction(self) -> np.ndarray:
        """Per-row fraction of observations that were out of bounds.

        Rows with no observations report 0.0, like the scalar histogram.
        """
        denominator = np.maximum(self._total_count, 1)
        return np.where(
            self._total_count > 0, self._oob_count / denominator, 0.0
        )

    @property
    def bin_count_cv(self) -> np.ndarray:
        """Per-row coefficient of variation of the bin counts."""
        return self.bin_count_cv_prefix(self._num_apps)

    def bin_count_cv_prefix(self, n: int) -> np.ndarray:
        """CV of the bin counts for the first ``n`` rows only."""
        return _bin_count_cv(self._num_bins, self._bin_mean[:n], self._bin_m2[:n])

    def bin_count_cvs_prefix(self, n: int) -> np.ndarray:
        """CVs of the first ``n`` rows for every tracked range at once.

        Shape ``(ranges, n)``: the nested ranges in ascending order, then
        the bank's own range (whose row is :meth:`bin_count_cv_prefix`).
        """
        return _bin_count_cv(
            self._range_bins[:, None], self._stat_mean[:, :n], self._stat_m2[:, :n]
        )

    def in_bounds_prefix(self, n: int) -> np.ndarray:
        """In-bounds counts of the first ``n`` rows for every tracked range.

        Shape ``(ranges, n)`` in :meth:`bin_count_cvs_prefix` order: a
        range's in-bounds count is its number of observations inside it.
        """
        return self._range_count[:, :n].copy()

    def head_tail_cutoffs(
        self, rows: np.ndarray, head_percentile: float, tail_percentile: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Head (rounded down) and tail (rounded up) cutoffs for row subsets.

        Matches :meth:`IdleTimeHistogram.head_cutoff` /
        :meth:`~IdleTimeHistogram.tail_cutoff` bit for bit: the weighted
        percentile bin is located on the cumulative in-bounds counts, the
        head maps to the bin's lower edge and the tail to its upper edge.

        Raises:
            ValueError: When a percentile is outside ``[0, 100]`` or a
                selected row has no in-bounds observations.
        """
        if not 0 <= head_percentile <= 100 or not 0 <= tail_percentile <= 100:
            raise ValueError("percentile must be within [0, 100]")
        rows = np.asarray(rows, dtype=np.intp)
        in_bounds = self._total_count[rows] - self._oob_count[rows]
        if np.any(in_bounds == 0):
            raise ValueError("histogram has no in-bounds observations")
        cumulative = np.cumsum(self._counts[rows, : self._num_bins], axis=1)

        def percentile_bin(q: float) -> np.ndarray:
            target = np.maximum(q / 100.0 * in_bounds, 1e-12)
            index = np.count_nonzero(cumulative < target[:, None], axis=1)
            return np.minimum(index, self._num_bins - 1)

        head = percentile_bin(head_percentile) * self._bin_width
        tail = (percentile_bin(tail_percentile) + 1) * self._bin_width
        return head, tail

    def head_tail_cutoffs_prefix(
        self,
        n: int,
        head_percentile: float,
        tail_percentile: float,
        in_bounds: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Head/tail cutoffs for the first ``n`` rows, without validation.

        The hot path of the banked policy, answered by
        :meth:`percentile_bins_prefix`.  No per-call argument checks — the
        policy validates its percentiles once.  Rows with no in-bounds
        observations yield finite garbage instead of raising; the caller
        masks them out.

        Args:
            n: Number of leading rows to compute cutoffs for.
            head_percentile: Percentile mapped to its bin's lower edge.
            tail_percentile: Percentile mapped to its bin's upper edge.
            in_bounds: Optional precomputed per-row in-bounds counts for
                the first ``n`` rows, to avoid recomputing them.
        """
        bins = self.percentile_bins_prefix(
            n, (head_percentile, tail_percentile), in_bounds
        )
        head = bins[0] * self._bin_width
        tail = (bins[1] + 1) * self._bin_width
        return head, tail

    def percentile_bins_prefix(
        self,
        n: int,
        percentiles: np.ndarray | tuple[float, ...],
        in_bounds: np.ndarray | None = None,
        num_bins: np.ndarray | None = None,
    ) -> np.ndarray:
        """Percentile bin indices for the first ``n`` rows, without validation.

        The batched hot path, used by the sweep engine to record every
        distinct cutoff percentile of a policy family in one pass and by
        :meth:`head_tail_cutoffs_prefix`.  The first call for a given
        ``(percentiles, num_bins)`` list creates its percentile cursors;
        every call answers from them and searches again only the cursors
        that no longer bracket their target (module docstring).  The
        target is ``(q / 100) * in_bounds`` floored at 1e-12, integerized
        with ``ceil``.  Rows with no in-bounds observations yield finite
        garbage instead of raising; the caller masks them out.

        Args:
            n: Number of leading rows to compute bins for.
            percentiles: Percentile values in ``[0, 100]``.
            in_bounds: Optional precomputed per-row in-bounds counts, shape
                ``(n,)``, or ``(len(percentiles), n)`` when the percentiles
                belong to different nested ranges (default: each row's
                count inside each percentile's range).
            num_bins: Optional per-percentile bin count of the range each
                percentile belongs to, one of the tracked ranges' (default:
                the bank's own).

        Returns:
            Integer array of shape ``(len(percentiles), n)``: the bin
            index of each percentile per row, clipped to the range's last
            bin.  The head cutoff is ``bin * bin_width`` and the tail
            cutoff ``(bin + 1) * bin_width``.

        Raises:
            ValueError: When a ``num_bins`` entry matches no tracked range.
        """
        cursors = self._cursors_for(percentiles, num_bins)
        counted = self._range_count[cursors.ranges, :n]
        if in_bounds is None:
            in_bounds = counted
        target = np.maximum(cursors.fractions * in_bounds, 1e-12)
        # For integer counts, ``at >= ceil(target)`` is ``at >= target``
        # and ``ceil(target) > below`` is ``target > below``.
        stale = (cursors.at[:, :n] < target) | (cursors.below[:, :n] >= target)
        stale &= counted > 0
        if stale.any():
            self._search(cursors, stale, target)
        return cursors.bin[:, :n].copy()

    def _cursors_for(
        self, percentiles: np.ndarray | tuple[float, ...], num_bins: np.ndarray | None
    ) -> _Cursors:
        """The cursors of one percentile list, created at the last bin."""
        qs = np.asarray(percentiles, dtype=np.float64)
        bins = None if num_bins is None else np.asarray(num_bins, dtype=np.int64)
        key = (qs.tobytes(), None if bins is None else bins.tobytes())
        cursors = self._cursors.get(key)
        if cursors is not None:
            return cursors
        if bins is None:
            ranges = np.full(qs.size, len(self._ranges) - 1, dtype=np.intp)
        else:
            try:
                ranges = np.array(
                    [self._range_of_bins[nb] for nb in bins.tolist()], dtype=np.intp
                )
            except KeyError as error:
                raise ValueError(
                    f"{error.args[0]} bins is not a range tracked by this bank"
                ) from None
        last_bin = self._range_bins[ranges]
        last_bin -= 1
        # At the last bin of a range, the cumulative count is the row's
        # in-range count and the count before it excludes that bin.
        at = self._range_count[ranges]
        cursors = _Cursors(
            fractions=qs[:, None] / 100.0,
            ranges=ranges,
            last_bin=last_bin,
            bin=np.repeat(last_bin[:, None], self._num_apps, axis=1),
            at=at,
            below=at - self._counts[:, last_bin].T,
        )
        self._cursors[key] = cursors
        return cursors

    def _search(self, cursors: _Cursors, stale: np.ndarray, target: np.ndarray) -> None:
        """Move the stale cursors to the first bin reaching their target.

        The count rows of the distinct stale rows are summed end to end
        into one running total, after a leading zero, so one
        :func:`numpy.searchsorted` serves them all: a row's cumulative
        counts are its stretch of the total minus the entry before it.  A
        threshold beyond its row's in-range count lands past the range
        and is clipped to the range's last bin.
        """
        pair, row = np.nonzero(stale)
        missed = np.zeros(stale.shape[1], dtype=bool)
        missed[row] = True
        rows = np.flatnonzero(missed)
        stride = self._num_bins + 1
        total = np.zeros(rows.size * stride + 1, dtype=np.int64)
        # Gathered straight into the total's buffer (``mode="clip"`` skips
        # the buffered copy ``take`` makes by default; the rows are valid),
        # then summed in place.
        np.take(
            self._counts, rows, axis=0, out=total[1:].reshape(rows.size, stride), mode="clip"
        )
        np.cumsum(total, out=total)
        start = np.cumsum(missed)[row]
        start -= 1
        start *= stride
        before = total[start]
        threshold = np.ceil(target[pair, row]).astype(np.int64)
        threshold += before
        index = np.searchsorted(total, threshold, side="left")
        index -= start + 1
        np.minimum(index, cursors.last_bin[pair], out=index)
        position = start + index
        cursors.bin[pair, row] = index
        cursors.below[pair, row] = total[position] - before
        cursors.at[pair, row] = total[position + 1] - before

    # ------------------------------------------------------------------ #
    # Interop with the scalar histogram
    # ------------------------------------------------------------------ #
    def extract_row(self, row: int, range_minutes: float | None = None) -> IdleTimeHistogram:
        """Clone one row into a scalar :class:`IdleTimeHistogram`.

        The clone carries the row's exact Welford state (not a recomputed
        one), so a scalar policy continuing from the clone makes the same
        decisions the bank would have made.  ``range_minutes`` clones a
        nested range's histogram instead: its leading bins, with every
        other observation counted out of bounds.
        """
        index = self._index(range_minutes)
        nb = int(self._range_bins[index])
        return IdleTimeHistogram.from_state(
            self._counts[row, :nb],
            oob_count=int(self._total_count[row] - self._range_count[index, row]),
            range_minutes=self._ranges[index],
            bin_width_minutes=self._bin_width,
            bin_stats=Welford(
                count=nb,
                mean=float(self._stat_mean[index, row]),
                m2=float(self._stat_m2[index, row]),
            ),
        )
