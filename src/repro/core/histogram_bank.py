"""Struct-of-arrays bank of idle-time histograms (one row per application).

:class:`~repro.core.histogram.IdleTimeHistogram` keeps one application's
idle-time distribution; the banked simulation engine needs the state of
*every* application at once so that one numpy operation can update or
query all of them.  :class:`HistogramBank` is the struct-of-arrays twin:

* per-row bin counts for a 2D ``(num_apps, num_bins)`` layout, stored as
  **running cumulative counts with a per-row offset baked in** (see
  below);
* per-row out-of-bounds (OOB) and total counters;
* per-row Welford accumulators over the *bin counts* (the
  representativeness CV signal of the hybrid policy), maintained with the
  exact ``remove``/``add`` update sequence of
  :class:`~repro.core.welford.Welford.replace` so every row's statistics
  are bit-identical to a scalar histogram fed the same observations;
* vectorized head/tail percentile cutoffs over arbitrary row subsets and
  over row prefixes (the hot path of the banked policy).

Storage layout
--------------
The bank stores ``cum[r, b] = offset[r] + sum(counts[r, :b + 1])`` with
``offset[r] = r * 2**32``.  Recording an observation in bin ``b`` turns
into ``cum[r, b:] += 1`` (a broadcast mask add), individual bin counts
are recovered as adjacent differences, and — the point of the layout —
the whole matrix read row-major is strictly sorted, so locating the
percentile bin of every row is **one** exact integer
:func:`numpy.searchsorted` over a flat view instead of a fresh
``cumsum`` plus broadcast comparisons per decision step.  The percentile
targets are integerized with ``ceil`` first, which is exact: cumulative
counts are integers, so ``count(cum < target) == count(cum < ceil(target))``.

Nested ranges
-------------
When the bin width is a power of two (so ``idle / width`` is exact) and
``R / width`` is an integer, a range-``R`` histogram is exactly the first
``R / width`` bins of any wider histogram with the same bin width: an
idle time lands in one of those bins if and only if it is below ``R``
(:func:`nests_exactly`).  A bank built with ``nested_ranges`` therefore
serves every such narrower range from its one cumulative matrix; it only
keeps a separate Welford accumulator per nested range (updated for the
observations that fall inside it).

All float arithmetic mirrors the scalar code operation for operation, so
a bank row and a scalar :class:`IdleTimeHistogram` that observe the same
idle times agree on every derived quantity down to the last bit — the
property the bank-equivalence test suite locks down.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.histogram import IdleTimeHistogram
from repro.core.welford import Welford

#: Spacing of the per-row offsets baked into the cumulative matrix; must
#: exceed any single row's total in-bounds count (2**32 observations of
#: one application is far beyond any trace horizon).
_ROW_OFFSET_SPACING = np.int64(1) << 32


def nests_exactly(range_minutes: float, bin_width_minutes: float) -> bool:
    """Whether a range's histogram is a bin prefix of every wider one.

    True when the bin width is a power of two (``idle / width`` is then
    exact, so bin membership never depends on rounding) and the range is
    a whole number of bins.  Any two ranges passing this test with one bin
    width can share a single :class:`HistogramBank` (module docstring).
    """
    mantissa, _ = math.frexp(bin_width_minutes)
    return mantissa == 0.5 and float(range_minutes / bin_width_minutes).is_integer()


def _replace_bin_stat_prefix(
    mean: np.ndarray,
    m2: np.ndarray,
    nb: int,
    old_values: np.ndarray,
    new_values: np.ndarray,
) -> None:
    """:func:`_replaced_bin_stat` for leading rows, in place.

    ``mean`` and ``m2`` are slice views of the rows to update.  Same
    per-element arithmetic, operating on the views instead of gathered
    copies (``maximum(m2, 0)`` equals the scalar ``m2 = 0 if m2 < 0 else
    m2`` guard — no NaNs can appear here).
    """
    if nb == 1:
        mean[:] = new_values
        m2[:] = 0.0
        return
    # remove(old)
    old_mean = (nb * mean - old_values) / (nb - 1)
    np.subtract(m2, (old_values - mean) * (old_values - old_mean), out=m2)
    np.maximum(m2, 0.0, out=m2)
    # add(new)
    delta = new_values - old_mean
    np.add(old_mean, delta / nb, out=old_mean)
    delta2 = new_values - old_mean
    np.add(m2, delta * delta2, out=m2)
    mean[:] = old_mean


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
        # Cumulative-count storage (module docstring): row r starts at its
        # baked-in offset and each in-bounds observation in bin b adds one
        # to cum[r, b:].
        self._offsets = np.arange(self._num_apps, dtype=np.int64) * _ROW_OFFSET_SPACING
        self._cum = np.repeat(self._offsets[:, None], self._num_bins, axis=1)
        self._row_starts = np.arange(self._num_apps, dtype=np.int64) * self._num_bins
        self._bin_grid = np.arange(self._num_bins, dtype=np.int64)
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
        self._stat_mean = np.zeros((len(self._ranges), self._num_apps), dtype=np.float64)
        self._stat_m2 = np.zeros_like(self._stat_mean)
        self._bin_mean = self._stat_mean[-1]
        self._bin_m2 = self._stat_m2[-1]

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
        """One row's per-bin counts (reconstructed from the cumulative row)."""
        return np.diff(self._cum[row], prepend=self._offsets[row])

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
        in_bounds = idle < self._range_minutes
        self._total_count[rows] += 1
        rows_oob = rows[~in_bounds]
        if rows_oob.size:
            self._oob_count[rows_oob] += 1
            self._min_oob_row = min(self._min_oob_row, int(rows_oob.min()))
        rows_in = rows[in_bounds]
        if rows_in.size:
            # Same truncation as the scalar bin_index: int() toward zero.
            bins = np.minimum(
                (idle[in_bounds] / self._bin_width).astype(np.int64),
                self._num_bins - 1,
            )
            self._record_bins(rows_in, bins, prefix=False)
        return in_bounds

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
        n = int(idle.size)
        in_bounds = idle < self._range_minutes
        self._total_count[:n] += 1
        if in_bounds.all():
            rows_in = self._row_indices[:n]
            idle_in = idle
            prefix = True
        else:
            oob = ~in_bounds
            self._oob_count[:n][oob] += 1
            self._min_oob_row = min(self._min_oob_row, int(np.argmax(oob)))
            rows_in = self._row_indices[:n][in_bounds]
            idle_in = idle[in_bounds]
            prefix = False
        if rows_in.size:
            bins = np.minimum(
                (idle_in / self._bin_width).astype(np.int64), self._num_bins - 1
            )
            self._record_bins(rows_in, bins, prefix=prefix)
        return in_bounds

    def _record_bins(self, rows: np.ndarray, bins: np.ndarray, *, prefix: bool) -> None:
        """Add one observation to bin ``bins[i]`` of row ``rows[i]``.

        Reads the previous bin count from adjacent cumulative differences
        (the baked-in row offsets cancel, except for bin 0 where the left
        neighbour *is* the offset), updates the Welford statistics with the
        exact scalar replace sequence, then bumps the cumulative suffixes.

        Args:
            rows: Row index per observation.
            bins: Bin index per observation.
            prefix: True when (and only when) ``rows`` is exactly
                ``0..len(rows)-1``, enabling in-place slice updates with no
                gather/scatter.
        """
        cum = self._cum
        right = cum[rows, bins]
        left = np.where(
            bins > 0, cum[rows, np.maximum(bins - 1, 0)], self._offsets[rows]
        )
        old = (right - left).astype(np.float64)
        new = old + 1.0
        mask = self._bin_grid >= bins[:, None]
        k = rows.size
        if prefix:
            _replace_bin_stat_prefix(
                self._bin_mean[:k], self._bin_m2[:k], self._num_bins, old, new
            )
            cum[:k] += mask
        else:
            self._bin_mean[rows], self._bin_m2[rows] = _replaced_bin_stat(
                self._bin_mean[rows], self._bin_m2[rows], self._num_bins, old, new
            )
            cum[rows] += mask
        if len(self._ranges) > 1:
            # A nested range sees exactly the observations in its leading
            # bins, and the count it replaces is the wide bin's (the bins
            # coincide).  All nested ranges update at once; each keeps its
            # old state where the observation fell outside it.
            columns = slice(None, k) if prefix else rows
            nb = self._range_bins[:-1, None]
            mean = self._stat_mean[:-1, columns]
            m2 = self._stat_m2[:-1, columns]
            new_mean, new_m2 = _replaced_bin_stat(mean, m2, nb, old, new)
            inside = bins < nb
            self._stat_mean[:-1, columns] = np.where(inside, new_mean, mean)
            self._stat_m2[:-1, columns] = np.where(inside, new_m2, m2)

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
        range's in-bounds count is its last bin's cumulative count.
        """
        return (self._cum[:n, self._range_bins - 1] - self._offsets[:n, None]).T

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
        cumulative = self._cum[rows] - self._offsets[rows, None]

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

        The hot path of the banked policy: one exact integer
        ``searchsorted`` over the flat cumulative view locates both
        percentile bins of every row (see the module docstring for why
        this is exact).  No per-call argument checks — the policy
        validates its percentiles once.  Rows with no in-bounds
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

        Locates the weighted-percentile bin of every (percentile, row)
        pair with **one** exact integer :func:`numpy.searchsorted` over
        the flat cumulative view — the batched form of the hot path, used
        by the sweep engine to record every distinct cutoff percentile of
        a policy family in one pass.  Same per-element arithmetic as
        :meth:`head_tail_cutoffs_prefix` (which delegates here): target is
        ``(q / 100) * in_bounds`` floored at 1e-12, integerized with
        ``ceil`` (exact, the cumulative counts are integers).  Rows with
        no in-bounds observations yield finite garbage instead of
        raising; the caller masks them out.

        Args:
            n: Number of leading rows to compute bins for.
            percentiles: Percentile values in ``[0, 100]``.
            in_bounds: Optional precomputed per-row in-bounds counts, shape
                ``(n,)``, or ``(len(percentiles), n)`` when the percentiles
                belong to different nested ranges.
            num_bins: Optional per-percentile bin count of the range each
                percentile belongs to (default: the bank's own).  A nested
                range's cumulative counts are the leading bins of the wide
                row and never exceed its in-bounds count beyond them, so
                the one search stays exact once clipped to that range.

        Returns:
            Integer array of shape ``(len(percentiles), n)``: the bin
            index of each percentile per row, clipped to the last bin.
            The head cutoff is ``bin * bin_width`` and the tail cutoff
            ``(bin + 1) * bin_width``.
        """
        if in_bounds is None:
            in_bounds = self._total_count[:n] - self._oob_count[:n]
        flat = self._cum[:n].reshape(-1)
        qs = np.asarray(percentiles, dtype=np.float64)
        target = np.maximum(qs[:, None] / 100.0 * in_bounds, 1e-12)
        threshold = np.ceil(target).astype(np.int64) + self._offsets[:n]
        index = np.searchsorted(flat, threshold.reshape(-1), side="left")
        index = index.reshape(qs.size, n) - self._row_starts[:n]
        if num_bins is None:
            return np.minimum(index, self._num_bins - 1)
        return np.minimum(index, np.asarray(num_bins, dtype=np.int64)[:, None] - 1)

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
        counts = self.counts_row(row)[:nb]
        return IdleTimeHistogram.from_state(
            counts,
            oob_count=int(self._total_count[row]) - int(counts.sum()),
            range_minutes=self._ranges[index],
            bin_width_minutes=self._bin_width,
            bin_stats=Welford(
                count=nb,
                mean=float(self._stat_mean[index, row]),
                m2=float(self._stat_m2[index, row]),
            ),
        )
