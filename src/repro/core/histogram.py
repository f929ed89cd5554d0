"""Range-limited idle-time histogram (Section 4.2 of the paper).

The histogram is the centerpiece of the hybrid policy.  Each application
gets one histogram whose bins count how many idle times (ITs) of the
corresponding length have been observed.  The paper uses 1-minute bins and
a configurable range (4 hours by default, i.e. a bucket of 240 integers,
960 bytes per application in the production implementation).  Idle times
longer than the range are recorded only as an *out-of-bounds* (OOB) count.

From the in-bounds distribution the policy derives:

* the **head** (5th percentile by default), used as the pre-warming window;
* the **tail** (99th percentile by default), used to bound the keep-alive
  window.

Percentiles that fall inside a bin are rounded *down* to the bin's lower
edge for the head and *up* to the bin's upper edge for the tail, exactly as
described in the paper, so the derived windows are conservative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.welford import Welford


@dataclass
class HistogramSnapshot:
    """Immutable summary of a histogram at a point in time."""

    counts: np.ndarray
    oob_count: int
    total_count: int
    bin_width_minutes: float

    @property
    def in_bounds_count(self) -> int:
        return self.total_count - self.oob_count


class IdleTimeHistogram:
    """Fixed-range histogram of idle times with 1-minute (configurable) bins.

    Args:
        range_minutes: Total range covered by the histogram; idle times at
            or beyond this value are counted as out of bounds.
        bin_width_minutes: Width of each bin in minutes.

    The histogram purposefully keeps only integers (bin counts plus an OOB
    counter) so that its memory footprint matches the paper's production
    figure of 240 four-byte integers per application.
    """

    def __init__(self, range_minutes: float = 240.0, bin_width_minutes: float = 1.0) -> None:
        if range_minutes <= 0:
            raise ValueError("histogram range must be positive")
        if bin_width_minutes <= 0:
            raise ValueError("bin width must be positive")
        if range_minutes < bin_width_minutes:
            raise ValueError("histogram range must cover at least one bin")
        self._range_minutes = float(range_minutes)
        self._bin_width = float(bin_width_minutes)
        self._num_bins = int(round(self._range_minutes / self._bin_width))
        self._counts = np.zeros(self._num_bins, dtype=np.int64)
        self._oob_count = 0
        self._total_count = 0
        # Welford accumulator over the *bin counts*, maintained incrementally
        # so the representativeness CV check is O(1) per update.
        self._bin_stats = Welford()
        self._bin_stats.update_many([0.0] * self._num_bins)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def range_minutes(self) -> float:
        """Histogram range in minutes."""
        return self._range_minutes

    @property
    def bin_width_minutes(self) -> float:
        """Bin width in minutes."""
        return self._bin_width

    @property
    def num_bins(self) -> int:
        """Number of bins."""
        return self._num_bins

    @property
    def counts(self) -> np.ndarray:
        """Copy of the per-bin counts."""
        return self._counts.copy()

    @property
    def oob_count(self) -> int:
        """Number of idle times that fell beyond the histogram range."""
        return self._oob_count

    @property
    def total_count(self) -> int:
        """Total number of idle times observed (in bounds + out of bounds)."""
        return self._total_count

    @property
    def in_bounds_count(self) -> int:
        """Number of idle times recorded inside the histogram range."""
        return self._total_count - self._oob_count

    @property
    def oob_fraction(self) -> float:
        """Fraction of observed idle times that were out of bounds."""
        if self._total_count == 0:
            return 0.0
        return self._oob_count / self._total_count

    @property
    def metadata_bytes(self) -> int:
        """Approximate per-application metadata size (4 bytes per bin)."""
        return 4 * self._num_bins

    def __len__(self) -> int:
        return self._total_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IdleTimeHistogram(range={self._range_minutes}min, "
            f"bins={self._num_bins}, observed={self._total_count}, "
            f"oob={self._oob_count})"
        )

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def bin_index(self, idle_time_minutes: float) -> int | None:
        """Bin index for an idle time, or ``None`` when it is out of bounds."""
        if idle_time_minutes < 0:
            raise ValueError("idle time must be non-negative")
        if idle_time_minutes >= self._range_minutes:
            return None
        return min(int(idle_time_minutes / self._bin_width), self._num_bins - 1)

    def observe(self, idle_time_minutes: float) -> bool:
        """Record one idle time.

        Returns:
            True when the idle time landed inside the histogram range,
            False when it was counted as out of bounds.
        """
        index = self.bin_index(idle_time_minutes)
        self._total_count += 1
        if index is None:
            self._oob_count += 1
            return False
        old = float(self._counts[index])
        self._counts[index] += 1
        self._bin_stats.replace(old, old + 1.0)
        return True

    def observe_many(self, idle_times_minutes: Iterable[float]) -> int:
        """Record several idle times; returns how many were in bounds."""
        in_bounds = 0
        for value in idle_times_minutes:
            if self.observe(value):
                in_bounds += 1
        return in_bounds

    def reset(self) -> None:
        """Forget every observation."""
        self._counts[:] = 0
        self._oob_count = 0
        self._total_count = 0
        self._bin_stats = Welford()
        self._bin_stats.update_many([0.0] * self._num_bins)

    def decay(self, factor: float = 0.5) -> None:
        """Multiply every bin count by ``factor`` (integer floor).

        The production implementation keeps daily histograms and can weight
        recent days more heavily; decaying is the in-memory analogue that
        lets the histogram track regime changes without a full reset.
        """
        if not 0 <= factor <= 1:
            raise ValueError("decay factor must be within [0, 1]")
        self._counts = np.floor(self._counts * factor).astype(np.int64)
        self._oob_count = int(round(self._oob_count * factor))
        self._total_count = int(self._counts.sum()) + self._oob_count
        self._bin_stats = Welford.from_values(self._counts.astype(float))

    # ------------------------------------------------------------------ #
    # Derived statistics
    # ------------------------------------------------------------------ #
    @property
    def bin_count_cv(self) -> float:
        """Coefficient of variation of the bin counts.

        A histogram with one dominant bin (a strongly concentrated idle-time
        pattern) has a high CV; a flat histogram has CV 0.  The policy uses
        this as its representativeness signal.
        """
        return self._bin_stats.cv

    def is_empty(self) -> bool:
        """True when nothing has been observed yet."""
        return self._total_count == 0

    def percentile(self, q: float, *, rounding: str = "nearest") -> float:
        """Weighted percentile of the in-bounds idle-time distribution.

        Args:
            q: Percentile in ``[0, 100]``.
            rounding: ``"down"`` rounds to the lower edge of the bin holding
                the percentile (used for the head cutoff), ``"up"`` rounds to
                the upper edge (used for the tail cutoff), ``"nearest"``
                returns the bin midpoint.

        Returns:
            The percentile value in minutes.  Raises ``ValueError`` when the
            histogram holds no in-bounds observations.
        """
        if rounding not in ("down", "up", "nearest"):
            raise ValueError(f"unknown rounding mode: {rounding!r}")
        (index,) = self.percentile_bins((q,)).tolist()
        lower = index * self._bin_width
        upper = (index + 1) * self._bin_width
        if rounding == "down":
            return lower
        if rounding == "up":
            return upper
        return (lower + upper) / 2.0

    def percentile_bins(self, percentiles: Sequence[float]) -> np.ndarray:
        """Bin index holding each weighted percentile, from one cumulative sum.

        The bin of percentile ``q`` is the first whose cumulative count
        reaches ``q / 100 * in_bounds`` (floored at 1e-12), clipped to the
        last bin: its lower edge is the head cutoff, its upper edge the
        tail cutoff.

        Raises:
            ValueError: When a percentile is outside ``[0, 100]`` or the
                histogram holds no in-bounds observations.
        """
        if not all(0 <= q <= 100 for q in percentiles):
            raise ValueError("percentile must be within [0, 100]")
        in_bounds = self.in_bounds_count
        if in_bounds == 0:
            raise ValueError("histogram has no in-bounds observations")
        targets = np.asarray(percentiles, dtype=np.float64) / 100.0 * in_bounds
        index = np.searchsorted(
            np.cumsum(self._counts), np.maximum(targets, 1e-12), side="left"
        )
        return np.minimum(index, self._num_bins - 1)

    def head_cutoff(self, percentile: float) -> float:
        """Head of the distribution (pre-warming window), rounded down."""
        return self.percentile(percentile, rounding="down")

    def tail_cutoff(self, percentile: float) -> float:
        """Tail of the distribution (keep-alive bound), rounded up."""
        return self.percentile(percentile, rounding="up")

    def mean_idle_time(self) -> float:
        """Mean of the in-bounds idle times, using bin midpoints."""
        in_bounds = self.in_bounds_count
        if in_bounds == 0:
            raise ValueError("histogram has no in-bounds observations")
        midpoints = (np.arange(self._num_bins) + 0.5) * self._bin_width
        return float(np.dot(self._counts, midpoints) / in_bounds)

    def snapshot(self) -> HistogramSnapshot:
        """Immutable snapshot of the current histogram state."""
        return HistogramSnapshot(
            counts=self._counts.copy(),
            oob_count=self._oob_count,
            total_count=self._total_count,
            bin_width_minutes=self._bin_width,
        )

    def normalized(self) -> np.ndarray:
        """Bin counts normalized to a maximum of 1 (as plotted in Figure 12)."""
        peak = self._counts.max()
        if peak == 0:
            return np.zeros_like(self._counts, dtype=float)
        return self._counts / float(peak)

    def merge(self, other: "IdleTimeHistogram") -> "IdleTimeHistogram":
        """Combine two histograms with identical geometry into a new one.

        Used by the production-style daily-histogram aggregation: the
        controller keeps one histogram per day and merges the recent ones
        when making a decision.
        """
        if (
            other.num_bins != self.num_bins
            or other.bin_width_minutes != self.bin_width_minutes
        ):
            raise ValueError("cannot merge histograms with different geometry")
        merged = IdleTimeHistogram(self._range_minutes, self._bin_width)
        merged._counts = self._counts + other._counts
        merged._oob_count = self._oob_count + other._oob_count
        merged._total_count = self._total_count + other._total_count
        merged._bin_stats = Welford.from_values(merged._counts.astype(float))
        return merged

    @classmethod
    def from_state(
        cls,
        counts: np.ndarray,
        *,
        oob_count: int,
        range_minutes: float,
        bin_width_minutes: float,
        bin_stats: Welford,
    ) -> "IdleTimeHistogram":
        """Reconstruct a histogram from raw state.

        Used by :class:`~repro.core.histogram_bank.HistogramBank` to clone
        one of its rows into a scalar histogram.  ``bin_stats`` is adopted
        as-is (not recomputed from ``counts``) so that the incremental
        Welford trajectory — and therefore the representativeness CV — is
        preserved bit for bit.
        """
        histogram = cls(range_minutes=range_minutes, bin_width_minutes=bin_width_minutes)
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != histogram._counts.shape:
            raise ValueError(
                f"expected {histogram._counts.shape[0]} bin counts, got {counts.shape}"
            )
        if bin_stats.count != histogram._num_bins:
            raise ValueError("bin statistics must cover exactly one value per bin")
        histogram._counts = counts.copy()
        histogram._oob_count = int(oob_count)
        histogram._total_count = int(counts.sum()) + int(oob_count)
        histogram._bin_stats = bin_stats
        return histogram

    @classmethod
    def from_idle_times(
        cls,
        idle_times_minutes: Sequence[float],
        *,
        range_minutes: float = 240.0,
        bin_width_minutes: float = 1.0,
    ) -> "IdleTimeHistogram":
        """Convenience constructor from a sequence of idle times."""
        histogram = cls(range_minutes=range_minutes, bin_width_minutes=bin_width_minutes)
        histogram.observe_many(idle_times_minutes)
        return histogram
