"""Metrics produced by the cold-start simulator.

The paper evaluates policies along two axes:

* the distribution of per-application **cold-start percentages** (the CDFs
  of Figures 14, 16, 17, 18 and 20), usually summarized by the
  **3rd-quartile (75th-percentile) application cold-start percentage**;
* the **wasted memory time** — the total time application images sit in
  memory without executing anything — normalized to the 10-minute fixed
  keep-alive baseline (Figures 15–18).

This module defines the per-application record, :class:`AppSimResult`,
and the per-policy aggregate, :class:`AggregateResult`.  An aggregate
holds its applications' outcomes as **columns** — one array per field,
plus an applications × 3 matrix of decision-mode counts for policies
that track modes — because every summary is a workload-wide reduction
over them.  The family evaluators write those columns directly, and
:func:`merge_results` concatenates per-chunk column blocks in workload
order.  :attr:`AggregateResult.app_results` stays available as a lazy,
read-only sequence of :class:`AppSimResult` rows: a row, or a slice of
rows, is built only when read.

Summaries keep the arithmetic of walking the rows, so they are
bit-identical whichever way a result was built.  Integer totals are
exact array sums.  Float totals go through the builtin ``sum`` over the
column's values in application order (``sum(column.tolist())``), not
``np.sum``: numpy sums pairwise, and the builtin's result — which is
compensated from Python 3.12 on — differs from it in the last bits.
"""

from __future__ import annotations

import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

#: Decision modes of the hybrid policy, in the order results report them
#: (the columns of :attr:`AggregateResult.mode_counts`).
MODE_NAMES: tuple[str, ...] = ("histogram", "standard", "arima")


@dataclass(frozen=True)
class AppSimResult:
    """Outcome of simulating one policy over one application's trace."""

    app_id: str
    invocations: int
    cold_starts: int
    wasted_memory_minutes: float
    memory_mb: float = 1.0
    mode_counts: Mapping[str, int] = field(default_factory=dict)
    oob_idle_times: int = 0

    def __post_init__(self) -> None:
        if self.invocations < 0 or self.cold_starts < 0:
            raise ValueError("counts must be non-negative")
        if self.cold_starts > self.invocations:
            raise ValueError("cold starts cannot exceed invocations")
        if self.wasted_memory_minutes < 0:
            raise ValueError("wasted memory time must be non-negative")
        if self.oob_idle_times < 0:
            raise ValueError("out-of-bounds count must be non-negative")

    @property
    def idle_time_observations(self) -> int:
        """Number of idle times the policy observed (one per gap)."""
        return max(self.invocations - 1, 0)

    @property
    def warm_starts(self) -> int:
        return self.invocations - self.cold_starts

    @property
    def cold_start_percentage(self) -> float:
        """Percentage of this application's invocations that were cold."""
        if self.invocations == 0:
            return 0.0
        return 100.0 * self.cold_starts / self.invocations

    @property
    def always_cold(self) -> bool:
        """True when every invocation of the application was a cold start."""
        return self.invocations > 0 and self.cold_starts == self.invocations

    @property
    def wasted_memory_mb_minutes(self) -> float:
        """Memory-weighted waste (MB·minutes)."""
        return self.wasted_memory_minutes * self.memory_mb


@dataclass(eq=False)
class AggregateResult:
    """One policy's results over a workload (or one chunk of it), as columns.

    Entry ``i`` of every column belongs to application ``app_ids[i]``.
    ``mode_counts`` is an applications × 3 matrix of decision counts in
    :data:`MODE_NAMES` order, or ``None`` for policies that track no
    modes.  Construction runs :class:`AppSimResult`'s checks over the
    columns and raises the same ``ValueError`` for the first failing
    application.
    """

    policy_name: str
    app_ids: tuple[str, ...]
    invocations: np.ndarray
    cold_starts: np.ndarray
    wasted_memory_minutes: np.ndarray
    memory_mb: np.ndarray
    oob_idle_times: np.ndarray
    mode_counts: np.ndarray | None = None

    def __post_init__(self) -> None:
        num_apps = len(self.app_ids)
        columns = (
            self.invocations,
            self.cold_starts,
            self.wasted_memory_minutes,
            self.memory_mb,
            self.oob_idle_times,
        )
        if any(column.shape != (num_apps,) for column in columns) or (
            self.mode_counts is not None
            and self.mode_counts.shape != (num_apps, len(MODE_NAMES))
        ):
            raise ValueError("every result column needs one entry per application")
        invalid = (
            (self.invocations < 0)
            | (self.cold_starts < 0)
            | (self.cold_starts > self.invocations)
            | (self.wasted_memory_minutes < 0)
            | (self.oob_idle_times < 0)
        )
        if invalid.any():
            # Building the first invalid application's row raises its
            # check's ValueError, exactly as constructing rows would.
            self.app_results[int(np.argmax(invalid))]
            raise AssertionError("column checks disagree with AppSimResult")

    @property
    def app_results(self) -> "AppResultRows":
        """Per-application :class:`AppSimResult` rows, built when read."""
        return AppResultRows(self)

    @property
    def num_apps(self) -> int:
        return len(self.app_ids)

    @property
    def total_invocations(self) -> int:
        return int(self.invocations.sum())

    @property
    def total_cold_starts(self) -> int:
        return int(self.cold_starts.sum())

    @property
    def overall_cold_start_percentage(self) -> float:
        """Cold-start percentage over all invocations (not per-app)."""
        total = self.total_invocations
        if total == 0:
            return 0.0
        return 100.0 * self.total_cold_starts / total

    @property
    def total_wasted_memory_minutes(self) -> float:
        return sum(self.wasted_memory_minutes.tolist())

    @property
    def total_wasted_memory_mb_minutes(self) -> float:
        return sum((self.wasted_memory_minutes * self.memory_mb).tolist())

    def cold_start_percentages(self) -> np.ndarray:
        """Per-application cold-start percentages (the CDF raw data)."""
        percentages = np.zeros(self.num_apps, dtype=np.float64)
        np.divide(
            100.0 * self.cold_starts,
            self.invocations,
            out=percentages,
            where=self.invocations != 0,
        )
        return percentages

    def app_cold_start_percentile(self, percentile: float) -> float:
        """Percentile of the per-app cold-start distribution.

        The paper reports the 75th percentile ("3rd-quartile app cold
        start"); lower percentiles are available for completeness.
        """
        values = self.cold_start_percentages()
        if values.size == 0:
            return 0.0
        return float(np.percentile(values, percentile))

    @property
    def third_quartile_cold_start_percentage(self) -> float:
        return self.app_cold_start_percentile(75.0)

    def _always_cold(self) -> np.ndarray:
        return (self.invocations > 0) & (self.cold_starts == self.invocations)

    @property
    def always_cold_fraction(self) -> float:
        """Fraction of applications that experienced only cold starts (Fig. 19)."""
        if not self.num_apps:
            return 0.0
        return int(np.count_nonzero(self._always_cold())) / self.num_apps

    def always_cold_fraction_excluding_single(self) -> float:
        """Always-cold fraction excluding single-invocation applications.

        Applications with a single invocation in the trace can never avoid
        their one cold start; the paper reports the ARIMA benefit both with
        and without them.
        """
        eligible = self.invocations > 1
        if not eligible.any():
            return 0.0
        return int(np.count_nonzero(eligible & self._always_cold())) / self.num_apps

    @property
    def single_invocation_fraction(self) -> float:
        """Fraction of applications invoked exactly once over the trace."""
        if not self.num_apps:
            return 0.0
        return int(np.count_nonzero(self.invocations == 1)) / self.num_apps

    def mode_usage(self) -> dict[str, int]:
        """Summed per-application decision-mode counters.

        For the hybrid policy these are the
        :class:`~repro.core.hybrid.HybridPolicyStats` histogram / standard
        / ARIMA decision counts; policies without mode tracking produce an
        empty dictionary.
        """
        if self.mode_counts is None or not self.num_apps:
            return {}
        return dict(zip(MODE_NAMES, self.mode_counts.sum(axis=0).tolist()))

    @property
    def total_oob_idle_times(self) -> int:
        """Idle times that fell beyond the histogram range, workload-wide."""
        return int(self.oob_idle_times.sum())

    @property
    def total_idle_time_observations(self) -> int:
        """Idle times observed by the policy, workload-wide."""
        return int(np.maximum(self.invocations - 1, 0).sum())

    @property
    def oob_idle_time_fraction(self) -> float:
        """Fraction of observed idle times that were out of bounds."""
        observations = self.total_idle_time_observations
        if observations == 0:
            return 0.0
        return self.total_oob_idle_times / observations

    def normalized_wasted_memory(self, baseline: "AggregateResult") -> float:
        """Wasted memory time as a percentage of a baseline policy's.

        The paper normalizes to the 10-minute fixed keep-alive policy.
        """
        denominator = baseline.total_wasted_memory_minutes
        if denominator == 0:
            return 0.0 if self.total_wasted_memory_minutes == 0 else math.inf
        return 100.0 * self.total_wasted_memory_minutes / denominator

    def cold_start_cdf(self, grid: Sequence[float] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Empirical CDF of per-app cold-start percentages.

        Returns ``(x, F(x))`` where ``x`` spans 0..100 (percent).
        """
        values = np.sort(self.cold_start_percentages())
        if grid is None:
            grid_array = np.linspace(0.0, 100.0, 101)
        else:
            grid_array = np.asarray(grid, dtype=float)
        if values.size == 0:
            return grid_array, np.zeros_like(grid_array)
        fractions = np.searchsorted(values, grid_array, side="right") / values.size
        return grid_array, fractions

    def summary(self) -> dict[str, float]:
        """Key metrics as a flat dictionary (used by reports and the CLI)."""
        return {
            "num_apps": float(self.num_apps),
            "total_invocations": float(self.total_invocations),
            "total_cold_starts": float(self.total_cold_starts),
            "overall_cold_start_pct": self.overall_cold_start_percentage,
            "third_quartile_app_cold_start_pct": self.third_quartile_cold_start_percentage,
            "always_cold_fraction": self.always_cold_fraction,
            "wasted_memory_minutes": self.total_wasted_memory_minutes,
            "wasted_memory_mb_minutes": self.total_wasted_memory_mb_minutes,
        }


class AppResultRows(SequenceABC):
    """Read-only sequence of one result's :class:`AppSimResult` rows.

    Rows are built from the columns when read: an index builds one row,
    a slice builds only its own rows (returned as a tuple), and iteration
    builds them one at a time.  Compares equal to another view, or to a
    tuple, holding equal rows in the same order.
    """

    __slots__ = ("_result",)

    def __init__(self, result: AggregateResult) -> None:
        self._result = result

    def __len__(self) -> int:
        return self._result.num_apps

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._rows(index))
        position = range(len(self))[index]  # normalizes negatives, raises IndexError
        return next(self._rows(slice(position, position + 1)))

    def __iter__(self) -> Iterator[AppSimResult]:
        return self._rows(slice(None))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (AppResultRows, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"AppResultRows({self._result.policy_name!r}, {len(self)} apps)"

    def _rows(self, index: slice) -> Iterator[AppSimResult]:
        result = self._result
        columns = zip(
            result.app_ids[index],
            result.invocations[index].tolist(),
            result.cold_starts[index].tolist(),
            result.wasted_memory_minutes[index].tolist(),
            result.memory_mb[index].tolist(),
            result.oob_idle_times[index].tolist(),
        )
        if result.mode_counts is None:
            for app_id, invocations, cold, wasted, memory, oob in columns:
                yield AppSimResult(app_id, invocations, cold, wasted, memory, {}, oob)
            return
        modes = result.mode_counts[index].tolist()
        for (app_id, invocations, cold, wasted, memory, oob), counts in zip(columns, modes):
            yield AppSimResult(
                app_id, invocations, cold, wasted, memory, dict(zip(MODE_NAMES, counts)), oob
            )


def _from_rows(policy_name: str, rows: Sequence[AppSimResult]) -> AggregateResult:
    """Columns of per-application rows, in row order."""
    modes = {mode for row in rows for mode in row.mode_counts}
    if not modes <= set(MODE_NAMES):
        raise ValueError(
            f"unknown decision modes {sorted(modes - set(MODE_NAMES))}; "
            f"results track {MODE_NAMES}"
        )
    return AggregateResult(
        policy_name,
        app_ids=tuple(row.app_id for row in rows),
        invocations=np.array([row.invocations for row in rows], dtype=np.int64),
        cold_starts=np.array([row.cold_starts for row in rows], dtype=np.int64),
        wasted_memory_minutes=np.array(
            [row.wasted_memory_minutes for row in rows], dtype=np.float64
        ),
        memory_mb=np.array([row.memory_mb for row in rows], dtype=np.float64),
        oob_idle_times=np.array([row.oob_idle_times for row in rows], dtype=np.int64),
        mode_counts=(
            np.array(
                [[row.mode_counts.get(mode, 0) for mode in MODE_NAMES] for row in rows],
                dtype=np.int64,
            )
            if modes
            else None
        ),
    )


def merge_results(
    policy_name: str, results: Iterable[AggregateResult] | Iterable[AppSimResult]
) -> AggregateResult:
    """Build one policy's :class:`AggregateResult` from its parts, in order.

    ``results`` holds column blocks — per-chunk :class:`AggregateResult`
    objects, whose columns are concatenated (a single block's are
    shared) — or :class:`AppSimResult` rows, turned into columns once.  A
    block without mode counts contributes zero counts when another block
    has them.
    """
    parts = list(results)
    if all(isinstance(part, AppSimResult) for part in parts):
        return _from_rows(policy_name, parts)  # type: ignore[arg-type]
    blocks: list[AggregateResult] = parts  # type: ignore[assignment]
    if len(blocks) == 1:
        return replace(blocks[0], policy_name=policy_name)
    if all(block.mode_counts is None for block in blocks):
        mode_counts = None
    else:
        mode_counts = np.concatenate(
            [
                block.mode_counts
                if block.mode_counts is not None
                else np.zeros((block.num_apps, len(MODE_NAMES)), dtype=np.int64)
                for block in blocks
            ]
        )
    return AggregateResult(
        policy_name,
        app_ids=tuple(chain.from_iterable(block.app_ids for block in blocks)),
        invocations=np.concatenate([block.invocations for block in blocks]),
        cold_starts=np.concatenate([block.cold_starts for block in blocks]),
        wasted_memory_minutes=np.concatenate(
            [block.wasted_memory_minutes for block in blocks]
        ),
        memory_mb=np.concatenate([block.memory_mb for block in blocks]),
        oob_idle_times=np.concatenate([block.oob_idle_times for block in blocks]),
        mode_counts=mode_counts,
    )
