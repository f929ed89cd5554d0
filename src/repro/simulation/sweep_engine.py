"""Shared-state sweep engine: evaluate whole policy families in one pass.

The paper's headline results (Figures 14-19) are parameter sweeps, and a
sweep's configurations share almost all of their work:

* every **constant-keep-alive** policy (the fixed grid of Figure 14 plus
  the no-unloading bound) sees the same per-application idle gaps — only
  the window length ``K`` changes.  :func:`_evaluate_constant_family`
  resolves the flat timestamp columns once and evaluates every ``K`` in
  closed form against them, summing every application's terms with one
  segmented reduction.
* every **hybrid histogram** policy with one bin width shares its
  trace-derived state: histogram contents, the bin-count CV trajectory,
  and the idle-time (ARIMA) forecasts depend only on the trace, never on
  the cutoff/pre-warming/CV knobs — the knobs only select *which
  decision* is made from that state.  The histogram range does not split
  the family either: with a power-of-two bin width and whole-bin ranges,
  a range-``R`` histogram is exactly the leading ``R / width`` bins of
  the widest one, and its OOB count is the number of gaps at or beyond
  ``R`` (:func:`~repro.core.histogram_bank.nests_exactly`; other
  geometries keep one family per range).  :func:`_record_hybrid_family`
  therefore steps the workload through one
  :class:`~repro.core.histogram_bank.HistogramBank` at the widest range
  (the longest-first lockstep prefix protocol of
  :meth:`~repro.simulation.coldstart.ColdStartSimulator.simulate_apps_banked`,
  with the same scalar drain for the few longest applications), tracking
  every narrower range's Welford state alongside, and records, per
  invocation and per range, the CV and the percentile bin of every
  distinct cutoff percentile that range's configurations use.  A step
  costs O(1) per active row and percentile: the bank keeps plain bin
  counts and answers percentiles from cursors, searching again only the
  few whose bin moved since the application's previous decision.  Each
  configuration is then evaluated as pure decision *masks* over its
  range's recordings — flat vectorized passes with no per-step loop —
  and ARIMA forecasts are computed lazily, once per (application,
  invocation), and reused by every configuration that triggers them,
  whatever its range (:class:`_ArimaForecastMemo`).

Because the recorded quantities are bit-identical to what each
configuration's own scalar run would have computed — the
bank-equivalence suite locks the shared machinery down — every
configuration matches the serial reference exactly on cold-start counts
and within 1e-9 on wasted memory, and gives the same results alone as
inside its family (``tests/simulation/test_sweep_equivalence.py``).

:class:`SweepEngine` holds the simulator's one chunk/shard driver,
:meth:`SweepEngine.run_group`.  It evaluates one group of factories — a
whole family, or a single policy as a family of one
(:meth:`~repro.simulation.engine.SimulationEngine.run_policy`) — over
memory-bounded application chunks in process, or over shards on a
``fork`` worker pool when ``workers`` is above 1.  The group's family
picks the evaluator; factories without a family, and every factory
under ``execution="serial"``, take the scalar reference loop
(:func:`_evaluate_scalar`).  Each evaluator takes one range's
:class:`~repro.simulation.engine.CsrSlice` (flat timestamps plus
per-application offsets), validates it once, vectorized
(:meth:`~repro.simulation.coldstart.ColdStartSimulator.validate_csr`),
and writes every policy's per-application totals as result columns
(:class:`~repro.simulation.metrics.AggregateResult`); only those column
blocks travel back from shard workers, and
:func:`~repro.simulation.metrics.merge_results` concatenates them in
range order.
:meth:`~repro.simulation.runner.WorkloadRunner.run_policies` — and
therefore every ``sweep_*`` function and experiment driver — routes
through :meth:`SweepEngine.run_policies`; the ``sweep`` field of
:class:`~repro.simulation.engine.RunnerOptions` selects the grouping
(``auto`` / ``per-policy``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.forecaster import forecast_idle_times
from repro.core.histogram import IdleTimeHistogram
from repro.core.histogram_bank import HistogramBank
from repro.policies.registry import (
    FAMILY_CONSTANT_KEEPALIVE,
    FAMILY_HYBRID_HISTOGRAM,
    PolicyFactory,
)
from repro.simulation.coldstart import DEFAULT_SCALAR_DRAIN_THRESHOLD
from repro.core.pool import fork_pool_map
from repro.simulation.engine import CsrSlice, SimulationEngine
from repro.simulation.metrics import MODE_NAMES, AggregateResult, merge_results

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.coldstart import ColdStartSimulator

__all__ = [
    "FactoryGroup",
    "SweepEngine",
    "check_unique_policy_names",
    "group_factories",
]


def check_unique_policy_names(factories: Sequence[PolicyFactory]) -> None:
    """Reject factory lists whose names collide.

    Results are keyed by factory name; duplicate names used to overwrite
    each other silently, losing all but the last configuration's results.

    Raises:
        ValueError: Naming the colliding factories and the remedy
            (:meth:`~repro.policies.registry.PolicyFactory.renamed`).
    """
    seen: set[str] = set()
    duplicates: list[str] = []
    for factory in factories:
        if factory.name in seen and factory.name not in duplicates:
            duplicates.append(factory.name)
        seen.add(factory.name)
    if duplicates:
        raise ValueError(
            f"duplicate policy name(s) {duplicates}: results are keyed by "
            "name, so duplicates would silently overwrite each other; give "
            "each configuration a distinct label (PolicyFactory.renamed)"
        )


@dataclass(frozen=True)
class FactoryGroup:
    """A maximal run of factories sharing one sweep key.

    ``key`` is ``None`` for unshareable factories (each forms its own
    group); otherwise every member shares the
    :attr:`~repro.policies.registry.PolicyFactory.sweep_key`.
    """

    key: tuple | None
    factories: tuple[PolicyFactory, ...]


def group_factories(
    factories: Sequence[PolicyFactory], *, enabled: bool = True
) -> list[FactoryGroup]:
    """Group a factory list into shareable families.

    Factories with equal (non-``None``) sweep keys are merged into one
    group, placed where the family first appears; unshareable factories
    become singleton groups in place.  With ``enabled=False`` every
    factory is a singleton that keeps its own key (a family of one).
    """
    slots: list[tuple[tuple | None, list[PolicyFactory]]] = []
    families: dict[tuple, list[PolicyFactory]] = {}
    for factory in factories:
        key = factory.sweep_key
        if enabled and key in families:
            families[key].append(factory)
            continue
        members = [factory]
        if enabled and key is not None:
            families[key] = members
        slots.append((key, members))
    return [FactoryGroup(key, tuple(members)) for key, members in slots]


class SweepEngine:
    """Evaluates groups of policies over a workload: the one simulation driver.

    Args:
        engine: The engine whose workload, options, simulator conventions
            and chunk/shard geometry every pass uses.
    """

    def __init__(self, engine: SimulationEngine) -> None:
        self._engine = engine
        self.options = engine.options
        self._simulator = engine.simulator

    # ------------------------------------------------------------------ #
    def run_policies(
        self,
        factories: Sequence[PolicyFactory],
        *,
        progress: Callable[[str, int, int], None] | None = None,
    ) -> dict[str, AggregateResult]:
        """Evaluate several policies, sharing state within policy families.

        Returns results keyed by factory name, in input order.
        ``progress`` receives ``(name, apps, apps)`` as each policy's
        results complete.

        Raises:
            ValueError: When two factories share a name (results would
                silently overwrite each other).
        """
        factories = list(factories)
        check_unique_policy_names(factories)
        results: dict[str, AggregateResult] = {}
        for group in self.groups(factories):
            for name, blocks in self.run_group(group).items():
                results[name] = merge_results(name, blocks)
                if progress is not None:
                    progress(name, results[name].num_apps, results[name].num_apps)
        return {factory.name: results[factory.name] for factory in factories}

    def groups(self, factories: Sequence[PolicyFactory]) -> list[FactoryGroup]:
        """The groups :meth:`run_policies` evaluates these factories in.

        Families under ``sweep="auto"``; under ``"per-policy"`` every
        factory is a family of one.
        """
        return group_factories(factories, enabled=self.options.sweep == "auto")

    # ------------------------------------------------------------------ #
    def run_group(
        self,
        group: FactoryGroup,
        progress: Callable[[int, int], None] | None = None,
    ) -> dict[str, list[AggregateResult]]:
        """Evaluate one group over the workload, chunked or sharded.

        With ``workers`` above 1 the applications are split into
        invocation-balanced shard ranges
        (:meth:`~repro.simulation.engine.SimulationEngine.shard_ranges`)
        evaluated on a ``fork`` worker pool, each worker resolving its
        range against a re-opened memory-mapped store handle rather than
        the parent's columns; otherwise the ranges are the
        ``max_resident_bytes`` chunks
        (:meth:`~repro.simulation.engine.SimulationEngine.app_chunk_bounds`),
        evaluated in process.  Under a budget, mapped pages are released
        after every range.  Every recorded quantity and decision is a
        pure function of one application's own timestamps, so
        concatenating per-range results in range order reproduces the
        whole-workload evaluation exactly, for any chunking and worker
        count.  Returns each factory's per-range column blocks, in range
        order, for :func:`~repro.simulation.metrics.merge_results`.
        ``progress`` receives ``(apps done, apps total)`` as ranges
        complete.
        """
        engine = self._engine
        total = engine.eligible_app_count()
        workers = max(1, min(self.options.workers or 1, total))
        ranges = engine.shard_ranges(workers) if workers > 1 else engine.app_chunk_bounds()
        budgeted = self.options.max_resident_bytes is not None
        done = 0

        def run_range(index: int) -> dict[str, AggregateResult]:
            start, stop = ranges[index]
            store = engine.worker_store()
            results = self._evaluate(group, engine.csr_slice(start, stop, store=store))
            if budgeted:
                store.release_mapped_pages()
            return results

        def on_result(index: int, results: dict[str, AggregateResult]) -> None:
            nonlocal done
            done += next(iter(results.values())).num_apps
            if progress is not None:
                progress(done, total)

        # The task closure carries the group's factories, which hold
        # unpicklable closures, so it travels to pool workers by fork; one
        # worker runs the ranges in process.  Results come back in range
        # order either way, as a few column arrays per policy and range.
        blocks: dict[str, list[AggregateResult]] = {
            factory.name: [] for factory in group.factories
        }
        for results in fork_pool_map(run_range, len(ranges), workers, on_result=on_result):
            for name, block in results.items():
                blocks[name].append(block)
        return blocks

    def _evaluate(self, group: FactoryGroup, chunk: CsrSlice) -> dict[str, AggregateResult]:
        """Evaluate one group over one application range, in this process."""
        family = group.key[0] if group.key and self.options.execution != "serial" else None
        if family is None:
            return _evaluate_scalar(group.factories, chunk, self._simulator)
        if family == FAMILY_CONSTANT_KEEPALIVE:
            return _evaluate_constant_family(group.factories, chunk, self._simulator)
        if family == FAMILY_HYBRID_HISTOGRAM:
            return _evaluate_hybrid_family(group.factories, chunk, self._simulator)
        raise ValueError(f"unknown policy family {family!r}")  # pragma: no cover


# --------------------------------------------------------------------------- #
# Scalar reference: one policy instance per application
# --------------------------------------------------------------------------- #
def _evaluate_scalar(
    factories: Sequence[PolicyFactory],
    chunk: CsrSlice,
    simulator: "ColdStartSimulator",
) -> dict[str, AggregateResult]:
    """Replay every application through a fresh instance of each policy.

    The Section 5.1 reference loop
    (:meth:`~repro.simulation.coldstart.ColdStartSimulator.simulate_app`):
    what ``execution="serial"`` runs for every factory, and what a
    factory that declares no policy family runs under ``auto``.  Its
    per-application rows become columns once per policy.
    """
    apps = list(zip(chunk.app_ids, chunk.app_times()))
    return {
        factory.name: merge_results(
            factory.name,
            [
                simulator.simulate_app(app_id, times, factory.create())
                for app_id, times in apps
            ],
        )
        for factory in factories
    }


# --------------------------------------------------------------------------- #
# Constant-keep-alive family (Figure 14): closed form over shared gaps
# --------------------------------------------------------------------------- #
def _evaluate_constant_family(
    factories: Sequence[PolicyFactory],
    chunk: CsrSlice,
    simulator: "ColdStartSimulator",
) -> dict[str, AggregateResult]:
    """Evaluate the whole keep-alive grid against per-app gaps computed once.

    The chunk's flat timestamp column, validated once, its
    per-invocation start/arrival views, and the result columns every
    configuration shares (ids, invocations, a zero OOB count) serve the
    whole grid; each ``K`` then costs a handful of flat array operations.
    Each per-gap term is the scalar simulator's arithmetic for a constant
    ``(prewarm=0, K)`` decision (``K = inf`` models no-unloading): an
    application's first arrival is cold, a later one at or before the
    window's expiry is warm (``PolicyDecision.covers``), and the idle
    loaded time is the part of the window elapsed before the next
    arrival — or, after the last arrival, before the horizon.  Each gap's
    terms sit at the position of the invocation ending it, so an
    application's segment starts with a zero and one ``reduceat`` over
    the segment starts sums every application; only the summation
    differs from the scalar loop — numpy's pairwise sum instead of
    sequential accumulation — which stays well within 1e-9 of the scalar
    totals.
    """
    horizon = simulator.horizon_minutes
    flat = simulator.validate_csr(chunk.times, chunk.offsets)
    counts = chunk.counts
    populated = counts > 0
    starts = chunk.offsets[:-1][populated]
    lasts = starts + counts[populated] - 1
    gap_starts = flat[:-1]
    arrivals = flat[1:]
    # Per-invocation rows, overwritten for every K: position i holds the
    # gap ending at invocation i, and each application's first position
    # (which pairs it with the previous application) is zeroed.
    cold = np.zeros(flat.size, dtype=bool)
    terms = np.zeros(flat.size, dtype=np.float64)
    no_oob = np.zeros(counts.size, dtype=np.int64)

    results: dict[str, AggregateResult] = {}
    for factory in factories:
        keepalive = float(factory.family_config)
        cold_starts = np.zeros(counts.size, dtype=np.int64)
        wasted_minutes = np.zeros(counts.size, dtype=np.float64)
        if starts.size:
            window_end = gap_starts + keepalive
            np.greater(arrivals, window_end, out=cold[1:])
            cold[starts] = False
            np.minimum(window_end, arrivals, out=window_end)
            np.minimum(window_end, horizon, out=window_end)
            window_end -= gap_starts
            np.maximum(window_end, 0.0, out=terms[1:])
            terms[starts] = 0.0
            cold_starts[populated] = np.add.reduceat(cold, starts, dtype=np.int64) + 1
            last = flat[lasts]
            tail_end = np.minimum(last + keepalive, horizon)
            wasted_minutes[populated] = np.add.reduceat(terms, starts) + np.where(
                tail_end > last, tail_end - last, 0.0
            )
        results[factory.name] = AggregateResult(
            factory.name,
            chunk.app_ids,
            invocations=counts,
            cold_starts=cold_starts,
            wasted_memory_minutes=wasted_minutes,
            oob_idle_times=no_oob,
        )
    return results


# --------------------------------------------------------------------------- #
# Hybrid histogram family (Figures 15-19): one recording pass, K config scans
# --------------------------------------------------------------------------- #
@dataclass
class _HybridFamilyRecording:
    """Per-invocation shared state of one hybrid family, in CSR layout.

    Applications are ordered longest-first (the banked stepping order);
    application ``r`` occupies flat positions ``[offsets[r],
    offsets[r] + counts[r])``, one per invocation in time order.  Every
    recorded value is exactly what a scalar (or banked) hybrid policy with
    that histogram range observes at that invocation's decision point.
    """

    order: np.ndarray  #: sorted row -> application index in the chunk
    counts: np.ndarray  #: invocations per sorted row
    offsets: np.ndarray  #: CSR start per sorted row
    times: np.ndarray  #: flat timestamps, sorted-app order
    cv: dict[float, np.ndarray]  #: range -> bin-count CV per decision point
    bins: dict[tuple[float, float], np.ndarray]  #: (range, percentile) -> bin index
    total: np.ndarray  #: idle times observed at each decision point
    oob: dict[float, np.ndarray]  #: range -> ... of which out of that range
    bin_width_minutes: float


def _record_hybrid_family(
    chunk: CsrSlice,
    simulator: "ColdStartSimulator",
    bin_width_minutes: float,
    percentiles: dict[float, Sequence[float]],
) -> _HybridFamilyRecording:
    """One shared pass over the workload recording per-invocation state.

    ``percentiles`` maps each histogram range of the family to the cutoff
    percentiles its configurations use.  Mirrors the banked engine's
    grouped stepping: applications are assigned rows longest-first and
    stepped in lockstep prefixes through one :class:`HistogramBank` at
    the widest range, which tracks every narrower range as a nested range
    (exact under :func:`~repro.core.histogram_bank.nests_exactly`, which
    the sweep key guarantees whenever a family has several ranges).  A
    step records one bin count per active row, and the percentile bins
    of every (range, percentile) pair come from the bank's percentile
    cursors: consecutive decisions of one application rarely move a bin,
    so only the few cursors that moved are searched again
    (:mod:`repro.core.histogram_bank`).  Once
    :data:`~repro.simulation.coldstart.DEFAULT_SCALAR_DRAIN_THRESHOLD` or
    fewer rows remain active, each survivor is cloned into one scalar
    :class:`~repro.core.histogram.IdleTimeHistogram` per range
    (:meth:`HistogramBank.extract_row` preserves the exact Welford state)
    and recorded to the end through the scalar code path, one cumulative
    sum per decision for all of the range's percentiles.  Both paths
    produce bit-identical CV and percentile-bin trajectories, which the
    bank- and sweep-equivalence suites lock down.
    """
    times = simulator.validate_csr(chunk.times, chunk.offsets)
    counts = chunk.counts
    num = counts.size
    order = np.argsort(-counts, kind="stable")
    counts_sorted = counts[order]
    offsets = np.zeros(num, dtype=np.int64)
    if num:
        np.cumsum(counts_sorted[:-1], out=offsets[1:])
    # Gather the applications longest-first: sorted row r's k-th
    # invocation is the chunk's position chunk.offsets[order[r]] + k.
    shift = np.repeat(chunk.offsets[:-1][order] - offsets, counts_sorted)
    shift += np.arange(times.size)
    flat = times[shift]
    del shift
    max_count = int(counts_sorted[0]) if num else 0
    occupancy = np.bincount(counts_sorted, minlength=max_count + 1)
    active_per_step = num - np.cumsum(occupancy)[:max_count]

    range_qs = {r: sorted({float(q) for q in percentiles[r]}) for r in sorted(percentiles)}
    ranges = list(range_qs)
    bank = HistogramBank(
        num,
        range_minutes=ranges[-1],
        bin_width_minutes=bin_width_minutes,
        nested_ranges=ranges[:-1],
    )
    # Every (range, percentile) pair is answered in one batch per step,
    # each from its own range's leading bins.
    pairs = [(r, q) for r, qs in range_qs.items() for q in qs]
    pair_qs = np.array([q for _, q in pairs], dtype=np.float64)
    pair_bins = np.array([bank.num_bins_for(r) for r, _ in pairs], dtype=np.int64)

    # One row per range (CV) and per pair (bins), filled a step at a time;
    # bins take the narrowest dtype that also holds ``bin + 1``.
    total_invocations = int(counts.sum())
    cv_rows = np.zeros((len(ranges), total_invocations), dtype=np.float64)
    bin_rows = np.zeros(
        (len(pairs), total_invocations), dtype=np.min_scalar_type(-bank.num_bins)
    )
    cv = dict(zip(ranges, cv_rows))
    bins = dict(zip(pairs, bin_rows))
    for step in range(max_count):
        active = int(active_per_step[step])
        if active <= DEFAULT_SCALAR_DRAIN_THRESHOLD:
            # Scalar drain: record the few longest applications to the end
            # through scalar histograms resumed from their bank rows.
            for row in range(active):
                o = int(offsets[row])
                for r, qs in range_qs.items():
                    _drain_row(
                        bank.extract_row(row, r),
                        flat[o : o + int(counts_sorted[row])],
                        step,
                        cv[r][o:],
                        [(q, bins[(r, q)][o:]) for q in qs],
                    )
            break
        positions = offsets[:active] + step
        if step > 0:
            bank.observe_prefix(flat[positions] - flat[positions - 1])
        cv_rows[:, positions] = bank.bin_count_cvs_prefix(active)
        bin_rows[:, positions] = bank.percentile_bins_prefix(
            active, pair_qs, num_bins=pair_bins
        )

    # Observation counters are pure gap counts; compute them flat instead
    # of recording them.  total at decision k is k (one idle time per
    # preceding gap); oob counts the gaps at or beyond each range, with
    # exactly the ``idle < range`` comparison the histogram applies.
    # Counters never exceed an application's invocation count, which
    # sizes their (signed) dtype.  Rows are sorted longest-first, so the
    # populated rows are a prefix.
    starts = offsets[: int(np.count_nonzero(counts_sorted))]
    counter_dtype = np.min_scalar_type(-max_count)
    total = np.ones(total_invocations, dtype=counter_dtype)
    total[starts] = 0
    _restarting_cumsum(total, starts)
    gaps = np.zeros(total_invocations, dtype=np.float64)
    np.subtract(flat[1:], flat[:-1], out=gaps[1:])
    gaps[starts] = 0.0
    oob = {}
    for r in ranges:
        oob[r] = (gaps >= r).astype(counter_dtype)
        _restarting_cumsum(oob[r], starts)
    return _HybridFamilyRecording(
        order=order,
        counts=counts_sorted,
        offsets=offsets,
        times=flat,
        cv=cv,
        bins=bins,
        total=total,
        oob=oob,
        bin_width_minutes=bin_width_minutes,
    )


def _restarting_cumsum(values: np.ndarray, starts: np.ndarray) -> None:
    """Per-application running sums of ``values``, in place.

    Applications occupy consecutive segments of ``values`` beginning at
    ``starts`` (the first at 0), and each segment's first value must be
    0.  Seeding every later segment's first slot with minus the previous
    segment's total makes one cumulative sum restart at zero on every
    boundary, with no invocation-length array of per-application bases.
    """
    if starts.size > 1:
        values[starts[1:]] = -np.add.reduceat(values[: starts[-1]], starts[:-1])
    np.cumsum(values, out=values)


def _drain_row(
    histogram: IdleTimeHistogram,
    times: np.ndarray,
    step: int,
    cv: np.ndarray,
    bins: list[tuple[float, np.ndarray]],
) -> None:
    """Record one application from ``step`` on through a scalar histogram.

    ``times`` are the application's timestamps; ``cv`` and each array in
    ``bins`` are indexed by invocation from the application's first.
    """
    percentiles = [q for q, _ in bins]
    for k in range(step, times.size):
        if k > 0:
            histogram.observe(float(times[k] - times[k - 1]))
        cv[k] = histogram.bin_count_cv
        if histogram.in_bounds_count:
            indices = histogram.percentile_bins(percentiles)
            for (_, recorded), index in zip(bins, indices):
                recorded[k] = index


class _ArimaForecastMemo:
    """Idle-time forecasts shared across a family's configurations.

    The ARIMA branch is a pure function of the retained idle-time history,
    which depends only on the trace (and the history capacity) — never on
    the configuration's histogram range, margins or thresholds.  Each
    (invocation, history capacity) pair is therefore fitted at most once
    per sweep, and every configuration that triggers the branch at that
    invocation reuses the forecast, applying only its own margin
    arithmetic.
    """

    def __init__(self, recording: _HybridFamilyRecording) -> None:
        self._recording = recording
        self._predictions: dict[tuple[int, int], float] = {}

    def predictions(self, positions: np.ndarray, max_history: int) -> np.ndarray:
        """Forecast idle times for the given flat invocation positions.

        Cache misses are collected and fitted as stacked batches (one
        stacked grid search per distinct history length) instead of one
        scalar model per position; the batched fits are bit-identical to
        the scalar forecaster, so memoized values are interchangeable
        between the two paths.
        """
        out = np.empty(positions.size, dtype=np.float64)
        missing: list[int] = []
        histories: list[np.ndarray] = []
        for i, position in enumerate(positions):
            key = (int(position), max_history)
            cached = self._predictions.get(key)
            if cached is not None:
                out[i] = cached
            else:
                missing.append(i)
                histories.append(self._history(int(position), max_history))
        if missing:
            values = forecast_idle_times(histories)
            for i, value in zip(missing, values):
                prediction = float(value)
                out[i] = prediction
                self._predictions[(int(positions[i]), max_history)] = prediction
        return out

    def fitted_count(self) -> int:
        """Number of distinct forecasts computed so far (for tests)."""
        return len(self._predictions)

    def _history(self, position: int, max_history: int) -> np.ndarray:
        """Idle-time history backing the forecast at one flat position.

        The forecaster's history at decision step k is the last
        min(k, capacity) idle gaps, oldest first — reconstructed
        directly from the timestamps, exactly the values the banked
        ring (or the scalar deque) holds at that point.
        """
        recording = self._recording
        row = int(np.searchsorted(recording.offsets, position, side="right") - 1)
        o = int(recording.offsets[row])
        step = position - o
        start = max(1, step - max_history + 1)
        return (
            recording.times[o + start : o + step + 1]
            - recording.times[o + start - 1 : o + step]
        )


def _evaluate_hybrid_family(
    factories: Sequence[PolicyFactory],
    chunk: CsrSlice,
    simulator: "ColdStartSimulator",
) -> dict[str, AggregateResult]:
    """Evaluate every configuration of one hybrid family from one recording.

    Every configuration stages its per-invocation conditions and windows
    in one shared set of scratch rows instead of fresh temporaries, so a
    pass holds about :data:`~repro.simulation.engine.PASS_BYTES_PER_INVOCATION`
    bytes per invocation whatever the family's size.  The ids and
    invocation columns are shared by every configuration's result.
    """
    configs = [factory.family_config for factory in factories]
    bin_width = configs[0].bin_width_minutes
    assert all(
        config.bin_width_minutes == bin_width for config in configs
    ), "hybrid family members must share the bin width"
    percentiles: dict[float, set[float]] = {}
    for config in configs:
        percentiles.setdefault(config.histogram_range_minutes, set()).update(
            (config.head_percentile, config.tail_percentile)
        )
    recording = _record_hybrid_family(chunk, simulator, bin_width, percentiles)
    memo = _ArimaForecastMemo(recording)
    scratch = np.empty((3, recording.times.size), dtype=np.float64)
    invocations = chunk.counts
    return {
        factory.name: AggregateResult(
            factory.name,
            chunk.app_ids,
            invocations=invocations,
            **_evaluate_hybrid_config(recording, config, memo, simulator, scratch),
        )
        for factory, config in zip(factories, configs)
    }


def _evaluate_hybrid_config(
    recording: _HybridFamilyRecording,
    config,
    memo: _ArimaForecastMemo,
    simulator: "ColdStartSimulator",
    scratch: np.ndarray,
) -> dict[str, np.ndarray]:
    """One configuration's decisions, cold starts, and waste from recordings.

    Every float operation mirrors :class:`~repro.policies.bank.
    HybridPolicyBank.on_invocations` (masks, margin arithmetic, the
    no-pre-warming transform) and the banked stepping loop's cold/waste
    terms, evaluated flat over all invocations at once instead of one
    lockstep step at a time.  Decisions never depend on cold/warm
    outcomes, so the flat evaluation is exact.  ``scratch`` holds three
    float rows as long as the recording, overwritten here.  Returns the
    per-application cold-start, waste, OOB and decision-mode columns in
    chunk order; applications without invocations keep zeros.
    """
    range_minutes = config.histogram_range_minutes
    total = recording.total
    oob = recording.oob[range_minutes]
    prewarm, keepalive, load_start = scratch
    # The observation-count conditions, staged in scratch rows the windows
    # overwrite below.  The policy's OOB fraction is oob / max(total, 1),
    # or 0.0 with no observations; with none, oob is 0 too, so the ratio
    # alone is exact.
    if config.enable_arima:
        oob_fraction = np.maximum(total, 1, out=prewarm)
        np.divide(oob, oob_fraction, out=oob_fraction)
        mask_arima = (total >= config.oob_min_observations) & (
            oob_fraction > config.oob_fraction_threshold
        )
    else:
        mask_arima = None
    in_bounds = np.subtract(total, oob, out=keepalive)
    mask_histogram = (in_bounds >= config.min_observations) & (
        recording.cv[range_minutes] >= config.cv_threshold
    )
    if mask_arima is not None:
        mask_histogram &= ~mask_arima
        mask_standard = ~(mask_arima | mask_histogram)
    else:
        mask_standard = ~mask_histogram

    # Histogram-mode windows, in place: head (rounded down) and tail
    # (rounded up, ``float(bin) + 1.0`` is exactly ``bin + 1``) cutoffs,
    # their margins, then the standard keep-alive outside histogram mode.
    bin_width = recording.bin_width_minutes
    head_bins = recording.bins[(range_minutes, config.head_percentile)]
    tail_bins = recording.bins[(range_minutes, config.tail_percentile)]
    np.multiply(head_bins, bin_width, out=prewarm)
    prewarm *= 1.0 - config.prewarm_margin
    np.add(tail_bins, 1.0, out=keepalive)
    keepalive *= bin_width
    keepalive *= 1.0 + config.keepalive_margin
    prewarm[prewarm < bin_width] = 0.0
    keepalive -= prewarm
    np.maximum(keepalive, bin_width, out=keepalive)
    not_histogram = ~mask_histogram
    prewarm[not_histogram] = 0.0
    keepalive[not_histogram] = range_minutes

    if mask_arima is not None and mask_arima.any():
        positions = np.nonzero(mask_arima)[0]
        predictions = memo.predictions(positions, config.arima_max_history)
        prewarm[positions] = np.maximum(
            predictions * (1.0 - config.arima_margin), 0.0
        )
        keepalive[positions] = np.maximum(
            2.0 * config.arima_margin * predictions, bin_width
        )

    if not config.enable_prewarming:
        # "Hybrid No PW" (Figure 17): keep the tail-derived keep-alive but
        # never unload right after the execution.
        unloads = prewarm > 0
        keepalive[unloads] += prewarm[unloads]
        prewarm[unloads] = 0.0

    # Per-application totals, scattered from sorted rows to chunk order.
    # Rows are sorted longest-first, so the populated rows are a prefix
    # and every empty application follows.
    order = recording.order
    counts = recording.counts
    populated_rows = int(np.count_nonzero(counts))
    columns = {
        "cold_starts": np.zeros(order.size, dtype=np.int64),
        "wasted_memory_minutes": np.zeros(order.size, dtype=np.float64),
        "oob_idle_times": np.zeros(order.size, dtype=np.int64),
        "mode_counts": np.zeros((order.size, len(MODE_NAMES)), dtype=np.int64),
    }
    if not populated_rows:
        return columns

    # Cold/warm outcomes and idle-loaded waste from consecutive decisions,
    # flat: position i's decision governs the gap to position i + 1 of the
    # same application (the entry pairing an application's last invocation
    # with the next application's first is masked off below).
    times = recording.times
    horizon = simulator.horizon_minutes
    starts = recording.offsets[:populated_rows]
    lasts = starts + counts[:populated_rows] - 1
    load_end = keepalive
    np.add(times, prewarm, out=load_start)
    load_end += load_start
    cold = np.empty(times.size, dtype=bool)
    cold[1:] = ~((load_start[:-1] <= times[1:]) & (times[1:] <= load_end[:-1]))
    cold[starts] = True
    # The last decision's waste up to the horizon, with the arithmetic of
    # ColdStartSimulator._waste_between.
    tail_end = np.minimum(load_end[lasts], horizon)
    tail_start = load_start[lasts]
    wasted = np.where(tail_end > tail_start, tail_end - tail_start, 0.0)
    # The pre-warming row is spent: it now holds each gap's idle loaded
    # time, the load end clipped to the next arrival and the horizon,
    # minus the load start.  The load-start row is spent next: shifted by
    # one, it holds that waste at the position of the invocation ending
    # the gap, so every application's terms sum within its own segment.
    gap_waste = prewarm[:-1]
    np.minimum(load_end[:-1], times[1:], out=gap_waste)
    np.minimum(gap_waste, horizon, out=gap_waste)
    gap_waste -= load_start[:-1]
    np.maximum(gap_waste, 0.0, out=gap_waste)
    terms = load_start
    terms[0] = 0.0
    terms[1:] = gap_waste
    terms[starts] = 0.0
    rows = order[:populated_rows]
    columns["cold_starts"][rows] = np.add.reduceat(cold, starts, dtype=np.int64)
    columns["wasted_memory_minutes"][rows] = np.add.reduceat(terms, starts) + wasted
    columns["oob_idle_times"][rows] = oob[lasts]
    modes = columns["mode_counts"]
    modes[rows, 0] = np.add.reduceat(mask_histogram, starts, dtype=np.int64)
    modes[rows, 1] = np.add.reduceat(mask_standard, starts, dtype=np.int64)
    if mask_arima is not None:
        modes[rows, 2] = np.add.reduceat(mask_arima, starts, dtype=np.int64)
    return columns
