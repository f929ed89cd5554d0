"""Banked (struct-of-arrays) keep-alive policies.

A :class:`~repro.policies.base.KeepAlivePolicy` instance manages a single
application; replaying a large workload through it costs one Python call
per invocation.  A :class:`PolicyBank` holds the state of *all*
applications of a workload at once and processes one invocation of many
applications per call, with numpy array operations doing the per-app
work.  This is the array-oriented policy protocol behind
:meth:`~repro.simulation.coldstart.ColdStartSimulator.simulate_apps_banked`.

Stepping protocol
-----------------
The caller assigns each application a bank row and feeds invocations in
*steps*: step ``k`` delivers the ``k``-th invocation of every application
that has one.  Rows must be ordered by non-increasing invocation count so
the active set at every step is the prefix ``[0, len(now))`` — the
grouped-stepping loop of
:meth:`~repro.simulation.coldstart.ColdStartSimulator.simulate_apps_banked`
sorts applications accordingly.

:class:`HybridPolicyBank` is the banked twin of
:class:`~repro.core.hybrid.HybridHistogramPolicy`: the Figure 10 state
machine evaluated with boolean masks across applications, backed by a 2D
:class:`~repro.core.histogram_bank.HistogramBank`.  The ARIMA branch is
batched too: the selected rows' histories are fitted as stacked windows
(:func:`repro.core.forecaster.decide_idle_times`), so no per-row Python
loop remains on the hot path.  Every array operation mirrors the scalar
policy's float operations, so a bank row and a scalar policy fed the
same invocation stream return bit-identical decisions — the
bank-equivalence suite locks this down.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import HybridPolicyConfig
from repro.core.forecaster import IdleTimeForecaster, decide_idle_times
from repro.core.histogram_bank import HistogramBank
from repro.core.windows import PolicyDecision

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.hybrid import HybridHistogramPolicy
    from repro.policies.base import KeepAlivePolicy

__all__ = ["PolicyBank", "HybridPolicyBank"]


class PolicyBank(abc.ABC):
    """Keep-alive policy state for a whole population of applications.

    One bank row corresponds to one application; the bank is the
    struct-of-arrays counterpart of "one
    :class:`~repro.policies.base.KeepAlivePolicy` instance per app".
    """

    #: Human-readable name used in reports and experiment labels.
    name: str = "policy-bank"

    #: True when :meth:`extract_policy` can clone a row into an equivalent
    #: scalar policy.  The banked simulation loop uses this to drain the
    #: few longest applications to the scalar engine once the active set
    #: becomes too small for array operations to pay off.
    supports_extraction: bool = False

    #: Set to True by callers that have already validated their invocation
    #: streams as per-application sorted (the grouped-stepping loop does),
    #: allowing the bank to skip its per-step monotonicity check.
    assume_monotonic: bool = False

    def __init__(self, num_apps: int) -> None:
        if num_apps < 0:
            raise ValueError("number of applications must be non-negative")
        self.num_apps = int(num_apps)

    @abc.abstractmethod
    def on_invocations(
        self, now_minutes: np.ndarray, cold: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Process one invocation for each of the first ``len(now)`` rows.

        Args:
            now_minutes: Invocation end times; element ``i`` belongs to
                bank row ``i``.  Rows beyond ``len(now_minutes)`` are idle
                this step (see the module docstring for the prefix
                protocol).
            cold: Whether each row's invocation was a cold start, as
                determined by the caller from the previous decision.

        Returns:
            ``(prewarm_minutes, keepalive_minutes)`` arrays, one entry per
            active row — the banked counterpart of a
            :class:`~repro.core.windows.PolicyDecision` per application.
        """

    def mode_counts(self, row: int) -> dict[str, int]:
        """Per-row decision-mode counters (empty for single-mode banks)."""
        del row
        return {}

    def oob_idle_times(self, row: int) -> int:
        """Per-row count of out-of-bounds idle times (0 when untracked)."""
        del row
        return 0

    def extract_policy(self, row: int) -> "KeepAlivePolicy":
        """Clone one row into an equivalent scalar policy instance."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support scalar extraction"
        )


class HybridPolicyBank(PolicyBank):
    """Banked hybrid histogram policy (Section 4.2, Figure 10).

    Holds the idle-time histogram, ARIMA history, and decision state of
    every application in struct-of-arrays form and evaluates the hybrid
    state machine with boolean masks:

    * rows whose out-of-bounds share exceeds the threshold take the
      ARIMA branch, fitted as one stacked batch per history length;
    * rows with a representative histogram (enough in-bounds observations
      and CV of bin counts above the threshold) derive pre-warming and
      keep-alive windows from vectorized head/tail percentile cutoffs;
    * every other row falls back to the standard keep-alive.

    Args:
        num_apps: Number of applications (bank rows).
        config: Policy parameters shared by every row; defaults to the
            paper's configuration, exactly like the scalar policy.
        batched_arima: Fit the ARIMA branch's rows as stacked batches
            (the default) instead of looping the scalar forecaster per
            row.  Both paths produce bit-identical decisions (the scalar
            model delegates to the same kernels); the flag exists so
            benchmarks can measure the batching win against the scalar
            loop it replaced.
    """

    supports_extraction = True

    def __init__(
        self,
        num_apps: int,
        config: HybridPolicyConfig | None = None,
        *,
        batched_arima: bool = True,
    ) -> None:
        super().__init__(num_apps)
        self.config = config or HybridPolicyConfig()
        self._batched_arima = bool(batched_arima)
        self.name = f"hybrid-{self.config.histogram_range_minutes / 60:g}h"
        self.histograms = HistogramBank(
            num_apps,
            range_minutes=self.config.histogram_range_minutes,
            bin_width_minutes=self.config.bin_width_minutes,
        )
        n = self.num_apps
        self._last_end = np.zeros(n, dtype=np.float64)
        self._seen = np.zeros(n, dtype=bool)
        # Ring buffer of recent idle times per row: the banked counterpart
        # of IdleTimeForecaster's bounded history deque.
        self._arima_capacity = int(self.config.arima_max_history)
        self._arima_ring = np.zeros((n, self._arima_capacity), dtype=np.float64)
        self._arima_pos = np.zeros(n, dtype=np.int64)
        # Lockstep-stepping tracker.  Under the prefix protocol (module
        # docstring) the active rows of step k are exactly the first n_k
        # rows with n_k non-increasing, so every still-active row has been
        # fed one invocation per step: all rows share one ring position and
        # are all "seen" after the first step.  That regularity makes the
        # per-step updates pure slice operations (no per-row gather or
        # scatter).  Any call that breaks the pattern permanently drops the
        # bank to the general path, which handles arbitrary stepping.
        self._lockstep = True
        self._lockstep_started = False
        self._lockstep_width = n
        self._lockstep_pos = 0
        # Per-row HybridPolicyStats counters (cold starts and OOB counts
        # are tracked by the caller / histogram bank respectively).
        self._invocations = np.zeros(n, dtype=np.int64)
        self._cold_starts = np.zeros(n, dtype=np.int64)
        self._histogram_decisions = np.zeros(n, dtype=np.int64)
        self._standard_decisions = np.zeros(n, dtype=np.int64)
        self._arima_decisions = np.zeros(n, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Decision logic
    # ------------------------------------------------------------------ #
    def on_invocations(
        self, now_minutes: np.ndarray, cold: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        config = self.config
        now = np.asarray(now_minutes, dtype=np.float64)
        cold = np.asarray(cold, dtype=bool)
        n = int(now.size)
        if n > self.num_apps:
            raise ValueError(f"bank holds {self.num_apps} apps, got {n} invocations")
        if cold.size != n:
            raise ValueError("cold flags must match the invocation times")
        last = self._last_end[:n]
        self._invocations[:n] += 1
        self._cold_starts[:n] += cold

        # Step 1 of Figure 10: update each row's IT distribution (the
        # histogram bank tracks OOB counts) and its ARIMA history.  The
        # lockstep fast path performs the same float operations as the
        # general path, element for element, with slice addressing.
        if self._lockstep and n <= self._lockstep_width:
            self._lockstep_width = n
            if self._lockstep_started:
                if n:
                    if not self.assume_monotonic and np.any(now < last):
                        raise ValueError(
                            "invocation times must be non-decreasing per application"
                        )
                    idle = now - last
                    self.histograms.observe_prefix(idle)
                    self._arima_ring[:n, self._lockstep_pos % self._arima_capacity] = idle
                    self._arima_pos[:n] += 1
                    self._lockstep_pos += 1
            else:
                # First step: no previous invocation, nothing to observe;
                # later lockstep steps skip the (idempotent) seen update.
                self._seen[:n] = True
                self._lockstep_started = n > 0
        else:
            self._lockstep = False
            seen = self._seen[:n]
            if np.any(now[seen] < last[seen]):
                raise ValueError(
                    "invocation times must be non-decreasing per application"
                )
            rows_prev = np.nonzero(seen)[0]
            if rows_prev.size:
                idle = now[rows_prev] - last[rows_prev]
                self.histograms.observe(rows_prev, idle)
                slots = self._arima_pos[rows_prev] % self._arima_capacity
                self._arima_ring[rows_prev, slots] = idle
                self._arima_pos[rows_prev] += 1
            self._seen[:n] = True
        self._last_end[:n] = now

        # Component selection, as masks over the active rows.
        histograms = self.histograms
        total = histograms.total_count[:n]
        oob = histograms.oob_count[:n]
        in_bounds = total - oob
        if config.enable_arima and histograms.min_oob_row < n:
            oob_fraction = np.where(total > 0, oob / np.maximum(total, 1), 0.0)
            mask_arima = (total >= config.oob_min_observations) & (
                oob_fraction > config.oob_fraction_threshold
            )
        else:
            # No active row has any OOB observation (or ARIMA is off), so
            # the OOB-fraction trigger cannot fire: skip its arrays.
            mask_arima = None
        cv = histograms.bin_count_cv_prefix(n)
        mask_histogram = (in_bounds >= config.min_observations) & (
            cv >= config.cv_threshold
        )
        if mask_arima is not None:
            mask_histogram &= ~mask_arima
            mask_standard = ~(mask_arima | mask_histogram)
        else:
            mask_standard = ~mask_histogram

        if mask_histogram.any():
            # Cutoffs are computed for every active row with pure slice
            # arithmetic and masked afterwards — cheaper per step than
            # gathering the histogram-mode subset.  Non-histogram rows may
            # yield meaningless (but finite) cutoffs; the masks drop them.
            head, tail = histograms.head_tail_cutoffs_prefix(
                n, config.head_percentile, config.tail_percentile, in_bounds
            )
            row_prewarm = head * (1.0 - config.prewarm_margin)
            keepalive_end = tail * (1.0 + config.keepalive_margin)
            # Head marker rounded down to the first bin: do not unload.
            row_prewarm = np.where(
                row_prewarm < config.bin_width_minutes, 0.0, row_prewarm
            )
            row_keepalive = np.maximum(
                keepalive_end - row_prewarm, config.bin_width_minutes
            )
            prewarm = np.where(mask_histogram, row_prewarm, 0.0)
            keepalive = np.where(
                mask_histogram, row_keepalive, config.histogram_range_minutes
            )
        else:
            prewarm = np.zeros(n, dtype=np.float64)
            keepalive = np.full(n, config.histogram_range_minutes, dtype=np.float64)

        # The out-of-bounds branch: ARIMA forecasting, batched.  The
        # selected rows' ring histories are grouped by effective length
        # (under lockstep stepping every row shares one length, so the
        # whole selection is a single stacked fit) and each group runs
        # one stacked Hannan-Rissanen grid search — bit-identical to the
        # per-row scalar loop it replaced.
        if mask_arima is not None:
            rows_arima = np.nonzero(mask_arima)[0]
            if rows_arima.size:
                if self._batched_arima:
                    histories = [self._arima_history(int(row)) for row in rows_arima]
                    row_prewarm, row_keepalive = decide_idle_times(
                        histories,
                        margin=config.arima_margin,
                        minimum_keepalive_minutes=config.bin_width_minutes,
                    )
                    prewarm[rows_arima] = row_prewarm
                    keepalive[rows_arima] = row_keepalive
                else:
                    for row in rows_arima:
                        decision = self._arima_decision(int(row))
                        prewarm[row] = decision.prewarm_minutes
                        keepalive[row] = decision.keepalive_minutes
            self._arima_decisions[:n] += mask_arima

        if not config.enable_prewarming:
            # "Hybrid No PW" (Figure 17): keep the tail-derived keep-alive
            # but never unload right after the execution.
            unloads = prewarm > 0
            keepalive = np.where(unloads, prewarm + keepalive, keepalive)
            prewarm = np.where(unloads, 0.0, prewarm)

        self._histogram_decisions[:n] += mask_histogram
        self._standard_decisions[:n] += mask_standard
        return prewarm, keepalive

    def _arima_history(self, row: int) -> np.ndarray:
        """Retained idle times of one row, oldest first.

        While the ring has not wrapped the history is a zero-copy
        read-only view of the ring row (marked non-writable so no caller
        can mutate bank state through it); once the row has wrapped, a
        gathered copy restores the oldest-first order.
        """
        position = int(self._arima_pos[row])
        capacity = self._arima_capacity
        if position <= capacity:
            view = self._arima_ring[row, :position]
            view.flags.writeable = False
            return view
        indices = (position + np.arange(capacity)) % capacity
        return self._arima_ring[row, indices]

    def _arima_decision(self, row: int) -> PolicyDecision:
        """Scalar ARIMA fallback for one row.

        The scalar policy refits its forecaster after every observation
        (``refit_every=1``), which makes its decision a pure function of
        the retained history window — so a transient forecaster loaded
        with the same history reproduces it exactly.
        """
        forecaster = IdleTimeForecaster.from_history(
            self._arima_history(row),
            margin=self.config.arima_margin,
            max_history=self.config.arima_max_history,
        )
        result = forecaster.decide(
            minimum_keepalive_minutes=self.config.bin_width_minutes
        )
        return result.decision

    # ------------------------------------------------------------------ #
    # Introspection and scalar interop
    # ------------------------------------------------------------------ #
    def mode_counts(self, row: int) -> dict[str, int]:
        return {
            "histogram": int(self._histogram_decisions[row]),
            "standard": int(self._standard_decisions[row]),
            "arima": int(self._arima_decisions[row]),
        }

    def oob_idle_times(self, row: int) -> int:
        return int(self.histograms.oob_count[row])

    def describe(self) -> dict[str, object]:
        """Bank-level introspection used by reports."""
        return {
            "name": self.name,
            "num_apps": self.num_apps,
            "config": self.config.to_dict(),
            "invocations": int(self._invocations.sum()),
            "histogram_decisions": int(self._histogram_decisions.sum()),
            "standard_decisions": int(self._standard_decisions.sum()),
            "arima_decisions": int(self._arima_decisions.sum()),
            "out_of_bounds_idle_times": int(self.histograms.oob_count.sum()),
        }

    def extract_policy(self, row: int) -> "HybridHistogramPolicy":
        """Clone one row into an equivalent scalar hybrid policy.

        The clone adopts the row's histogram (including its incremental
        Welford state), forecaster history, and statistics counters, so
        continuing the row's invocation stream through the clone yields
        decisions bit-identical to continued banked stepping.
        """
        # Imported lazily: repro.core.hybrid imports repro.policies.base at
        # module level, so a module-level import here would cycle.
        from repro.core.hybrid import HybridHistogramPolicy, HybridPolicyStats

        policy = HybridHistogramPolicy(self.config)
        policy.histogram = self.histograms.extract_row(row)
        policy.forecaster = IdleTimeForecaster.from_history(
            self._arima_history(row),
            margin=self.config.arima_margin,
            max_history=self.config.arima_max_history,
        )
        policy.stats = HybridPolicyStats(
            invocations=int(self._invocations[row]),
            cold_starts=int(self._cold_starts[row]),
            histogram_decisions=int(self._histogram_decisions[row]),
            standard_decisions=int(self._standard_decisions[row]),
            arima_decisions=int(self._arima_decisions[row]),
            out_of_bounds_idle_times=int(self.histograms.oob_count[row]),
        )
        # The clock is per-application state the scalar policy keeps
        # privately; seeding it is what makes the clone a true resume.
        policy._last_invocation_end_minutes = (
            float(self._last_end[row]) if self._seen[row] else None
        )
        return policy
