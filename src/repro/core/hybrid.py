"""The hybrid histogram keep-alive policy (Section 4.2, Figure 10).

For each application the policy:

1. updates the application's idle-time (IT) distribution — a compact,
   range-limited histogram with 1-minute bins — after every invocation;
2. if too many ITs fall outside the histogram range, forecasts the next IT
   with an ARIMA model and schedules a pre-warm just before it;
3. otherwise, if the histogram is *representative* (enough observations and
   a sufficiently concentrated shape, measured by the coefficient of
   variation of the bin counts), derives the pre-warming window from the
   head of the IT distribution (5th percentile) and the keep-alive window
   from its tail (99th percentile), with a 10% safety margin on each;
4. otherwise falls back to a conservative *standard keep-alive*:
   no unloading after the execution and a keep-alive window equal to the
   full histogram range.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.config import HybridPolicyConfig
from repro.core.forecaster import IdleTimeForecaster
from repro.core.histogram import IdleTimeHistogram
from repro.core.windows import PolicyDecision
from repro.policies.base import KeepAlivePolicy


class PolicyMode(enum.Enum):
    """Which component of the hybrid policy produced the latest decision."""

    STANDARD_KEEPALIVE = "standard-keepalive"
    HISTOGRAM = "histogram"
    ARIMA = "arima"


@dataclass
class HybridPolicyStats:
    """Counters describing how often each component was exercised."""

    invocations: int = 0
    cold_starts: int = 0
    histogram_decisions: int = 0
    standard_decisions: int = 0
    arima_decisions: int = 0
    out_of_bounds_idle_times: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "invocations": self.invocations,
            "cold_starts": self.cold_starts,
            "histogram_decisions": self.histogram_decisions,
            "standard_decisions": self.standard_decisions,
            "arima_decisions": self.arima_decisions,
            "out_of_bounds_idle_times": self.out_of_bounds_idle_times,
        }


class HybridHistogramPolicy(KeepAlivePolicy):
    """Per-application hybrid histogram policy.

    Args:
        config: Policy parameters; defaults to the paper's configuration
            (4-hour range, 1-minute bins, [5, 99] cutoffs, 10% margins,
            CV threshold of 2, 15% ARIMA margin).
    """

    #: Banked stepping may replace per-application instances of this
    #: policy with one HybridPolicyBank (repro.policies.bank).
    supports_banked = True

    def __init__(self, config: HybridPolicyConfig | None = None) -> None:
        self.config = config or HybridPolicyConfig()
        self.name = f"hybrid-{self.config.histogram_range_minutes / 60:g}h"
        self.histogram = IdleTimeHistogram(
            range_minutes=self.config.histogram_range_minutes,
            bin_width_minutes=self.config.bin_width_minutes,
        )
        self.forecaster = IdleTimeForecaster(
            margin=self.config.arima_margin,
            max_history=self.config.arima_max_history,
        )
        self.stats = HybridPolicyStats()
        self._last_invocation_end_minutes: float | None = None
        self._last_mode: PolicyMode | None = None
        self._last_decision: PolicyDecision | None = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def last_mode(self) -> PolicyMode | None:
        """Mode used for the most recent decision."""
        return self._last_mode

    @property
    def last_decision(self) -> PolicyDecision | None:
        """Most recent decision (None before the first invocation)."""
        return self._last_decision

    def describe(self) -> dict[str, object]:
        return {
            "name": self.name,
            "config": self.config.to_dict(),
            "stats": self.stats.as_dict(),
            "histogram_oob_fraction": self.histogram.oob_fraction,
            "histogram_bin_count_cv": self.histogram.bin_count_cv,
        }

    def make_bank(self, num_apps: int) -> "HybridPolicyBank":
        """Bank equivalent to ``num_apps`` fresh copies of this policy."""
        # Imported lazily: repro.policies.bank imports this module's
        # classes for scalar extraction, so a module-level import cycles.
        from repro.policies.bank import HybridPolicyBank

        return HybridPolicyBank(num_apps, self.config)

    def expected_interarrival_minutes(self) -> float | None:
        """Mean idle time from the IT histogram (predictive autoscaling).

        Only answers once the histogram holds enough in-bounds samples to
        be meaningful (the same ``min_observations`` bar that gates
        histogram-mode decisions); out-of-bounds-dominated apps simply
        abstain rather than extrapolating from a truncated distribution.
        """
        if self.histogram.in_bounds_count < self.config.min_observations:
            return None
        return self.histogram.mean_idle_time()

    def reset(self) -> None:
        self.histogram.reset()
        self.forecaster.reset()
        self.stats = HybridPolicyStats()
        self._last_invocation_end_minutes = None
        self._last_mode = None
        self._last_decision = None

    # ------------------------------------------------------------------ #
    # Decision logic
    # ------------------------------------------------------------------ #
    def on_invocation(self, now_minutes: float, *, cold: bool) -> PolicyDecision:
        if (
            self._last_invocation_end_minutes is not None
            and now_minutes < self._last_invocation_end_minutes
        ):
            raise ValueError(
                "invocation times must be non-decreasing: "
                f"{now_minutes} < {self._last_invocation_end_minutes}"
            )
        self.stats.invocations += 1
        if cold:
            self.stats.cold_starts += 1
        # Step 1 of Figure 10: update the application's IT distribution.
        if self._last_invocation_end_minutes is not None:
            idle_time = now_minutes - self._last_invocation_end_minutes
            in_bounds = self.histogram.observe(idle_time)
            if not in_bounds:
                self.stats.out_of_bounds_idle_times += 1
            self.forecaster.observe(idle_time)
        self._last_invocation_end_minutes = now_minutes
        decision, mode = self._decide()
        if not self.config.enable_prewarming and decision.prewarm_minutes > 0:
            # "Hybrid No PW" (Figure 17): keep the tail-derived keep-alive but
            # never unload right after the execution.
            decision = PolicyDecision(
                prewarm_minutes=0.0,
                keepalive_minutes=decision.prewarm_minutes + decision.keepalive_minutes,
            )
        self._last_mode = mode
        self._last_decision = decision
        if mode is PolicyMode.HISTOGRAM:
            self.stats.histogram_decisions += 1
        elif mode is PolicyMode.STANDARD_KEEPALIVE:
            self.stats.standard_decisions += 1
        else:
            self.stats.arima_decisions += 1
        return decision

    def _decide(self) -> tuple[PolicyDecision, PolicyMode]:
        """Apply the Figure 10 state machine to the current histogram."""
        if self._should_use_arima():
            return self._arima_decision()
        if self._histogram_is_representative():
            return self._histogram_decision()
        return self._standard_keepalive_decision()

    # -- component selectors ------------------------------------------- #
    def _should_use_arima(self) -> bool:
        if not self.config.enable_arima:
            return False
        if self.histogram.total_count < self.config.oob_min_observations:
            return False
        return self.histogram.oob_fraction > self.config.oob_fraction_threshold

    def _histogram_is_representative(self) -> bool:
        if self.histogram.in_bounds_count < self.config.min_observations:
            return False
        return self.histogram.bin_count_cv >= self.config.cv_threshold

    # -- decisions ------------------------------------------------------ #
    def _standard_keepalive_decision(self) -> tuple[PolicyDecision, PolicyMode]:
        decision = PolicyDecision(
            prewarm_minutes=0.0,
            keepalive_minutes=self.config.histogram_range_minutes,
        )
        return decision, PolicyMode.STANDARD_KEEPALIVE

    def _histogram_decision(self) -> tuple[PolicyDecision, PolicyMode]:
        # head_cutoff / tail_cutoff of both percentiles, from one cumsum.
        head_bin, tail_bin = self.histogram.percentile_bins(
            (self.config.head_percentile, self.config.tail_percentile)
        ).tolist()
        width = self.histogram.bin_width_minutes
        head = head_bin * width
        tail = (tail_bin + 1) * width
        prewarm = head * (1.0 - self.config.prewarm_margin)
        keepalive_end = tail * (1.0 + self.config.keepalive_margin)
        if prewarm < self.config.bin_width_minutes:
            # The head marker rounded down to the first bin: do not unload.
            prewarm = 0.0
        keepalive = max(keepalive_end - prewarm, self.config.bin_width_minutes)
        decision = PolicyDecision(prewarm_minutes=prewarm, keepalive_minutes=keepalive)
        return decision, PolicyMode.HISTOGRAM

    def _arima_decision(self) -> tuple[PolicyDecision, PolicyMode]:
        result = self.forecaster.decide(
            minimum_keepalive_minutes=self.config.bin_width_minutes
        )
        return result.decision, PolicyMode.ARIMA
