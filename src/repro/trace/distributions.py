"""Published marginal distributions of the Azure Functions workload.

Every constant in this module is lifted directly from Section 3 of the
paper; the synthetic workload generator samples from these distributions
so that the resulting traces match the paper's characterization
figure-by-figure:

* Figure 1 — functions per application (54% single-function, 95% ≤ 10);
* Figure 2 — trigger shares by functions and by invocations;
* Figure 3 — trigger combinations per application;
* Figure 5 — daily invocation rates spanning 8 orders of magnitude, with
  45% of applications at ≤ 1 invocation/hour and 81% at ≤ 1/minute;
* Figure 7 — log-normal execution times (log-mean −0.38, σ 2.36 seconds);
* Figure 8 — Burr XII allocated memory (c=11.652, k=0.221, λ=107.083 MB).

Sampling needs only ``scipy.special``; ``scipy.stats`` (~45 MB resident)
is imported by the CDF and median methods alone, so a process that
generates, simulates or replays never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy import special

from repro.trace.schema import TriggerType

# --------------------------------------------------------------------------- #
# Figure 2: trigger shares
# --------------------------------------------------------------------------- #
#: Fraction of *functions* using each trigger type (Figure 2, left column).
TRIGGER_FUNCTION_SHARES: Mapping[TriggerType, float] = {
    TriggerType.HTTP: 0.550,
    TriggerType.QUEUE: 0.152,
    TriggerType.EVENT: 0.022,
    TriggerType.ORCHESTRATION: 0.069,
    TriggerType.TIMER: 0.156,
    TriggerType.STORAGE: 0.028,
    TriggerType.OTHERS: 0.022,
}

#: Fraction of *invocations* issued by each trigger type (Figure 2, right).
TRIGGER_INVOCATION_SHARES: Mapping[TriggerType, float] = {
    TriggerType.HTTP: 0.359,
    TriggerType.QUEUE: 0.335,
    TriggerType.EVENT: 0.247,
    TriggerType.ORCHESTRATION: 0.023,
    TriggerType.TIMER: 0.020,
    TriggerType.STORAGE: 0.007,
    TriggerType.OTHERS: 0.010,
}

# --------------------------------------------------------------------------- #
# Figure 3(b): most common trigger combinations per application.
# Values are fractions of applications; the remainder is spread over rarer
# combinations which the generator folds into the closest listed combination.
# --------------------------------------------------------------------------- #
TRIGGER_COMBINATION_SHARES: Mapping[str, float] = {
    "H": 0.4327,
    "T": 0.1336,
    "Q": 0.0947,
    "HT": 0.0459,
    "HQ": 0.0422,
    "E": 0.0301,
    "S": 0.0280,
    "TQ": 0.0257,
    "HTQ": 0.0248,
    "Ho": 0.0169,
    "HS": 0.0105,
    "HO": 0.0103,
    # Remaining ~10.5% of applications: folded into a few representative
    # multi-trigger combinations so that the per-trigger app shares of
    # Figure 3(a) stay approximately correct.
    "HE": 0.0300,
    "TO": 0.0200,
    "QS": 0.0150,
    "HTo": 0.0153,
    "o": 0.0243,
}

#: Fraction of applications with at least one trigger of each type (Fig. 3a).
TRIGGER_APP_SHARES: Mapping[TriggerType, float] = {
    TriggerType.HTTP: 0.6407,
    TriggerType.TIMER: 0.2915,
    TriggerType.QUEUE: 0.2370,
    TriggerType.STORAGE: 0.0683,
    TriggerType.EVENT: 0.0579,
    TriggerType.ORCHESTRATION: 0.0309,
    TriggerType.OTHERS: 0.0628,
}

# --------------------------------------------------------------------------- #
# Figure 7: execution times (seconds). Log-normal MLE fit reported in the
# paper: log-mean -0.38, sigma 2.36 (natural log, seconds).
# --------------------------------------------------------------------------- #
EXECUTION_TIME_LOG_MEAN = -0.38
EXECUTION_TIME_LOG_SIGMA = 2.36

# --------------------------------------------------------------------------- #
# Figure 8: allocated memory (MB). Burr XII fit reported in the paper:
# c = 11.652, k = 0.221, lambda (scale) = 107.083.
# --------------------------------------------------------------------------- #
MEMORY_BURR_C = 11.652
MEMORY_BURR_K = 0.221
MEMORY_BURR_SCALE = 107.083

# --------------------------------------------------------------------------- #
# Figure 1: functions per application. Anchors of the CDF quoted in the text:
# 54% of apps have exactly one function, 95% have at most 10, ~0.04% > 100.
# --------------------------------------------------------------------------- #
FUNCTIONS_PER_APP_ANCHORS: Sequence[tuple[int, float]] = (
    (1, 0.54),
    (2, 0.70),
    (3, 0.79),
    (5, 0.89),
    (10, 0.95),
    (20, 0.98),
    (50, 0.995),
    (100, 0.9996),
    (1000, 1.0),
)

# --------------------------------------------------------------------------- #
# Figure 5(a): average invocations per day of applications.
# Anchors: 45% of applications average at most one invocation per hour
# (24/day) and 81% at most one per minute (1440/day); the full range spans
# roughly 8 orders of magnitude.
# --------------------------------------------------------------------------- #
DAILY_RATE_ANCHORS: Sequence[tuple[float, float]] = (
    (0.15, 0.05),        # a few invocations over the whole two weeks
    (1.0, 0.18),         # about one invocation per day
    (24.0, 0.45),        # one per hour
    (288.0, 0.70),       # one per five minutes
    (1440.0, 0.81),      # one per minute
    (14400.0, 0.92),     # ten per minute
    (144000.0, 0.975),   # a hundred per minute
    (1.0e6, 0.995),
    (1.0e7, 1.0),
)


@dataclass(frozen=True)
class LogNormalExecutionModel:
    """Log-normal execution-time model of Figure 7."""

    log_mean: float = EXECUTION_TIME_LOG_MEAN
    log_sigma: float = EXECUTION_TIME_LOG_SIGMA

    def sample_average_seconds(
        self, rng: np.random.Generator, size: int | None = 1
    ) -> np.ndarray | float:
        """Sample per-function *average* execution times, in seconds.

        ``size=None`` draws one Python float, the same value a size-1
        draw would hold, without building an array.
        """
        return rng.lognormal(self.log_mean, self.log_sigma, size=size)

    def cdf(self, seconds: np.ndarray) -> np.ndarray:
        """CDF of the fitted log-normal at the given execution times."""
        from scipy import stats

        return stats.lognorm.cdf(seconds, s=self.log_sigma, scale=math.exp(self.log_mean))

    def median_seconds(self) -> float:
        return math.exp(self.log_mean)


@dataclass(frozen=True)
class BurrMemoryModel:
    """Burr XII allocated-memory model of Figure 8."""

    c: float = MEMORY_BURR_C
    k: float = MEMORY_BURR_K
    scale: float = MEMORY_BURR_SCALE

    def sample_mb(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Sample per-application average allocated memory, in MB.

        Inverse-transform sampling with the very ufuncs
        ``scipy.stats.burr12.ppf`` evaluates (its ``_ppf`` times the
        scale), so the draws equal it bit for bit.  numpy's own
        ``log1p``/``expm1`` differ from these in the last bit.
        """
        uniform = rng.random(size)
        return special.expm1(-1 / self.k * special.log1p(-uniform)) ** (1 / self.c) * self.scale

    def cdf(self, memory_mb: np.ndarray) -> np.ndarray:
        from scipy import stats

        return stats.burr12.cdf(memory_mb, c=self.c, d=self.k, scale=self.scale)

    def median_mb(self) -> float:
        from scipy import stats

        return float(stats.burr12.median(c=self.c, d=self.k, scale=self.scale))


class AnchoredCdfSampler:
    """Sample from a distribution specified by CDF anchor points.

    The anchors give ``(value, cumulative_probability)`` pairs; samples are
    produced by inverse-transform sampling with log-linear interpolation
    between anchors, which is appropriate for the heavy-tailed, orders-of-
    magnitude-spanning quantities of Figures 1 and 5.
    """

    def __init__(self, anchors: Sequence[tuple[float, float]], *, log_space: bool = True) -> None:
        if len(anchors) < 2:
            raise ValueError("need at least two anchor points")
        values = np.asarray([a[0] for a in anchors], dtype=float)
        probs = np.asarray([a[1] for a in anchors], dtype=float)
        if np.any(np.diff(values) <= 0):
            raise ValueError("anchor values must be strictly increasing")
        if np.any(np.diff(probs) < 0) or probs[-1] <= 0:
            raise ValueError("anchor probabilities must be non-decreasing and end above 0")
        if np.any(values <= 0) and log_space:
            raise ValueError("log-space anchors require positive values")
        self._values = values
        self._probs = probs / probs[-1]
        self._log_space = log_space

    def quantile(self, q: np.ndarray | float) -> np.ndarray:
        """Inverse CDF at probability ``q``."""
        q = np.atleast_1d(np.asarray(q, dtype=float))
        q = np.clip(q, 0.0, 1.0)
        if self._log_space:
            log_values = np.log(self._values)
            result = np.interp(q, self._probs, log_values, left=log_values[0])
            return np.exp(result)
        return np.interp(q, self._probs, self._values, left=self._values[0])

    def cdf(self, values: np.ndarray | float) -> np.ndarray:
        """Interpolated CDF at the given values."""
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if self._log_space:
            safe = np.clip(values, self._values[0], self._values[-1])
            return np.interp(np.log(safe), np.log(self._values), self._probs)
        return np.interp(values, self._values, self._probs)

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` samples by inverse-transform sampling."""
        return self.quantile(rng.random(size))


def functions_per_app_sampler() -> AnchoredCdfSampler:
    """Sampler for the number of functions per application (Figure 1)."""
    anchors = [(float(v), p) for v, p in FUNCTIONS_PER_APP_ANCHORS]
    return AnchoredCdfSampler(anchors, log_space=True)


def daily_rate_sampler() -> AnchoredCdfSampler:
    """Sampler for the average daily invocation rate of an application (Fig. 5a)."""
    return AnchoredCdfSampler(list(DAILY_RATE_ANCHORS), log_space=True)


def sample_functions_per_app(rng: np.random.Generator, size: int = 1) -> np.ndarray:
    """Draw integer function counts per application.

    The anchors specify ``P(X <= v)``, so the continuous inverse-CDF draw is
    rounded *up* to the next integer: a draw in ``(1, 2]`` means "more than
    one function", which keeps the share of single-function applications at
    the anchored 54%.
    """
    raw = functions_per_app_sampler().sample(rng, size)
    return np.maximum(np.ceil(raw - 1e-9).astype(int), 1)


def sample_daily_rates(rng: np.random.Generator, size: int = 1) -> np.ndarray:
    """Draw per-application average invocations per day."""
    return daily_rate_sampler().sample(rng, size)


def sample_trigger_combinations(rng: np.random.Generator, size: int = 1) -> list[str]:
    """Draw per-application trigger combinations per Figure 3(b)."""
    combos = list(TRIGGER_COMBINATION_SHARES)
    weights = np.asarray([TRIGGER_COMBINATION_SHARES[c] for c in combos], dtype=float)
    weights = weights / weights.sum()
    indices = rng.choice(len(combos), size=size, p=weights)
    return [combos[i] for i in indices]


def normalized_trigger_weights(
    shares: Mapping[TriggerType, float]
) -> tuple[list[TriggerType], np.ndarray]:
    """Return triggers and normalized weights from a share mapping."""
    triggers = list(shares)
    weights = np.asarray([shares[t] for t in triggers], dtype=float)
    return triggers, weights / weights.sum()


#: Default execution-time model instance (Figure 7 fit).
EXECUTION_MODEL = LogNormalExecutionModel()

#: Default memory model instance (Figure 8 fit).
MEMORY_MODEL = BurrMemoryModel()
