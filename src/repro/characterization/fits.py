"""Distribution fitting for execution times and memory (Figures 7 and 8).

The paper fits a log-normal distribution (by maximum likelihood) to the
per-function average execution times and a Burr XII distribution to the
per-application average allocated memory, and reports the fitted
parameters.  This module reproduces both fits plus a simple
goodness-of-fit summary (Kolmogorov–Smirnov distance) used by the tests
and the experiment reports.  ``scipy.stats`` is imported inside the
functions that use it, so importing this module stays cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class LogNormalFit:
    """Log-normal fit of execution times (paper: log-mean −0.38, σ 2.36)."""

    log_mean: float
    log_sigma: float
    ks_statistic: float
    sample_size: int

    def cdf(self, x: np.ndarray | float) -> np.ndarray:
        from scipy import stats

        return stats.lognorm.cdf(
            np.atleast_1d(np.asarray(x, dtype=float)),
            s=self.log_sigma,
            scale=math.exp(self.log_mean),
        )

    def quantile(self, q: np.ndarray | float) -> np.ndarray:
        from scipy import stats

        return stats.lognorm.ppf(
            np.atleast_1d(np.asarray(q, dtype=float)),
            s=self.log_sigma,
            scale=math.exp(self.log_mean),
        )

    @property
    def median(self) -> float:
        return math.exp(self.log_mean)


@dataclass(frozen=True)
class BurrFit:
    """Burr XII fit of allocated memory (paper: c=11.652, k=0.221, λ=107.083)."""

    c: float
    k: float
    scale: float
    ks_statistic: float
    sample_size: int

    def cdf(self, x: np.ndarray | float) -> np.ndarray:
        from scipy import stats

        return stats.burr12.cdf(
            np.atleast_1d(np.asarray(x, dtype=float)), c=self.c, d=self.k, scale=self.scale
        )

    def quantile(self, q: np.ndarray | float) -> np.ndarray:
        from scipy import stats

        return stats.burr12.ppf(
            np.atleast_1d(np.asarray(q, dtype=float)), c=self.c, d=self.k, scale=self.scale
        )

    @property
    def median(self) -> float:
        from scipy import stats

        return float(stats.burr12.median(c=self.c, d=self.k, scale=self.scale))


def fit_lognormal(
    samples: Sequence[float] | np.ndarray,
    weights: Sequence[float] | np.ndarray | None = None,
) -> LogNormalFit:
    """Maximum-likelihood log-normal fit, optionally sample-count weighted.

    The MLE of a log-normal is the mean and standard deviation of the log
    of the data; with weights (sample counts) it becomes the weighted mean
    and weighted standard deviation, which is exactly the paper's
    "weighted percentile" construction applied to the likelihood.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("cannot fit a distribution to an empty sample")
    if np.any(samples <= 0):
        raise ValueError("log-normal fitting requires strictly positive samples")
    if weights is None:
        weights = np.ones_like(samples)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != samples.shape:
            raise ValueError("weights must match the samples' shape")
        if np.any(weights < 0) or weights.sum() <= 0:
            raise ValueError("weights must be non-negative with positive total")
    from scipy import stats

    logs = np.log(samples)
    total = weights.sum()
    log_mean = float(np.sum(weights * logs) / total)
    log_var = float(np.sum(weights * (logs - log_mean) ** 2) / total)
    log_sigma = math.sqrt(max(log_var, 1e-18))
    ks = _ks_distance(
        samples,
        weights,
        lambda x: stats.lognorm.cdf(x, s=log_sigma, scale=math.exp(log_mean)),
    )
    return LogNormalFit(
        log_mean=log_mean,
        log_sigma=log_sigma,
        ks_statistic=ks,
        sample_size=int(samples.size),
    )


def fit_burr(
    samples: Sequence[float] | np.ndarray,
    weights: Sequence[float] | np.ndarray | None = None,
) -> BurrFit:
    """Burr XII fit of (memory) samples.

    Uses ``scipy.stats.burr12.fit`` with the location pinned to zero, which
    matches the paper's three-parameter (c, k, λ) form.  Weights are
    honoured by replicating high-weight samples proportionally before
    fitting (the dataset weights are integer sample counts).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("cannot fit a distribution to an empty sample")
    if np.any(samples <= 0):
        raise ValueError("Burr fitting requires strictly positive samples")
    expanded = samples
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != samples.shape:
            raise ValueError("weights must match the samples' shape")
        # Cap replication so pathological weights cannot explode memory.
        scaled = np.maximum(np.round(weights / max(weights.min(), 1.0)), 1).astype(int)
        scaled = np.minimum(scaled, 100)
        expanded = np.repeat(samples, scaled)
    from scipy import stats

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        c, d, _, scale = stats.burr12.fit(expanded, floc=0)
    ks = _ks_distance(
        samples,
        np.ones_like(samples) if weights is None else weights,
        lambda x: stats.burr12.cdf(x, c=c, d=d, scale=scale),
    )
    return BurrFit(
        c=float(c),
        k=float(d),
        scale=float(scale),
        ks_statistic=ks,
        sample_size=int(samples.size),
    )


def _ks_distance(samples: np.ndarray, weights: np.ndarray, cdf) -> float:
    """Kolmogorov–Smirnov distance between a weighted sample and a CDF."""
    order = np.argsort(samples)
    sorted_samples = samples[order]
    sorted_weights = weights[order]
    empirical = np.cumsum(sorted_weights) / sorted_weights.sum()
    model = np.asarray(cdf(sorted_samples), dtype=float).reshape(-1)
    return float(np.max(np.abs(empirical - model)))
