"""Trace-driven cold-start simulator (Section 5.1 of the paper).

The simulator replays an application's invocation timestamps against a
keep-alive policy and determines, for every invocation, whether it would
have been a warm or a cold start, while accumulating the *wasted memory
time*: the time the application's image was kept in memory without
executing anything.

The paper's methodology is fixed, with no options:

* the first invocation of every application is a cold start;
* memory kept loaded after the last invocation, up to the horizon, counts
  as waste;
* every application weighs the same (memory data does not exist for every
  application), so waste is in minutes, not MB·minutes;
* function execution times are simulated as zero, which makes the measured
  wasted memory time a conservative (worst-case) figure and makes idle
  times equal to inter-arrival times;
* applications are simulated independently (the policy is per-application
  and there is no contention in the simulator — capacity effects are the
  platform substrate's job).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.hybrid import HybridHistogramPolicy
from repro.core.windows import PolicyDecision
from repro.policies.base import KeepAlivePolicy
from repro.simulation.metrics import AppSimResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.policies.bank import PolicyBank

#: Below this many still-active applications the banked grouped-stepping
#: loop drains the remainder to the scalar engine: per-step numpy
#: dispatch overhead exceeds the scalar per-invocation cost once only a
#: handful of (necessarily long) applications are left.
DEFAULT_SCALAR_DRAIN_THRESHOLD = 8


class ColdStartSimulator:
    """Simulates one keep-alive policy over per-application invocation times.

    Args:
        horizon_minutes: End of the simulation window.  Keep-alive windows
            extending past the horizon only accumulate waste up to the
            horizon (the trace ends there).
    """

    def __init__(self, horizon_minutes: float) -> None:
        if horizon_minutes <= 0:
            raise ValueError("simulation horizon must be positive")
        self.horizon_minutes = float(horizon_minutes)

    # ------------------------------------------------------------------ #
    def simulate_app(
        self,
        app_id: str,
        invocation_times_minutes: Sequence[float] | np.ndarray,
        policy: KeepAlivePolicy,
    ) -> AppSimResult:
        """Simulate one application under one policy instance.

        Args:
            app_id: Application identifier (only used for reporting).
            invocation_times_minutes: Sorted invocation timestamps.
            policy: A fresh policy instance dedicated to this application.

        Raises:
            ValueError: When a timestamp falls outside ``[0, horizon]``, or
                when the timestamps are unsorted (an out-of-order trace
                usually signals a malformed loader).
        """
        times = self._validated_times(invocation_times_minutes)
        return self._replay_scalar(app_id, times, policy)

    def _replay_scalar(
        self,
        app_id: str,
        times: np.ndarray,
        policy: KeepAlivePolicy,
        *,
        step: int = 0,
        previous_time: float = 0.0,
        previous_decision: PolicyDecision | None = None,
        cold_count: int = 0,
        wasted_minutes: float = 0.0,
    ) -> AppSimResult:
        """The scalar loop over ``times[step:]``, from the given accumulators.

        One ``policy.on_invocation`` call per invocation.  Without a
        previous decision the invocation is the application's first and
        is cold; every later one is cold unless the previous decision's
        window covers it, and the loaded time before it is waste.  Memory
        kept loaded after the last invocation, up to the horizon, is waste
        too.
        """
        for timestamp in times[step:]:
            timestamp = float(timestamp)
            if previous_decision is None:
                cold = True
            else:
                cold = not previous_decision.covers(previous_time, timestamp)
                wasted_minutes += self._waste_between(
                    previous_time, previous_decision, timestamp
                )
            if cold:
                cold_count += 1
            previous_decision = policy.on_invocation(timestamp, cold=cold)
            previous_time = timestamp
        if previous_decision is not None:
            wasted_minutes += self._waste_between(
                previous_time, previous_decision, self.horizon_minutes
            )
        mode_counts, oob_idle_times = _policy_mode_fields(policy)
        return AppSimResult(
            app_id=app_id,
            invocations=int(times.size),
            cold_starts=cold_count,
            wasted_memory_minutes=wasted_minutes,
            mode_counts=mode_counts,
            oob_idle_times=oob_idle_times,
        )

    # ------------------------------------------------------------------ #
    def validate_csr(self, times: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Validate many applications' timestamps in one vectorized pass.

        The applications are in CSR layout: application ``i``'s
        timestamps are ``times[offsets[i]:offsets[i + 1]]``.  Each must
        meet :meth:`simulate_app`'s contract — within ``[0, horizon]``,
        ascending — while one application's first timestamp may lie below
        the previous one's last.  Raises the ``ValueError`` that
        validating the applications one by one would raise first.  Used
        by the family evaluators of :mod:`repro.simulation.sweep_engine`.
        """
        times = np.asarray(times, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.int64)
        starts = offsets[:-1][np.diff(offsets) > 0]  # non-empty applications
        if starts.size == 0:
            return times
        # Per-application extremes, which propagate NaN like the per-app
        # np.min / np.max do, and descents within an application.
        outside = (np.minimum.reduceat(times, starts) < 0) | (
            np.maximum.reduceat(times, starts) > self.horizon_minutes
        )
        descents = times[1:] < times[:-1]
        descents[starts[1:] - 1] = False
        if not outside.any() and not descents.any():
            return times
        # The first failing application raises its own ValueError.
        first = min(
            int(starts[np.argmax(outside)]) if outside.any() else times.size,
            int(np.argmax(descents)) + 1 if descents.any() else times.size,
        )
        app = int(np.searchsorted(offsets, first, side="right")) - 1
        self._validated_times(times[offsets[app] : offsets[app + 1]])
        raise AssertionError("flat validation disagrees with per-app validation")

    def _validated_times(
        self, invocation_times_minutes: Sequence[float] | np.ndarray
    ) -> np.ndarray:
        """Validate one application's timestamps (shared by every engine).

        The range check comes first, so a trace that is both unsorted and
        out of the horizon is reported as out of the horizon.
        """
        times = np.asarray(invocation_times_minutes, dtype=np.float64)
        if times.size:
            if float(np.min(times)) < 0 or float(np.max(times)) > self.horizon_minutes:
                raise ValueError(
                    "invocation timestamps fall outside the simulation horizon"
                )
            if np.any(np.diff(times) < 0):
                raise ValueError("invocation timestamps must be sorted ascending")
        return times

    # ------------------------------------------------------------------ #
    def _waste_between(
        self, previous_time: float, decision: PolicyDecision, next_time: float
    ) -> float:
        """Idle loaded time between two consecutive invocations.

        The image is loaded over ``[load_start, load_end)`` as scheduled by
        the previous decision; any part of that interval before the next
        invocation (clipped to the horizon) is waste, because the simulated
        execution time is zero.
        """
        load_start, load_end = decision.loaded_interval(previous_time)
        effective_end = min(load_end, next_time, self.horizon_minutes)
        if effective_end <= load_start:
            return 0.0
        return effective_end - load_start

    # ------------------------------------------------------------------ #
    # Banked (grouped-stepping) execution
    # ------------------------------------------------------------------ #
    def simulate_apps_banked(
        self,
        app_ids: Sequence[str],
        invocation_times: Sequence[Sequence[float] | np.ndarray],
        bank_factory: Callable[[int], "PolicyBank"],
        *,
        scalar_drain_threshold: int = DEFAULT_SCALAR_DRAIN_THRESHOLD,
    ) -> list[AppSimResult]:
        """Simulate many applications at once through one policy bank.

        Applications are assigned bank rows in non-increasing order of
        invocation count and stepped together: step ``k`` feeds the
        ``k``-th invocation of every application that has one, so the
        active set at every step is a row prefix (the bank protocol of
        :mod:`repro.policies.bank`).  Cold/warm outcomes and wasted
        memory are computed with the same per-gap float operations as the
        scalar loop, accumulated in the same per-application order, so
        the results match :meth:`simulate_app` bit for bit.

        Once fewer than ``scalar_drain_threshold`` applications remain
        active (the longest streams), each remaining row is cloned into
        an equivalent scalar policy (:meth:`PolicyBank.extract_policy`)
        and finished through the scalar loop — numpy dispatch overhead on
        a handful of rows would otherwise dominate.  Banks that do not
        support extraction are stepped to the end.

        Args:
            app_ids: One identifier per application (reporting only).
            invocation_times: Sorted invocation timestamps per application
                (same contract as :meth:`simulate_app`: within
                ``[0, horizon]``, ascending).
            bank_factory: Builds the bank; called once with the number of
                applications.
            scalar_drain_threshold: Active-set size at or below which the
                remaining applications are drained to the scalar engine;
                0 disables draining.

        Returns:
            One :class:`AppSimResult` per application, in input order.
        """
        num_apps = len(app_ids)
        if len(invocation_times) != num_apps:
            raise ValueError("one invocation array is required per application")
        times_arrays = [self._validated_times(times) for times in invocation_times]

        counts = np.array([array.size for array in times_arrays], dtype=np.int64)
        # Longest applications first, stable, so the active set at step k
        # is always the row prefix [0, n_k).
        order = np.argsort(-counts, kind="stable")
        counts_sorted = counts[order]
        flat = (
            np.concatenate([times_arrays[i] for i in order])
            if num_apps
            else np.zeros(0, dtype=np.float64)
        )
        offsets = np.zeros(num_apps, dtype=np.int64)
        if num_apps:
            np.cumsum(counts_sorted[:-1], out=offsets[1:])
        max_count = int(counts_sorted[0]) if num_apps else 0
        # Active-set size per step: the number of applications with more
        # than k invocations.
        occupancy = np.bincount(counts_sorted, minlength=max_count + 1)
        active_per_step = num_apps - np.cumsum(occupancy)[:max_count]

        bank = bank_factory(num_apps)
        # Input timestamps were validated sorted above; let the bank skip
        # its own per-step monotonicity check.
        bank.assume_monotonic = True
        prewarm = np.zeros(num_apps, dtype=np.float64)
        keepalive = np.zeros(num_apps, dtype=np.float64)
        cold_counts = np.zeros(num_apps, dtype=np.int64)
        wasted = np.zeros(num_apps, dtype=np.float64)
        previous_times = np.zeros(0, dtype=np.float64)
        drained: list[AppSimResult | None] = [None] * num_apps

        for step in range(max_count):
            active = int(active_per_step[step])
            if (
                bank.supports_extraction
                and active <= scalar_drain_threshold
                and active > 0
            ):
                # The scalar loop resumes each row's banked accumulators.
                for row in range(active):
                    drained[row] = self._replay_scalar(
                        app_ids[order[row]],
                        flat[offsets[row] : offsets[row] + counts_sorted[row]],
                        bank.extract_policy(row),
                        step=step,
                        previous_time=float(previous_times[row]) if step else 0.0,
                        previous_decision=(
                            PolicyDecision(
                                prewarm_minutes=float(prewarm[row]),
                                keepalive_minutes=float(keepalive[row]),
                            )
                            if step
                            else None
                        ),
                        cold_count=int(cold_counts[row]),
                        wasted_minutes=float(wasted[row]),
                    )
                break
            now = flat[offsets[:active] + step]
            if step == 0:
                cold = np.ones(active, dtype=bool)
            else:
                load_start = previous_times[:active] + prewarm[:active]
                load_end = load_start + keepalive[:active]
                # Same boundaries as PolicyDecision.covers: its zero-prewarm
                # branch (now <= load_end) coincides with the two-sided
                # check here because load_start == previous <= now under
                # sorted per-app timestamps.
                cold = ~((load_start <= now) & (now <= load_end))
                # Same per-gap terms, accumulated in the same per-app
                # order, as the scalar _waste_between loop.
                effective_end = np.minimum(
                    np.minimum(load_end, now), self.horizon_minutes
                )
                wasted[:active] += np.maximum(effective_end - load_start, 0.0)
            cold_counts[:active] += cold
            step_prewarm, step_keepalive = bank.on_invocations(now, cold)
            prewarm[:active] = step_prewarm
            keepalive[:active] = step_keepalive
            previous_times = now

        results: list[AppSimResult | None] = [None] * num_apps
        for row in range(num_apps):
            item = int(order[row])
            if drained[row] is not None:
                results[item] = drained[row]
                continue
            count = int(counts_sorted[row])
            wasted_minutes = float(wasted[row])
            if count > 0:
                last_time = float(flat[offsets[row] + count - 1])
                wasted_minutes += self._waste_between(
                    last_time,
                    PolicyDecision(
                        prewarm_minutes=float(prewarm[row]),
                        keepalive_minutes=float(keepalive[row]),
                    ),
                    self.horizon_minutes,
                )
            results[item] = AppSimResult(
                app_id=app_ids[item],
                invocations=count,
                cold_starts=int(cold_counts[row]),
                wasted_memory_minutes=wasted_minutes,
                mode_counts=bank.mode_counts(row),
                oob_idle_times=bank.oob_idle_times(row),
            )
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]


def _policy_mode_fields(policy: KeepAlivePolicy) -> tuple[dict[str, int], int]:
    """Decision-mode counters and OOB count carried into AppSimResult."""
    if isinstance(policy, HybridHistogramPolicy):
        stats = policy.stats
        return (
            {
                "histogram": stats.histogram_decisions,
                "standard": stats.standard_decisions,
                "arima": stats.arima_decisions,
            },
            stats.out_of_bounds_idle_times,
        )
    return {}, 0


def simulate_application(
    invocation_times_minutes: Sequence[float] | np.ndarray,
    policy: KeepAlivePolicy,
    *,
    horizon_minutes: float,
    app_id: str = "app",
) -> AppSimResult:
    """One-call convenience wrapper around :class:`ColdStartSimulator`."""
    return ColdStartSimulator(horizon_minutes).simulate_app(
        app_id, invocation_times_minutes, policy
    )
