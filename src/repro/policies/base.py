"""Keep-alive policy interface shared by baselines and the hybrid policy.

A *policy instance* manages a single application.  The simulator (and the
platform controller) calls :meth:`KeepAlivePolicy.on_invocation` once per
invocation of that application, at the instant the invocation's execution
ends, and receives back the :class:`~repro.core.windows.PolicyDecision`
(pre-warming window, keep-alive window) that governs the application's
image until the next invocation.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, ClassVar, Iterable

from repro.core.windows import PolicyDecision

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.policies.bank import PolicyBank


class KeepAlivePolicy(abc.ABC):
    """Per-application cold-start management policy.

    One instance tracks one application; create a fresh instance per
    application (see :class:`PolicyFactory` in :mod:`repro.policies.registry`).
    """

    #: Human-readable policy name used in reports and experiment labels.
    name: str = "policy"

    #: Capability flag for banked (struct-of-arrays) stepping
    #: (:meth:`~repro.simulation.coldstart.ColdStartSimulator.simulate_apps_banked`).
    #: A policy may set this to True only when :meth:`make_bank` returns a
    #: :class:`~repro.policies.bank.PolicyBank` whose rows make exactly the
    #: decisions a fresh per-application instance of this policy would
    #: make for the same invocation stream.
    supports_banked: ClassVar[bool] = False

    def make_bank(self, num_apps: int) -> "PolicyBank":
        """Build a policy bank equivalent to ``num_apps`` fresh instances.

        Only meaningful when :attr:`supports_banked` is True.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support banked simulation"
        )

    @abc.abstractmethod
    def on_invocation(self, now_minutes: float, *, cold: bool) -> PolicyDecision:
        """Process one invocation and return the windows until the next one.

        Args:
            now_minutes: Absolute time, in minutes, at which the invocation's
                execution ended (the simulator uses zero execution times, so
                this is also the arrival time).
            cold: Whether the invocation was a cold start, as determined by
                the caller from the previous decision.

        Returns:
            The pre-warming and keep-alive windows to apply from
            ``now_minutes`` until the next invocation.
        """

    def expected_interarrival_minutes(self) -> float | None:
        """Forecast mean time between this app's invocations, in minutes.

        Used by the predictive autoscaler to aggregate a fleet-wide
        arrival-rate estimate.  Return ``None`` (the default) when the
        policy has no forecast — stateless baselines, or history-driven
        policies that have not observed enough invocations yet.
        """
        return None

    def reset(self) -> None:
        """Forget all per-application state (default: nothing to forget)."""

    def describe(self) -> dict[str, object]:
        """Introspection hook used by reports; override to add detail."""
        return {"name": self.name}

    def replay(self, invocation_times_minutes: Iterable[float]) -> list[PolicyDecision]:
        """Feed a whole series of invocation times and collect the decisions.

        This mirrors what the cold-start simulator does, but without
        computing cold/warm outcomes: every invocation after the first is
        reported as warm.  Useful for unit tests and offline inspection of
        how a policy's windows evolve.
        """
        decisions: list[PolicyDecision] = []
        first = True
        for timestamp in invocation_times_minutes:
            decisions.append(self.on_invocation(float(timestamp), cold=first))
            first = False
        return decisions
