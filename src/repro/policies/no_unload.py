"""No-unloading policy: every application stays resident forever.

This is the upper bound used in Figures 14 and 16–18: each application
pays exactly one cold start (its first invocation) and nothing else, at
the cost of keeping every application image in memory for the entire
simulation, which is prohibitively expensive for a provider.
"""

from __future__ import annotations

from repro.core.windows import PolicyDecision
from repro.policies.base import KeepAlivePolicy


class NoUnloadingPolicy(KeepAlivePolicy):
    """Never unload an application once it has been loaded."""

    name = "no-unloading"

    def __init__(self) -> None:
        self._decision = PolicyDecision.no_unloading()

    def on_invocation(self, now_minutes: float, *, cold: bool) -> PolicyDecision:
        del now_minutes, cold
        return self._decision

    def describe(self) -> dict[str, object]:
        return {"name": self.name, "keepalive_minutes": float("inf")}
