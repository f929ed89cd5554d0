"""Fixed keep-alive policy (state of the practice).

AWS Lambda and Azure Functions keep an application's resources in memory
for a fixed 10 and 20 minutes, respectively, after every function
execution; OpenWhisk uses 10 minutes.  The policy never pre-warms, applies
the same window to every application, and restarts the window after every
execution.  This is the baseline that the hybrid policy is compared
against throughout Section 5.
"""

from __future__ import annotations

from repro.core.windows import PolicyDecision
from repro.policies.base import KeepAlivePolicy


class FixedKeepAlivePolicy(KeepAlivePolicy):
    """Keep the application loaded for a fixed window after each execution.

    Args:
        keepalive_minutes: Length of the keep-alive window.  The paper
            sweeps 5, 10, 20, 30, 45, 60, 90 and 120 minutes (Figure 14);
            10 minutes is the OpenWhisk/AWS default and the normalization
            baseline for wasted memory time.
    """

    def __init__(self, keepalive_minutes: float = 10.0) -> None:
        if keepalive_minutes < 0:
            raise ValueError("keep-alive window must be non-negative")
        self.keepalive_minutes = float(keepalive_minutes)
        self.name = f"fixed-{self._format_minutes(self.keepalive_minutes)}"
        self._decision = PolicyDecision.fixed(self.keepalive_minutes)

    @staticmethod
    def _format_minutes(minutes: float) -> str:
        if minutes == int(minutes):
            return f"{int(minutes)}min"
        return f"{minutes:g}min"

    def on_invocation(self, now_minutes: float, *, cold: bool) -> PolicyDecision:
        del now_minutes, cold  # the fixed policy is oblivious to both
        return self._decision

    def describe(self) -> dict[str, object]:
        return {"name": self.name, "keepalive_minutes": self.keepalive_minutes}


#: Keep-alive lengths, in minutes, evaluated in Figure 14 of the paper.
FIGURE_14_KEEPALIVE_MINUTES: tuple[float, ...] = (5, 10, 20, 30, 45, 60, 90, 120)
