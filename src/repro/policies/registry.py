"""Policy factories and a small string-spec registry.

The simulator creates one policy instance per application.  A
:class:`PolicyFactory` captures "which policy, with which parameters" and
produces fresh instances on demand; for banked-capable policies it also
builds the struct-of-arrays :class:`~repro.policies.bank.PolicyBank` that
steps many applications' instances together
(:attr:`PolicyFactory.supports_banked` / :meth:`PolicyFactory.make_bank`).
Factories can also be parsed from compact string specs (used by the CLI
and the experiment drivers), e.g.::

    "fixed:10"          a 10-minute fixed keep-alive policy
    "no-unloading"      the infinite keep-alive baseline
    "hybrid:240"        the hybrid policy with a 4-hour histogram range
    "hybrid:240:5:99"   ... with explicit head/tail cutoff percentiles

Sweep families
--------------
Factories additionally declare which *policy family* they belong to and
which configuration within that family they represent
(:attr:`PolicyFactory.family` / :attr:`PolicyFactory.family_config`).
The multi-configuration sweep engine
(:mod:`repro.simulation.sweep_engine`) groups factories whose
:attr:`PolicyFactory.sweep_key` matches and evaluates the whole group in
one pass over the workload, sharing all trace-derived state (per-app
idle gaps for the constant-keep-alive family; histogram contents, CV
trajectories, and idle-time forecasts for the hybrid family).  A factory
without family metadata is simply evaluated on its own — the capability
is an optimization contract, never a requirement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable

from repro.core.histogram_bank import nests_exactly
from repro.policies.base import KeepAlivePolicy
from repro.policies.fixed import FixedKeepAlivePolicy
from repro.policies.no_unload import NoUnloadingPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.policies.bank import PolicyBank

#: Family of policies whose decision is a constant ``(prewarm=0, K)`` pair
#: (the fixed keep-alive grid plus the no-unloading bound, ``K = inf``).
#: ``family_config`` is the keep-alive window in minutes.
FAMILY_CONSTANT_KEEPALIVE = "constant-keepalive"

#: Family of hybrid histogram policies (Section 4.2).  ``family_config``
#: is the :class:`~repro.core.config.HybridPolicyConfig`; configurations
#: sharing a bin width also share a sweep key, because their histogram
#: contents and idle-time forecasts depend only on the trace, not on the
#: cutoff/pre-warming/CV knobs, and a narrower range's histogram is the
#: leading bins of a wider one
#: (:func:`~repro.core.histogram_bank.nests_exactly`).
FAMILY_HYBRID_HISTOGRAM = "hybrid-histogram"


@dataclass(frozen=True)
class PolicyFactory:
    """Creates fresh per-application policy instances.

    Attributes:
        name: Label used in experiment output.
        builder: Zero-argument callable returning a new policy instance.
        family: Optional sweep-family identifier
            (:data:`FAMILY_CONSTANT_KEEPALIVE` /
            :data:`FAMILY_HYBRID_HISTOGRAM`).  Declaring a family is a
            contract: ``family_config`` must describe exactly the policy
            ``builder`` creates, because the sweep engine evaluates the
            configuration directly from the shared family state instead
            of calling the builder per application.
        family_config: Family-specific configuration of this factory (the
            keep-alive minutes, or the hybrid policy configuration).
    """

    name: str
    builder: Callable[[], KeepAlivePolicy]
    family: str | None = None
    family_config: Any = None

    def __call__(self) -> KeepAlivePolicy:
        return self.builder()

    def create(self) -> KeepAlivePolicy:
        """Alias of calling the factory."""
        return self.builder()

    @property
    def supports_banked(self) -> bool:
        """Whether this factory's policies support banked stepping.

        True when one struct-of-arrays
        :class:`~repro.policies.bank.PolicyBank` (see :meth:`make_bank`)
        can replace per-application instances of the policy.
        """
        return self.create().supports_banked

    def make_bank(self, num_apps: int) -> "PolicyBank":
        """Bank equivalent to ``num_apps`` fresh instances of the policy.

        Only meaningful when :attr:`supports_banked` is True.
        """
        return self.create().make_bank(num_apps)

    @property
    def sweep_key(self) -> tuple[Any, ...] | None:
        """Hashable key grouping factories that can share one sweep pass.

        Factories with equal keys form one *shareable family*: the sweep
        engine (:mod:`repro.simulation.sweep_engine`) evaluates them in a
        single pass over the workload, computing the trace-derived state
        they have in common only once.  ``None`` marks the factory as
        unshareable; it is then evaluated on its own.

        Hybrid configurations are keyed ``(family, bin width)`` when their
        range nests exactly (a power-of-two bin width and a whole number
        of bins, :func:`~repro.core.histogram_bank.nests_exactly`): one
        histogram at the widest range then serves every range.  Any other
        geometry keeps the ``(family, range, bin width)`` key.
        """
        if self.family is None or self.family_config is None:
            return None
        if self.family == FAMILY_CONSTANT_KEEPALIVE:
            # Every constant-decision policy shares the same per-app idle
            # gaps, so the whole grid forms one family.
            return (FAMILY_CONSTANT_KEEPALIVE,)
        if self.family == FAMILY_HYBRID_HISTOGRAM:
            range_minutes = self.family_config.histogram_range_minutes
            bin_width = self.family_config.bin_width_minutes
            if nests_exactly(range_minutes, bin_width):
                return (FAMILY_HYBRID_HISTOGRAM, bin_width)
            return (FAMILY_HYBRID_HISTOGRAM, range_minutes, bin_width)
        return None

    def renamed(self, name: str) -> "PolicyFactory":
        """Copy of this factory under a different label.

        Keeps the builder and the family metadata, so relabelled sweep
        configurations (e.g. ``hybrid-cv5``) stay shareable.
        """
        return replace(self, name=name)


def fixed_keepalive_factory(keepalive_minutes: float) -> PolicyFactory:
    """Factory for :class:`FixedKeepAlivePolicy` with the given window."""
    minutes = float(keepalive_minutes)
    return PolicyFactory(
        name=f"fixed-{minutes:g}min",
        builder=lambda: FixedKeepAlivePolicy(minutes),
        family=FAMILY_CONSTANT_KEEPALIVE,
        family_config=minutes,
    )


def no_unloading_factory() -> PolicyFactory:
    """Factory for :class:`NoUnloadingPolicy`."""
    return PolicyFactory(
        name="no-unloading",
        builder=NoUnloadingPolicy,
        family=FAMILY_CONSTANT_KEEPALIVE,
        family_config=math.inf,
    )


def hybrid_factory(config: Any | None = None, **overrides: Any) -> PolicyFactory:
    """Factory for the hybrid histogram policy.

    Args:
        config: An optional :class:`repro.core.config.HybridPolicyConfig`.
        **overrides: Field overrides applied on top of ``config`` (or on top
            of the default configuration when ``config`` is None).
    """
    # Imported lazily to avoid a circular import at package-initialization
    # time (repro.core.hybrid itself imports repro.policies.base).
    from repro.core.config import HybridPolicyConfig
    from repro.core.hybrid import HybridHistogramPolicy

    base = config or HybridPolicyConfig()
    if overrides:
        base = base.with_overrides(**overrides)
    name = f"hybrid-{base.histogram_range_minutes / 60:g}h"
    if (base.head_percentile, base.tail_percentile) != (5.0, 99.0):
        name += f"[{base.head_percentile:g},{base.tail_percentile:g}]"
    if not base.enable_arima:
        name += "-noarima"
    if not base.enable_prewarming:
        name += "-nopw"
    return PolicyFactory(
        name=name,
        builder=lambda: HybridHistogramPolicy(base),
        family=FAMILY_HYBRID_HISTOGRAM,
        family_config=base,
    )


def _spec_number(value: str, what: str, spec: str) -> float:
    """Parse one numeric field of a policy spec with a readable error."""
    try:
        number = float(value)
    except ValueError:
        raise ValueError(f"{what} must be a number, got {value!r} in spec {spec!r}") from None
    if math.isnan(number):
        raise ValueError(f"{what} must not be NaN in spec {spec!r}")
    return number


def parse_policy_spec(spec: str) -> PolicyFactory:
    """Parse a compact string spec into a :class:`PolicyFactory`.

    Supported forms::

        no-unloading
        fixed:<minutes>
        hybrid[:<range minutes>[:<head pct>:<tail pct>]]

    Raises:
        ValueError: For malformed specs, non-positive fixed keep-alive
            windows or histogram ranges, and head/tail percentiles outside
            ``[0, 100]`` (or a head above the tail) — catching garbage at
            the CLI boundary instead of propagating it into runs.
    """
    parts = [part.strip() for part in spec.strip().lower().split(":")]
    kind = parts[0]
    if kind in ("no-unloading", "no_unloading", "nounload", "infinite"):
        return no_unloading_factory()
    if kind == "fixed":
        if len(parts) != 2:
            raise ValueError(f"fixed policy spec must be 'fixed:<minutes>', got {spec!r}")
        minutes = _spec_number(parts[1], "fixed keep-alive window", spec)
        if minutes <= 0 or math.isinf(minutes):
            raise ValueError(
                "fixed keep-alive window must be a positive number of minutes "
                f"(use 'no-unloading' for an infinite window), got {parts[1]!r} "
                f"in spec {spec!r}"
            )
        return fixed_keepalive_factory(minutes)
    if kind == "hybrid":
        from repro.core.config import HybridPolicyConfig

        config = HybridPolicyConfig()
        if len(parts) >= 2 and parts[1]:
            range_minutes = _spec_number(parts[1], "histogram range", spec)
            if range_minutes <= 0 or math.isinf(range_minutes):
                raise ValueError(
                    "histogram range must be a positive number of minutes, "
                    f"got {parts[1]!r} in spec {spec!r}"
                )
            config = config.with_overrides(histogram_range_minutes=range_minutes)
        if len(parts) == 4:
            head = _spec_number(parts[2], "head percentile", spec)
            tail = _spec_number(parts[3], "tail percentile", spec)
            if not 0 <= head <= 100 or not 0 <= tail <= 100:
                raise ValueError(
                    "head/tail percentiles must be within [0, 100], got "
                    f"[{parts[2]}, {parts[3]}] in spec {spec!r}"
                )
            if head > tail:
                raise ValueError(
                    "head percentile must not exceed the tail percentile, got "
                    f"[{parts[2]}, {parts[3]}] in spec {spec!r}"
                )
            config = config.with_cutoffs(head, tail)
        elif len(parts) not in (1, 2):
            raise ValueError(
                "hybrid policy spec must be 'hybrid[:<range>[:<head>:<tail>]]', "
                f"got {spec!r}"
            )
        return hybrid_factory(config)
    raise ValueError(f"unknown policy kind {kind!r} in spec {spec!r}")


def standard_policy_suite(
    *,
    fixed_minutes: tuple[float, ...] = (5, 10, 20, 30, 45, 60, 90, 120),
    hybrid_range_hours: tuple[float, ...] = (1, 2, 3, 4),
    include_no_unloading: bool = True,
) -> list[PolicyFactory]:
    """The full set of policies evaluated in Figures 14 and 15."""
    factories: list[PolicyFactory] = []
    if include_no_unloading:
        factories.append(no_unloading_factory())
    factories.extend(fixed_keepalive_factory(m) for m in fixed_minutes)
    factories.extend(
        hybrid_factory(histogram_range_minutes=hours * 60.0) for hours in hybrid_range_hours
    )
    return factories
