"""Load balancers: choose an invoker for every activation.

Three interchangeable strategies, all selectable per
:class:`~repro.platform.cluster.ClusterConfig` (``balancer=``) and all
sharing the same contract — prefer an invoker that already holds a warm
container for the application (container affinity is what makes
keep-alive useful), otherwise pick one with free memory, otherwise fall
back to the least-loaded node; dead invokers (mid-crash-restart) are
never selected, and :meth:`LoadBalancer.place` returns ``None`` only
when the whole fleet is down:

* :class:`LoadBalancer` — the default **co-prime ring walk**, mirroring
  OpenWhisk's sharding container-pool balancer: every application has a
  stable home invoker (blake2b hash) and walks the ring with a co-prime
  step.
* :class:`ConsistentHashBalancer` — a classic consistent-hash ring with
  virtual nodes, so fleet changes (autoscaling, permanent departures)
  re-home only the applications adjacent to the changed node instead of
  reshuffling everyone.
* :class:`LeastLoadedBalancer` — ignores affinity hashing entirely and
  greedily picks the invoker with the lowest memory load (warm-container
  preference still applies first).

The fleet is **mutable**: the autoscaler adds and removes invokers
through :meth:`LoadBalancer.add_invoker` /
:meth:`LoadBalancer.remove_invoker`, which invalidate every cached
topology derivative (the ring-walk ``(home, step)`` cache, the
consistent-hash vnode ring).  Stale caches after a fleet change were a
real latent-bug class: a ``(home, step)`` pair cached for an 18-invoker
ring indexes out of bounds on a 12-invoker one.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

from repro.platform.invoker import Invoker

#: Strategy names accepted by :func:`make_balancer` and ``ClusterConfig``.
BALANCER_STRATEGIES = ("ring", "consistent-hash", "least-loaded")

#: Virtual nodes per invoker on the consistent-hash ring: enough to keep
#: the load split even on small fleets, cheap enough to rebuild on every
#: topology change.
VIRTUAL_NODES = 64


def _stable_hash(app_id: str) -> int:
    """Deterministic hash of an application id (stable across processes)."""
    digest = hashlib.blake2b(app_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _coprime_step(num_invokers: int, app_hash: int) -> int:
    """A step size co-prime with the ring size, derived from the app hash."""
    if num_invokers <= 1:
        return 1
    candidate = (app_hash % (num_invokers - 1)) + 1
    while math.gcd(candidate, num_invokers) != 1:
        candidate = candidate % num_invokers + 1
    return candidate


@dataclass(slots=True)
class PlacementDecision:
    """Outcome of one scheduling decision (one is created per activation)."""

    invoker: Invoker
    home_invoker_id: int
    hops: int
    had_warm_container: bool


class LoadBalancer:
    """Co-prime ring walk with home-node affinity and memory awareness.

    Also the base class of the other strategies: it owns the mutable
    invoker list, the liveness filtering, and the saturated-cluster
    fallback; subclasses override the candidate ordering.
    """

    strategy = "ring"

    def __init__(self, invokers: Sequence[Invoker], *, overload_threshold: float = 0.9) -> None:
        if not invokers:
            raise ValueError("load balancer needs at least one invoker")
        if not 0 < overload_threshold <= 1.0:
            raise ValueError("overload threshold must be in (0, 1]")
        self._invokers = list(invokers)
        self.overload_threshold = overload_threshold
        # (home index, ring step) per application: the hash and co-prime
        # derivation are pure functions of (app id, ring size), and place()
        # runs once per replayed invocation.  Cleared whenever the fleet
        # changes — the cached values are only valid for one ring size.
        self._ring_cache: dict[str, tuple[int, int]] = {}

    @property
    def invokers(self) -> list[Invoker]:
        return list(self._invokers)

    @property
    def fleet_size(self) -> int:
        """Invokers currently in service (alive or mid-restart)."""
        return len(self._invokers)

    # ------------------------------------------------------------------ #
    # Topology changes (autoscaling)
    # ------------------------------------------------------------------ #
    def add_invoker(self, invoker: Invoker) -> None:
        """Add an invoker to the fleet (autoscaler scale-out)."""
        self._invokers.append(invoker)
        self._topology_changed()

    def remove_invoker(self, invoker: Invoker) -> None:
        """Remove an invoker from the fleet (autoscaler scale-in)."""
        if len(self._invokers) == 1:
            raise ValueError("cannot remove the last invoker")
        self._invokers.remove(invoker)
        self._topology_changed()

    def _topology_changed(self) -> None:
        self._ring_cache.clear()

    # ------------------------------------------------------------------ #
    def _ring(self, app_id: str) -> tuple[int, int]:
        cached = self._ring_cache.get(app_id)
        if cached is None:
            app_hash = _stable_hash(app_id)
            count = len(self._invokers)
            cached = (app_hash % count, _coprime_step(count, app_hash))
            self._ring_cache[app_id] = cached
        return cached

    def home_invoker(self, app_id: str) -> Invoker:
        return self._invokers[self._ring(app_id)[0]]

    def _candidate_order(self, app_id: str) -> tuple[list[Invoker], int]:
        """(candidates in preference order, home invoker id).

        Subclass hook: the base class never calls it (the ring walk is
        inlined in :meth:`place` to keep the hot path allocation-free).
        """
        count = len(self._invokers)
        home_index, step = self._ring(app_id)
        order = [
            self._invokers[(home_index + hops * step) % count] for hops in range(count)
        ]
        return order, self._invokers[home_index].invoker_id

    def place(self, app_id: str, memory_mb: float) -> PlacementDecision | None:
        """Pick the invoker that should run the next activation of an app.

        Returns ``None`` when no invoker is alive (whole fleet down); the
        controller defers the activation and retries.
        """
        count = len(self._invokers)
        home_index, step = self._ring(app_id)
        home_id = self._invokers[home_index].invoker_id

        # First pass: prefer any live invoker that already holds a warm
        # container for the application, starting from the home node.
        index = home_index
        for hops in range(count):
            invoker = self._invokers[index]
            if invoker.alive and invoker.container_for(app_id) is not None:
                return PlacementDecision(
                    invoker=invoker,
                    home_invoker_id=home_id,
                    hops=hops,
                    had_warm_container=True,
                )
            index = (index + step) % count

        # Second pass: first live invoker (starting at home) with room.
        index = home_index
        for hops in range(count):
            invoker = self._invokers[index]
            if (
                invoker.alive
                and invoker.free_memory_mb >= memory_mb
                and invoker.load_fraction < self.overload_threshold
            ):
                return PlacementDecision(
                    invoker=invoker,
                    home_invoker_id=home_id,
                    hops=hops,
                    had_warm_container=False,
                )
            index = (index + step) % count

        return self._saturated_fallback(home_id, count)

    def _saturated_fallback(
        self, home_id: int, hops: int
    ) -> PlacementDecision | None:
        """Least-loaded live invoker, or ``None`` with the fleet down."""
        least_loaded: Invoker | None = None
        for invoker in self._invokers:
            if invoker.alive and (
                least_loaded is None
                or invoker.load_fraction < least_loaded.load_fraction
            ):
                least_loaded = invoker
        if least_loaded is None:
            return None
        return PlacementDecision(
            invoker=least_loaded,
            home_invoker_id=home_id,
            hops=hops,
            had_warm_container=False,
        )

    def _place_in_order(
        self, app_id: str, memory_mb: float
    ) -> PlacementDecision | None:
        """Generic two-pass placement over :meth:`_candidate_order`."""
        order, home_id = self._candidate_order(app_id)
        for hops, invoker in enumerate(order):
            if invoker.alive and invoker.container_for(app_id) is not None:
                return PlacementDecision(
                    invoker=invoker,
                    home_invoker_id=home_id,
                    hops=hops,
                    had_warm_container=True,
                )
        for hops, invoker in enumerate(order):
            if (
                invoker.alive
                and invoker.free_memory_mb >= memory_mb
                and invoker.load_fraction < self.overload_threshold
            ):
                return PlacementDecision(
                    invoker=invoker,
                    home_invoker_id=home_id,
                    hops=hops,
                    had_warm_container=False,
                )
        return self._saturated_fallback(home_id, len(order))


class ConsistentHashBalancer(LoadBalancer):
    """Consistent-hash ring with virtual nodes.

    Each invoker contributes :data:`VIRTUAL_NODES` points on a hash
    ring; an application's candidates are the distinct invokers met
    walking clockwise from the application's hash.  Adding or removing
    an invoker only re-homes the applications whose ring successor
    changed, which is exactly the elasticity property the co-prime walk
    (which re-derives everything from the fleet *size*) lacks.
    """

    strategy = "consistent-hash"

    def __init__(self, invokers: Sequence[Invoker], *, overload_threshold: float = 0.9) -> None:
        self._ring_hashes: list[int] = []
        self._ring_invokers: list[Invoker] = []
        super().__init__(invokers, overload_threshold=overload_threshold)
        self._rebuild_ring()

    def _topology_changed(self) -> None:
        super()._topology_changed()
        self._rebuild_ring()

    def _rebuild_ring(self) -> None:
        points: list[tuple[int, Invoker]] = []
        for invoker in self._invokers:
            for replica in range(VIRTUAL_NODES):
                points.append(
                    (_stable_hash(f"invoker-{invoker.invoker_id}#{replica}"), invoker)
                )
        points.sort(key=lambda pair: pair[0])
        self._ring_hashes = [point for point, _ in points]
        self._ring_invokers = [invoker for _, invoker in points]

    def _candidate_order(self, app_id: str) -> tuple[list[Invoker], int]:
        start = bisect.bisect_right(self._ring_hashes, _stable_hash(app_id))
        total = len(self._ring_invokers)
        order: list[Invoker] = []
        seen: set[int] = set()
        for offset in range(total):
            invoker = self._ring_invokers[(start + offset) % total]
            if invoker.invoker_id not in seen:
                seen.add(invoker.invoker_id)
                order.append(invoker)
        return order, order[0].invoker_id

    def place(self, app_id: str, memory_mb: float) -> PlacementDecision | None:
        return self._place_in_order(app_id, memory_mb)


class LeastLoadedBalancer(LoadBalancer):
    """Greedy least-memory-loaded placement (no affinity hashing).

    Candidates are ordered by ``(effective_load_fraction, invoker_id)``
    at decision time, so the warm-container pass picks the least-loaded
    holder and the free-memory pass spreads new containers across the
    fleet.  The *effective* load discounts degraded (slow) invokers —
    they sort behind equally-loaded healthy ones — and is bit-identical
    to the raw load when nothing is degraded.
    """

    strategy = "least-loaded"

    def _candidate_order(self, app_id: str) -> tuple[list[Invoker], int]:
        del app_id
        order = sorted(
            self._invokers,
            key=lambda inv: (inv.effective_load_fraction, inv.invoker_id),
        )
        return order, order[0].invoker_id

    def place(self, app_id: str, memory_mb: float) -> PlacementDecision | None:
        return self._place_in_order(app_id, memory_mb)


def make_balancer(
    strategy: str,
    invokers: Sequence[Invoker],
    *,
    overload_threshold: float = 0.9,
) -> LoadBalancer:
    """Build a load balancer by strategy name (see :data:`BALANCER_STRATEGIES`)."""
    if strategy == "ring":
        return LoadBalancer(invokers, overload_threshold=overload_threshold)
    if strategy == "consistent-hash":
        return ConsistentHashBalancer(invokers, overload_threshold=overload_threshold)
    if strategy == "least-loaded":
        return LeastLoadedBalancer(invokers, overload_threshold=overload_threshold)
    raise ValueError(
        f"unknown balancer strategy {strategy!r}; expected one of {BALANCER_STRATEGIES}"
    )
