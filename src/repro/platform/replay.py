"""Trace replay onto the FaaS platform (the FaaSProfiler stand-in).

The paper drives its OpenWhisk deployment with FaaSProfiler, replaying a
scaled-down trace (68 mid-popularity applications, 8 hours) and
collecting cold-start and latency results.  :class:`TraceReplayer` plays
a :class:`~repro.trace.schema.Workload` into a :class:`FaasCluster`:
every invocation becomes a ``controller.submit`` at its trace timestamp,
with an execution duration drawn from the function's execution profile.

The replay is fed **columnar**: :class:`ReplayFeed` builds flat
submission columns straight from the workload's
:class:`~repro.trace.store.InvocationStore` CSR layout — per-function
horizon cuts are ``searchsorted`` prefixes of the sorted timestamp
column, time conversion and duration sampling are vectorized per
function block, and one stable argsort orders the whole stream —
and a cursor over those columns is merged with the cluster's
:class:`~repro.platform.events.EventLoop` at run time (see
:class:`~repro.platform.events.SubmissionSource`).  The event heap
therefore never holds the trace itself, only the in-flight platform
events, which is what lets one process replay the full multi-day
150-app workload instead of the paper's hand-sized 8-hour slice.

The submission stream is ordered exactly as the reference
(pre-scheduling) path ordered it — globally by arrival time, ties broken
by function population order — so the refactor is equivalence-locked
against the seed implementation: identical cold starts, latencies, and
policy decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.platform.cluster import ClusterConfig, FaasCluster
from repro.platform.metrics import PlatformMetrics
from repro.policies.registry import PolicyFactory
from repro.simulation.sweep_engine import check_unique_policy_names
from repro.trace.schema import Workload

SECONDS_PER_MINUTE = 60.0


@dataclass(frozen=True)
class ReplayConfig:
    """Parameters of a platform replay experiment.

    Attributes:
        duration_minutes: Portion of the workload to replay (the paper's
            OpenWhisk runs last 8 hours = 480 minutes).  Invocations at
            or beyond the horizon are not submitted.
        seed: Seed for execution-time sampling.
        max_execution_seconds: Safety cap on sampled execution durations so
            a single extreme log-normal draw cannot occupy a container for
            the whole experiment.
    """

    duration_minutes: float = 480.0
    seed: int = 7
    max_execution_seconds: float = 300.0

    def __post_init__(self) -> None:
        if self.duration_minutes <= 0:
            raise ValueError("replay duration must be positive")
        if self.max_execution_seconds <= 0:
            raise ValueError("execution cap must be positive")


@dataclass
class ReplayResult:
    """Outcome of replaying one policy on the platform."""

    policy_name: str
    metrics: PlatformMetrics
    controller_overhead_microseconds: float
    prewarm_messages: int
    submissions: int = 0
    completed_unique: int = 0
    dropped: int = 0
    duplicate_completions: int = 0

    @property
    def conservation_holds(self) -> bool:
        """The at-least-once invariant: every submission completes or drops.

        ``completed_unique + dropped == submissions`` must hold for any
        fault plan — duplicates from controller failover are counted
        separately and never inflate ``completed_unique``.
        """
        return self.completed_unique + self.dropped == self.submissions

    def summary(self) -> dict[str, float]:
        data = self.metrics.summary()
        data["controller_overhead_us"] = self.controller_overhead_microseconds
        data["prewarm_messages"] = float(self.prewarm_messages)
        data["submissions"] = float(self.submissions)
        data["completed_unique"] = float(self.completed_unique)
        return data


class ReplayFeed:
    """Columnar submission stream for one (workload, replay config) pair.

    Built once and reused across policies and cluster shapes: the
    columns depend only on the trace and the sampling seed, matching the
    reference path where every policy's replay re-created the same RNG.
    Duration sampling consumes the generator in function population
    order, function by function, drawing exactly for the invocations
    inside the horizon — the same draws, in the same order, as the
    reference per-function loop.
    """

    __slots__ = (
        "num_submissions",
        "_arrival_seconds",
        "_app_ids",
        "_function_ids",
        "_durations",
        "_memory_mb",
    )

    def __init__(self, workload: Workload, config: ReplayConfig) -> None:
        store = workload.store
        rng = np.random.default_rng(config.seed)
        horizon = config.duration_minutes
        function_offsets = store.function_offsets

        time_pieces: list[np.ndarray] = []
        code_pieces: list[np.ndarray] = []
        duration_pieces: list[np.ndarray] = []
        # Functions iterate in population order == store code order; the
        # per-function slices are time-sorted, so each piece is sorted.
        for code, spec in enumerate(workload.functions()):
            if function_offsets[code] == function_offsets[code + 1]:
                continue
            times = store.function_slice_until(code, horizon)
            if times.size == 0:
                continue
            durations = spec.execution.sample_seconds(rng, size=times.size)
            np.minimum(durations, config.max_execution_seconds, out=durations)
            time_pieces.append(times)
            code_pieces.append(np.full(times.size, code, dtype=np.int64))
            duration_pieces.append(durations)

        if time_pieces:
            times = np.concatenate(time_pieces)
            codes = np.concatenate(code_pieces)
            durations = np.concatenate(duration_pieces)
        else:
            times = np.empty(0, dtype=np.float64)
            codes = np.empty(0, dtype=np.int64)
            durations = np.empty(0, dtype=np.float64)

        # Global arrival order with the reference path's tie-breaking:
        # the stream is function-major going in, so a stable time sort
        # leaves simultaneous submissions in function population order —
        # exactly the order pre-scheduled closures carried as heap
        # sequence numbers.
        order = np.argsort(times, kind="stable")
        times = times[order]
        codes = codes[order]
        durations = durations[order]
        app_codes = store.function_app_idx[codes]

        memory_by_app = [app.memory.average_mb for app in workload.apps]
        self.num_submissions = int(times.size)
        # Python-native columns: the cursor compares and passes scalars a
        # quarter of a million times, and plain floats/strings beat numpy
        # scalar boxing on that path.
        self._arrival_seconds = (times * SECONDS_PER_MINUTE).tolist()
        self._durations = durations.tolist()
        self._app_ids = [store.app_ids[i] for i in app_codes.tolist()]
        self._function_ids = [store.function_ids[i] for i in codes.tolist()]
        self._memory_mb = [memory_by_app[i] for i in app_codes.tolist()]

    def cursor(self, cluster: FaasCluster) -> "_FeedCursor":
        """A fresh submission cursor feeding this stream into ``cluster``."""
        return _FeedCursor(self, cluster)


class _FeedCursor:
    """Cursor adapting a :class:`ReplayFeed` to the event loop's
    :class:`~repro.platform.events.SubmissionSource` API: each
    :meth:`emit_next` submits one invocation to the controller and
    returns the next arrival time."""

    __slots__ = ("_index", "_n", "_times", "_apps", "_functions", "_durations", "_memory", "_submit")

    def __init__(self, feed: ReplayFeed, cluster: FaasCluster) -> None:
        self._index = 0
        self._n = feed.num_submissions
        self._times = feed._arrival_seconds
        self._apps = feed._app_ids
        self._functions = feed._function_ids
        self._durations = feed._durations
        self._memory = feed._memory_mb
        self._submit = cluster.controller.submit

    def next_time(self) -> float | None:
        index = self._index
        if index >= self._n:
            return None
        return self._times[index]

    def emit_next(self) -> float | None:
        index = self._index
        self._index = index + 1
        self._submit(
            self._apps[index],
            self._functions[index],
            execution_seconds=self._durations[index],
            memory_mb=self._memory[index],
        )
        index += 1
        if index >= self._n:
            return None
        return self._times[index]


class TraceReplayer:
    """Replays a workload against a cluster running one policy.

    The columnar :class:`ReplayFeed` is built lazily on the first run and
    shared across runs (policies only change the cluster, never the
    submission stream).  Callers replaying the same (workload, replay
    config) under many cluster shapes — the campaigns — pass a pre-built
    ``feed`` to skip rebuilding the stream per replayer.
    """

    def __init__(
        self,
        workload: Workload,
        *,
        replay_config: ReplayConfig | None = None,
        cluster_config: ClusterConfig | None = None,
        feed: ReplayFeed | None = None,
    ) -> None:
        self.workload = workload
        self.replay_config = replay_config or ReplayConfig()
        self.cluster_config = cluster_config or ClusterConfig()
        self._feed = feed

    @property
    def feed(self) -> ReplayFeed:
        """The columnar submission stream (built once, then cached)."""
        if self._feed is None:
            self._feed = ReplayFeed(self.workload, self.replay_config)
        return self._feed

    def run(self, policy_factory: PolicyFactory) -> ReplayResult:
        """Replay the workload under one policy and collect platform metrics."""
        config = self.replay_config
        cluster = FaasCluster(policy_factory, self.cluster_config)
        horizon_seconds = config.duration_minutes * SECONDS_PER_MINUTE

        # Stream submissions from the columnar feed, merged with the
        # event loop in time order; then let in-flight work finish.  The
        # horizon bounds the fault injector's crash schedule and the
        # autoscaler's ticks so the loop drains.
        metrics = cluster.run(
            source=self.feed.cursor(cluster), horizon_seconds=horizon_seconds
        )
        metrics.finish(max(horizon_seconds, cluster.loop.now))
        stats = cluster.controller.stats
        return ReplayResult(
            policy_name=policy_factory.name,
            metrics=metrics,
            controller_overhead_microseconds=(
                stats.average_policy_update_microseconds
            ),
            prewarm_messages=stats.prewarm_messages,
            submissions=stats.submissions,
            completed_unique=stats.completed_unique,
            dropped=stats.dropped,
            duplicate_completions=stats.duplicate_completions,
        )


def compare_policies_on_platform(
    workload: Workload,
    policy_factories: list[PolicyFactory],
    *,
    replay_config: ReplayConfig | None = None,
    cluster_config: ClusterConfig | None = None,
) -> dict[str, ReplayResult]:
    """Replay the same workload under several policies (Figure 20).

    Raises:
        ValueError: When two factories share a name — results are keyed
            by name, so duplicates would silently overwrite each other
            (the same guard ``run_policies``/``compare`` apply).
    """
    check_unique_policy_names(policy_factories)
    replayer = TraceReplayer(
        workload, replay_config=replay_config, cluster_config=cluster_config
    )
    return {factory.name: replayer.run(factory) for factory in policy_factories}
