"""Fault injection, retries, and elasticity: chaos smoke plus regressions.

``TestChaosSmoke`` runs a short replay with invokers crashing and
restarting mid-window and checks the platform's global invariants: the
event loop drains (no deadlock), every submitted invocation is either
completed or explicitly dropped (conservation), and crash-killed
containers show up as crash-induced cold starts.

The regression classes pin the latent bug family this subsystem had to
fix: platform state silently surviving an invoker crash — queued
keep-alive expiries acting after the restart, the ring-walk placement
cache outliving a fleet resize, and the incremental memory accounting
keeping phantom usage for destroyed containers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.platform.autoscaler import Autoscaler, AutoscalerConfig
from repro.platform.cluster import ClusterConfig, FaasCluster
from repro.platform.events import EventLoop
from repro.platform.faults import FaultInjector, FaultPlan
from repro.platform.invoker import Invoker
from repro.platform.loadbalancer import ConsistentHashBalancer, LoadBalancer, _stable_hash
from repro.platform.metrics import PlatformMetrics
from repro.platform.replay import ReplayConfig, TraceReplayer
from repro.policies.registry import fixed_keepalive_factory
from tests.conftest import make_workload


def make_invoker(capacity_mb: float = 1024.0) -> Invoker:
    return Invoker(
        invoker_id=0,
        memory_capacity_mb=capacity_mb,
        loop=EventLoop(),
        metrics=PlatformMetrics(),
    )


def chaos_workload():
    """Steady per-minute load from several apps over one hour."""
    times = [float(t) for t in range(60)]
    workload = make_workload(
        {f"app-{i}": times for i in range(6)}, duration_minutes=60.0
    )
    # Long executions so crashes reliably catch work in flight.
    for app in workload.apps:
        execution = app.functions[0].execution
        object.__setattr__(execution, "average_seconds", 20.0)
        object.__setattr__(execution, "minimum_seconds", 10.0)
        object.__setattr__(execution, "maximum_seconds", 30.0)
    return workload


class TestChaosSmoke:
    def test_crashy_replay_finishes_and_conserves_invocations(self):
        plan = FaultPlan(
            crash_rate_per_hour=40.0,
            restart_delay_seconds=15.0,
            retry_limit=1,
            seed=23,
        )
        replayer = TraceReplayer(
            chaos_workload(),
            replay_config=ReplayConfig(duration_minutes=60.0, seed=11),
            cluster_config=ClusterConfig(
                num_invokers=3, invoker_memory_mb=1024.0, seed=5, fault_plan=plan
            ),
        )
        result = replayer.run(fixed_keepalive_factory(10.0))
        metrics = result.metrics
        summary = metrics.summary()

        # The run terminated (we are here) with real chaos in it.
        assert summary["invoker_crashes"] > 0
        assert summary["invoker_restarts"] == summary["invoker_crashes"]
        assert summary["crash_lost_in_flight"] > 0

        # Conservation: completed + dropped == submitted.
        submitted = replayer.feed.num_submissions
        assert submitted == 360
        assert metrics.total_invocations + summary["dropped_invocations"] == submitted

        # Crash-killed containers restart cold, and the attribution sees it.
        assert summary["crash_cold_starts"] > 0
        assert summary["crash_cold_starts"] <= metrics.total_cold_starts

        # The flat platform-event log carries each crash and restart.
        kinds, times, invoker_ids = metrics.platform_events()
        assert kinds.size == summary["invoker_crashes"] + summary["invoker_restarts"]
        assert np.all(np.diff(times) >= 0.0)
        assert set(invoker_ids.tolist()) <= {0, 1, 2}

    def test_retry_limit_zero_drops_every_lost_activation(self):
        plan = FaultPlan(crash_rate_per_hour=40.0, retry_limit=0, seed=23)
        replayer = TraceReplayer(
            chaos_workload(),
            replay_config=ReplayConfig(duration_minutes=60.0, seed=11),
            cluster_config=ClusterConfig(
                num_invokers=3, invoker_memory_mb=1024.0, seed=5, fault_plan=plan
            ),
        )
        metrics = replayer.run(fixed_keepalive_factory(10.0)).metrics
        summary = metrics.summary()
        assert summary["dropped_invocations"] > 0
        assert (
            metrics.total_invocations + summary["dropped_invocations"]
            == replayer.feed.num_submissions
        )

    def test_whole_fleet_down_defers_and_recovers(self):
        """Submissions arriving with every invoker dead drain after restart."""
        cluster = FaasCluster(
            fixed_keepalive_factory(10.0),
            ClusterConfig(num_invokers=2, invoker_memory_mb=1024.0),
        )
        for invoker in cluster.invokers:
            invoker.crash()
        cluster.loop.schedule_at(
            1.0,
            lambda: cluster.controller.submit(
                "app", "f", execution_seconds=1.0, memory_mb=128.0
            ),
        )
        for invoker in cluster.invokers:
            cluster.loop.schedule_at(10.0, invoker.restart)
        metrics = cluster.run()
        assert metrics.total_invocations == 1
        assert cluster.controller.stats.deferrals > 0
        assert cluster.controller.stats.dropped == 0


class TestMessageDelay:
    def test_delay_adds_latency_but_conserves_invocations(self):
        plan = FaultPlan(
            message_delay_seconds=0.25, message_delay_jitter_seconds=0.05, seed=3
        )
        baseline = TraceReplayer(
            chaos_workload(),
            replay_config=ReplayConfig(duration_minutes=60.0, seed=11),
            cluster_config=ClusterConfig(num_invokers=3, seed=5),
        ).run(fixed_keepalive_factory(10.0))
        delayed = TraceReplayer(
            chaos_workload(),
            replay_config=ReplayConfig(duration_minutes=60.0, seed=11),
            cluster_config=ClusterConfig(num_invokers=3, seed=5, fault_plan=plan),
        ).run(fixed_keepalive_factory(10.0))
        assert (
            delayed.metrics.total_invocations == baseline.metrics.total_invocations
        )
        assert (
            delayed.metrics.summary()["average_latency_seconds"]
            > baseline.metrics.summary()["average_latency_seconds"]
        )


class TestCrashStateRegressions:
    def test_stale_keepalive_expiry_cannot_unload_post_restart_container(self):
        """A keep-alive expiry queued before a crash must not act after it.

        Regression: the expiry event scheduled for the pre-crash container
        survived in the heap; after restart, a fresh container for the
        same application was unloaded by the stale timer.
        """
        invoker = make_invoker()
        loop = invoker.loop
        invoker.prewarm("app", 128.0, keepalive_seconds=60.0)  # expiry at t=60
        loop.schedule_at(30.0, invoker.crash)
        loop.schedule_at(40.0, invoker.restart)
        # New container after the restart with a *long* keep-alive.
        loop.schedule_at(
            50.0, lambda: invoker.prewarm("app", 128.0, keepalive_seconds=600.0)
        )
        loop.run(100.0)  # past the stale t=60 expiry
        assert invoker.container_for("app") is not None, (
            "stale pre-crash keep-alive expiry unloaded the post-restart container"
        )

    def test_ring_walk_cache_is_invalidated_on_fleet_change(self):
        """Cached (home, step) pairs must not survive a fleet resize.

        Regression: the cache held indices derived from the old ring
        size; after a scale-in they indexed out of bounds (or silently
        re-homed applications mid-run without re-hashing).
        """
        loop = EventLoop()
        metrics = PlatformMetrics()
        invokers = [
            Invoker(invoker_id=i, memory_capacity_mb=1024.0, loop=loop, metrics=metrics)
            for i in range(5)
        ]
        balancer = LoadBalancer(invokers)
        app_ids = [f"app-{i}" for i in range(40)]
        for app_id in app_ids:
            balancer.place(app_id, 64.0)  # populate the cache at size 5

        balancer.remove_invoker(invokers[4])
        balancer.remove_invoker(invokers[3])
        for app_id in app_ids:  # must not raise, must re-derive homes
            decision = balancer.place(app_id, 64.0)
            assert decision is not None
            assert decision.home_invoker_id == _stable_hash(app_id) % 3

        extra = Invoker(
            invoker_id=7, memory_capacity_mb=1024.0, loop=loop, metrics=metrics
        )
        balancer.add_invoker(extra)
        for app_id in app_ids:
            decision = balancer.place(app_id, 64.0)
            assert decision is not None

    @pytest.mark.parametrize("balancer_class", [LoadBalancer, ConsistentHashBalancer])
    def test_rejected_last_invoker_removal_leaves_fleet_intact(self, balancer_class):
        """Refusing to remove the last invoker must not change the fleet.

        Regression: the invoker was removed before the check, so the
        plain ring divided by a zero fleet size on the next placement and
        the consistent-hash ring kept placing on the removed invoker.
        """
        invoker = make_invoker()
        balancer = balancer_class([invoker])
        with pytest.raises(ValueError, match="last invoker"):
            balancer.remove_invoker(invoker)
        assert balancer.fleet_size == 1
        assert balancer.invokers == [invoker]
        decision = balancer.place("app", 64.0)
        assert decision is not None and decision.invoker is invoker

    def test_memory_accounting_resets_on_crash(self):
        """Destroyed containers must not leave phantom memory usage.

        Regression: ``used_memory_mb`` is maintained incrementally on
        create/unload; the crash path destroyed containers without the
        decrement, permanently shrinking the invoker for the balancer.
        """
        invoker = make_invoker(capacity_mb=1024.0)
        for index in range(3):
            invoker.prewarm(f"app-{index}", 200.0, keepalive_seconds=600.0)
        assert invoker.used_memory_mb == 600.0
        invoker.crash()
        assert invoker.used_memory_mb == 0.0
        assert invoker.free_memory_mb == 1024.0
        assert invoker.load_fraction == 0.0
        invoker.restart()
        invoker.prewarm("fresh", 300.0, keepalive_seconds=600.0)
        assert invoker.used_memory_mb == 300.0

    def test_crash_residency_is_accounted_as_unload(self):
        """Crash-destroyed containers contribute their loaded time."""
        invoker = make_invoker()
        invoker.prewarm("app", 128.0, keepalive_seconds=600.0)
        invoker.loop.schedule_at(42.0, invoker.crash)
        invoker.loop.run(50.0)
        # The full 0..42 s residency landed in the memory integral.
        assert invoker.metrics.total_memory_mb_seconds() == pytest.approx(128.0 * 42.0)


class TestLifecycleGuards:
    def test_decommissioned_invoker_cannot_restart(self):
        invoker = make_invoker()
        invoker.decommission()
        with pytest.raises(RuntimeError, match="decommissioned"):
            invoker.restart()

    def test_decommission_refuses_inflight_work(self):
        from repro.platform.messages import ActivationMessage

        invoker = make_invoker()
        invoker.handle_activation(
            ActivationMessage(
                activation_id=1,
                app_id="app",
                function_id="f",
                arrival_time_seconds=0.0,
                execution_seconds=100.0,
                memory_mb=64.0,
                keepalive_seconds=60.0,
            )
        )
        with pytest.raises(RuntimeError, match="in-flight"):
            invoker.decommission()

    def test_injector_double_start_rejected(self):
        plan = FaultPlan(crash_rate_per_hour=1.0, seed=1)
        cluster = FaasCluster(
            fixed_keepalive_factory(10.0),
            ClusterConfig(num_invokers=2, fault_plan=plan),
        )
        assert isinstance(cluster.fault_injector, FaultInjector)
        cluster.fault_injector.start(10.0)
        with pytest.raises(RuntimeError, match="already started"):
            cluster.fault_injector.start(10.0)

    def test_run_requires_horizon_with_faults_or_autoscaling(self):
        plan = FaultPlan(crash_rate_per_hour=1.0, seed=1)
        cluster = FaasCluster(
            fixed_keepalive_factory(10.0),
            ClusterConfig(num_invokers=2, fault_plan=plan),
        )
        with pytest.raises(ValueError, match="horizon_seconds"):
            cluster.run()

    def test_zero_fault_plan_builds_no_injector(self):
        cluster = FaasCluster(
            fixed_keepalive_factory(10.0),
            ClusterConfig(num_invokers=2, fault_plan=FaultPlan.none()),
        )
        assert cluster.fault_injector is None

    def test_fault_plan_validation(self):
        with pytest.raises(ValueError, match="crash rate"):
            FaultPlan(crash_rate_per_hour=-1.0)
        with pytest.raises(ValueError, match="restart delay"):
            FaultPlan(crash_rate_per_hour=1.0, restart_delay_seconds=0.0)
        with pytest.raises(ValueError, match="retry limit"):
            FaultPlan(retry_limit=-1)

    def test_autoscaler_config_validation(self):
        with pytest.raises(ValueError, match="max_invokers"):
            AutoscalerConfig(min_invokers=4, max_invokers=2)
        with pytest.raises(ValueError, match="utilization"):
            AutoscalerConfig(scale_up_utilization=0.3, scale_down_utilization=0.5)
        with pytest.raises(ValueError, match="fleet size"):
            ClusterConfig(
                num_invokers=10,
                autoscaler=AutoscalerConfig(min_invokers=1, max_invokers=4),
            )


class TestAutoscalerBehaviour:
    def _idle_cluster(self) -> FaasCluster:
        return FaasCluster(
            fixed_keepalive_factory(10.0),
            ClusterConfig(
                num_invokers=4,
                invoker_memory_mb=256.0,
                autoscaler=AutoscalerConfig(
                    min_invokers=2,
                    max_invokers=8,
                    tick_seconds=60.0,
                    cooldown_seconds=0.0,
                ),
            ),
        )

    def test_idle_fleet_scales_in_to_minimum(self):
        cluster = self._idle_cluster()
        metrics = cluster.run(horizon_seconds=600.0)
        _times, sizes = metrics.fleet_size_timeline()
        assert sizes[0] == 4
        assert sizes[-1] == 2  # shrank to min_invokers, never below
        assert int(sizes.min()) == 2

    def test_sustained_load_scales_out(self):
        cluster = self._idle_cluster()
        for minute in range(10):
            for index in range(8):
                cluster.loop.schedule_at(
                    60.0 * minute + index,
                    lambda i=index, m=minute: cluster.controller.submit(
                        f"app-{i}", "f", execution_seconds=55.0, memory_mb=120.0
                    ),
                )
        metrics = cluster.run(horizon_seconds=600.0)
        _times, sizes = metrics.fleet_size_timeline()
        assert int(sizes.max()) > 4  # grew under load
        assert int(sizes.max()) <= 8
        assert metrics.total_invocations == cluster.controller.stats.submissions

    def test_scaled_out_invokers_receive_placements(self):
        cluster = self._idle_cluster()
        autoscaler = cluster.autoscaler
        assert isinstance(autoscaler, Autoscaler)
        new_invoker = cluster.provision_invoker(99, 256.0)
        assert new_invoker in cluster.load_balancer.invokers
        # The fresh invoker is reachable through placement (least-loaded
        # fallback chooses it once the rest of the fleet is saturated).
        for invoker in cluster.invokers[:-1]:
            invoker.prewarm("hog", 250.0, keepalive_seconds=float("inf"))
        decision = cluster.load_balancer.place("new-app", 128.0)
        assert decision is not None
        assert decision.invoker is new_invoker
