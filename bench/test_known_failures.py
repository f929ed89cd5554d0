"""Known defects found while sizing the benchmark, pinned as strict xfails.

Each test states the behaviour the code should have.  It fails today;
``strict=True`` makes the fix flip it to a pass that must then drop the
marker.  Until this replay defect is fixed, the ``replay-fig20`` workload
runs without faults: any fault plan makes its outcome depend on the seed
through this crash.
"""

from __future__ import annotations

import pytest

from repro.platform.cluster import ClusterConfig
from repro.platform.faults import FaultPlan
from repro.platform.replay import ReplayConfig, TraceReplayer
from repro.policies.registry import fixed_keepalive_factory
from repro.trace.generator import GeneratorConfig, WorkloadGenerator


@pytest.mark.xfail(
    raises=RuntimeError,
    strict=True,
    reason=(
        "Invoker.handle_activation never checks Container.has_capacity(): more "
        "than 64 in-flight activations of one app on one container make "
        "Container.begin_invocation raise and abort the whole replay"
    ),
)
def test_activation_burst_beyond_container_concurrency_does_not_abort_replay():
    workload = WorkloadGenerator(
        GeneratorConfig(num_apps=800, duration_minutes=60.0, seed=47, max_daily_rate=15000.0)
    ).generate()
    plan = FaultPlan(
        crash_rate_per_hour=4.0,
        restart_delay_seconds=20.0,
        retry_limit=3,
        controller_mttf_hours=0.25,
        controller_failover_seconds=10.0,
        seed=41,
    )
    cluster = ClusterConfig(
        num_invokers=8,
        invoker_memory_mb=2048.0,
        seed=5,
        balancer="least-loaded",
        fault_domains=4,
        fault_plan=plan,
    )
    result = TraceReplayer(
        workload,
        replay_config=ReplayConfig(duration_minutes=60.0, seed=7),
        cluster_config=cluster,
    ).run(fixed_keepalive_factory(10.0))
    assert result.conservation_holds
