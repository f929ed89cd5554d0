"""Shared fixtures for the test suite.

The expensive fixtures (synthetic workloads) are session-scoped so the
whole suite builds them once; tests that need isolation construct their
own small workloads instead.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.trace.generator import GeneratorConfig, WorkloadGenerator
from repro.trace.schema import (
    AppSpec,
    ExecutionProfile,
    FunctionSpec,
    MemoryProfile,
    TriggerType,
    Workload,
)

MINUTES_PER_DAY = 1440.0

#: CPU-time budget for the tier-1 suite: user + system seconds of the
#: pytest process and the children it reaped (pool workers, subprocess
#: CLI runs).  The suite is the inner loop of every change; letting its
#: own work creep past this silently would erode the edit-test cycle.
#: CPU time rather than wall-clock time, so a busy shared machine does
#: not trip the guard.  Override via REPRO_TIER1_TIME_BUDGET_SECONDS (CI
#: machines differ); the guard only arms for the default ``-m "not
#: slow_bench"`` selection, so slow-bench and subset runs are unaffected.
TIER1_TIME_BUDGET_SECONDS = 90.0


def _cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def pytest_configure(config: pytest.Config) -> None:
    config._repro_tier1_started = _cpu_seconds()  # type: ignore[attr-defined]


def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    if session.config.getoption("markexpr") != "not slow_bench":
        return
    budget = float(
        os.environ.get("REPRO_TIER1_TIME_BUDGET_SECONDS", TIER1_TIME_BUDGET_SECONDS)
    )
    started = getattr(session.config, "_repro_tier1_started", None)
    if started is None:
        return
    used = _cpu_seconds() - started
    if used > budget and exitstatus == 0:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        message = (
            f"tier-1 suite used {used:.1f}s of CPU time, over the {budget:.0f}s "
            "budget (REPRO_TIER1_TIME_BUDGET_SECONDS to override)"
        )
        if reporter is not None:
            reporter.write_line(f"ERROR: {message}", red=True)
        session.exitstatus = 1


@pytest.fixture(scope="session")
def small_workload() -> Workload:
    """A small but fully featured synthetic workload (2 days, 60 apps)."""
    config = GeneratorConfig(
        num_apps=60,
        duration_minutes=2 * MINUTES_PER_DAY,
        seed=123,
        max_daily_rate=1200.0,
    )
    return WorkloadGenerator(config).generate()


@pytest.fixture(scope="session")
def medium_workload() -> Workload:
    """A slightly larger workload used by the simulation/experiment tests."""
    config = GeneratorConfig(
        num_apps=120,
        duration_minutes=3 * MINUTES_PER_DAY,
        seed=2020,
        max_daily_rate=2000.0,
    )
    return WorkloadGenerator(config).generate()


def make_function(
    function_id: str = "fn0",
    app_id: str = "app0",
    owner_id: str = "owner0",
    trigger: TriggerType = TriggerType.HTTP,
    average_seconds: float = 0.5,
) -> FunctionSpec:
    """Hand-rolled function spec used by schema-level unit tests."""
    return FunctionSpec(
        function_id=function_id,
        app_id=app_id,
        owner_id=owner_id,
        trigger=trigger,
        execution=ExecutionProfile(
            average_seconds=average_seconds,
            minimum_seconds=average_seconds / 2,
            maximum_seconds=average_seconds * 4,
            lognormal_mu=float(np.log(average_seconds)),
            lognormal_sigma=0.3,
        ),
    )


def make_app(
    app_id: str = "app0",
    owner_id: str = "owner0",
    triggers: tuple[TriggerType, ...] = (TriggerType.HTTP,),
    memory_mb: float = 170.0,
) -> AppSpec:
    """Hand-rolled application spec with one function per trigger."""
    functions = tuple(
        make_function(
            function_id=f"{app_id}-fn{i}", app_id=app_id, owner_id=owner_id, trigger=trigger
        )
        for i, trigger in enumerate(triggers)
    )
    return AppSpec(
        app_id=app_id,
        owner_id=owner_id,
        functions=functions,
        memory=MemoryProfile(
            average_mb=memory_mb,
            first_percentile_mb=memory_mb * 0.7,
            maximum_mb=memory_mb * 1.8,
        ),
    )


def make_workload(
    invocation_times: dict[str, list[float]],
    *,
    duration_minutes: float = 1440.0,
    triggers: dict[str, tuple[TriggerType, ...]] | None = None,
) -> Workload:
    """Build a workload with one single-function app per entry.

    Args:
        invocation_times: Mapping app id -> invocation timestamps (minutes).
        duration_minutes: Trace horizon.
        triggers: Optional per-app trigger tuples (default: one HTTP
            function per app).
    """
    triggers = triggers or {}
    apps = []
    invocations = {}
    for app_id, times in invocation_times.items():
        app = make_app(app_id=app_id, triggers=triggers.get(app_id, (TriggerType.HTTP,)))
        apps.append(app)
        per_function = {f.function_id: np.empty(0) for f in app.functions}
        first_function = app.functions[0].function_id
        per_function[first_function] = np.asarray(times, dtype=float)
        invocations.update(per_function)
    return Workload(apps, invocations, duration_minutes)


@pytest.fixture()
def two_app_workload() -> Workload:
    """Two deterministic apps: one periodic every 30 min, one sparse."""
    periodic = list(np.arange(0.0, 1440.0, 30.0))
    sparse = [100.0, 500.0, 900.0, 1300.0]
    return make_workload({"periodic": periodic, "sparse": sparse})
