"""Golden digests of the simulator's results.

The equivalence suites compare the fast evaluators with the serial
reference, so a change that moved both routes together would pass them.
These digests pin what both routes produce on one generated day: every
policy's ``summary()`` plus each application's id, cold starts and
wasted memory minutes (as exact float hex), for the 23 Figure 14-18
policies under ``execution="auto"`` and for three of them under the
much slower ``execution="serial"``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.policies.registry import (
    fixed_keepalive_factory,
    hybrid_factory,
    no_unloading_factory,
)
from repro.simulation import RunnerOptions, WorkloadRunner, combined_figure_factories
from repro.trace.generator import GeneratorConfig, WorkloadGenerator

GOLDEN_CONFIG = GeneratorConfig(
    num_apps=80, duration_minutes=1440, seed=2020, max_daily_rate=1500
)

RESULT_DIGESTS = {
    "auto": "a33194282a4a63804a57b6993cb70753a14e271a2b7326b36f3aafeef2d4a3bf",
    "serial": "11554e8f5b4b0f6fd604a711fa7cc20c389ddf50eeada6799cf2b6b204920d6c",
}


def results_digest(results) -> str:
    digest = hashlib.sha256()
    for name, result in results.items():
        digest.update(name.encode())
        digest.update(json.dumps(result.summary(), sort_keys=True).encode())
        for app_id, cold, wasted in zip(
            result.app_ids,
            result.cold_starts.tolist(),
            result.wasted_memory_minutes.tolist(),
        ):
            digest.update(f"{app_id},{cold},{wasted.hex()};".encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def golden_workload():
    return WorkloadGenerator(GOLDEN_CONFIG).generate()


@pytest.mark.parametrize("execution", ["auto", "serial"])
def test_results_digest_pinned(golden_workload, execution):
    if execution == "auto":
        factories = combined_figure_factories(["fig14", "fig15", "fig16", "fig17", "fig18"])
        assert len(factories) == 23
    else:
        # Every Figure 14-18 policy would take seconds through the scalar
        # loop; one of each kind covers its per-invocation arithmetic.
        factories = [fixed_keepalive_factory(10), no_unloading_factory(), hybrid_factory()]
    runner = WorkloadRunner(golden_workload, RunnerOptions(execution=execution))
    assert results_digest(runner.run_policies(factories)) == RESULT_DIGESTS[execution]
