"""The benchmark's four workloads: inputs, measured region, output checks.

Every workload derives its inputs from the seed alone (``rng_scheme="v2"``
generator configs and the mid-range sampler), so one seed always gives
the same inputs and the same result digest.  ``setup`` prepares inputs
outside the measured region, ``run`` is the measured region, and
``check`` verifies a run's outputs against an independent reference
path outside the measured region.

Callables the tracer wraps are called through their modules
(``fused.simulate_streamed``, ``stream.stream_workload_to_store``) so
that a traced iteration sees the wrappers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from hashlib import sha256
from pathlib import Path
from typing import Any

import numpy as np

from repro.platform.cluster import ClusterConfig
from repro.platform.container import Container
from repro.platform.replay import ReplayConfig, ReplayFeed, compare_policies_on_platform
from repro.policies.registry import fixed_keepalive_factory, hybrid_factory
from repro.simulation import fused
from repro.simulation.runner import RunnerOptions, WorkloadRunner
from repro.simulation.sweep import combined_figure_factories
from repro.trace import stream
from repro.trace.generator import GeneratorConfig, WorkloadGenerator
from repro.trace.sampling import sample_mid_range_apps
from repro.trace.schema import Workload
from repro.trace.store import InvocationStore

__all__ = ["FULL", "SMOKE", "WORKLOADS", "Outcome", "digest"]

MINUTES_PER_DAY = 1440.0

#: In-flight activations one platform container accepts.
_CONTAINER_CONCURRENCY = next(
    f.default for f in fields(Container) if f.name == "concurrency_limit"
)

#: Timing keys in result summaries; kept out of the digest.
_TIMING_KEYS = frozenset({"controller_overhead_us"})


@dataclass
class Outcome:
    """What one measured iteration produced."""

    work: int  #: invocations (replay: submissions) processed
    summaries: dict[str, dict[str, float]]  #: per-policy result summaries
    evidence: Any  #: what ``check`` needs from the run
    counters: dict[str, float] = field(default_factory=dict)


def digest(outcome: Outcome) -> str:
    """Hash of the run's result summaries, with timings left out."""
    payload = {
        policy: {k: v for k, v in sorted(summary.items()) if k not in _TIMING_KEYS}
        for policy, summary in outcome.summaries.items()
    }
    return sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _generator_config(size: dict, seed: int) -> GeneratorConfig:
    return GeneratorConfig(
        num_apps=size["apps"],
        duration_minutes=size["days"] * MINUTES_PER_DAY,
        seed=seed,
        target_rps=size["target_rps"],
        rng_scheme="v2",
    )


def _generated_prefix(config: GeneratorConfig, stop: int) -> InvocationStore:
    """Apps ``[0, stop)`` generated directly: the reference the checks use."""
    chunk = WorkloadGenerator(config).generate_app_range(0, min(stop, config.num_apps))
    return InvocationStore.from_app_columns(
        chunk.app_functions(), chunk.app_times, chunk.app_positions, config.duration_minutes
    )


def _per_app(result, limit: int | None = None) -> list[tuple[str, int, float]]:
    """``(app id, cold starts, wasted minutes)`` of the first ``limit`` apps."""
    return [
        (r.app_id, r.cold_starts, r.wasted_memory_minutes)
        for r in result.app_results[:limit]
    ]


def _compare_per_app(label: str, got: list, want: list) -> list[str]:
    """Exact cold starts and waste within 1e-9, app by app."""
    if len(got) < len(want):
        return [f"{label}: {len(got)} apps in the run, {len(want)} in the reference"]
    for (app, cold, waste), (ref_app, ref_cold, ref_waste) in zip(got, want):
        if app != ref_app or cold != ref_cold or not math.isclose(
            waste, ref_waste, rel_tol=0.0, abs_tol=1e-9
        ):
            return [
                f"{label}: app {app} gave ({cold}, {waste!r}); "
                f"reference {ref_app} gave ({ref_cold}, {ref_waste!r})"
            ]
    return []


class FusedHybrid:
    """Generate and simulate the hybrid policy in one streaming pass."""

    name = "fused-hybrid"

    def setup(self, size: dict, seed: int, workdir: Path) -> dict:
        return {"size": size, "config": _generator_config(size, seed)}

    def run(self, state: dict) -> Outcome:
        size = state["size"]
        results = fused.simulate_streamed(
            state["config"],
            [hybrid_factory()],
            options=RunnerOptions(execution="banked", max_resident_bytes=64_000_000),
            chunk_apps=size["chunk_apps"],
            gen_workers=size["workers"],
        )
        summaries = {name: result.summary() for name, result in results.items()}
        (result,) = results.values()
        return Outcome(
            work=int(summaries[result.policy_name]["total_invocations"]),
            summaries=summaries,
            evidence=_per_app(result, size["check_apps"]),
        )

    def check(self, state: dict, evidence: list) -> list[str]:
        reference_store = _generated_prefix(state["config"], state["size"]["check_apps"])
        reference = WorkloadRunner(
            reference_store, RunnerOptions(execution="serial")
        ).run_policy(hybrid_factory())
        return _compare_per_app("fused vs serial", evidence, _per_app(reference))


class TraceGen:
    """Stream the fused workload's trace to an on-disk store."""

    name = "trace-gen"

    def setup(self, size: dict, seed: int, workdir: Path) -> dict:
        return {
            "size": size,
            "config": _generator_config(size, seed),
            "path": workdir / "trace-gen.npz",
        }

    def run(self, state: dict) -> Outcome:
        size = state["size"]
        stats = stream.stream_workload_to_store(
            state["config"],
            state["path"],
            chunk_apps=size["chunk_apps"],
            workers=size["workers"],
        )
        summary = stats.summary()
        return Outcome(
            work=stats.num_invocations, summaries={"store": summary}, evidence=stats
        )

    def check(self, state: dict, stats) -> list[str]:
        config = state["config"]
        errors = []
        store = InvocationStore.open(stats.path, mmap=True)
        if store.num_invocations != stats.num_invocations:
            errors.append(
                f"store holds {store.num_invocations} invocations, "
                f"StreamStats reported {stats.num_invocations}"
            )
        offsets = np.asarray(store.app_offsets)
        if offsets[0] != 0 or np.any(np.diff(offsets) < 0):
            errors.append("CSR app offsets are not monotone from 0")
        expected = _generated_prefix(config, state["size"]["chunk_apps"])
        written = np.asarray(store.times[: int(offsets[expected.num_apps])])
        if written.tobytes() != expected.times.tobytes():
            errors.append("chunk 0 times differ from generate_app_range(0, chunk_apps)")
        return errors


class SweepFigs:
    """The Figure 14-18 policy sweep over a memory-mapped on-disk store."""

    name = "sweep-figs"

    def setup(self, size: dict, seed: int, workdir: Path) -> dict:
        stats = stream.stream_workload_to_store(
            _generator_config(size, seed), workdir / "sweep-figs.npz"
        )
        return {
            "size": size,
            "path": stats.path,
            "factories": combined_figure_factories(
                ["fig14", "fig15", "fig16", "fig17", "fig18"]
            ),
        }

    def run(self, state: dict) -> Outcome:
        store = InvocationStore.open(state["path"], mmap=True)
        results = WorkloadRunner(store).run_policies(state["factories"])
        summaries = {name: result.summary() for name, result in results.items()}
        check_apps = state["size"]["check_apps"]
        return Outcome(
            work=store.num_invocations,
            summaries=summaries,
            evidence={name: _per_app(r, check_apps) for name, r in results.items()},
        )

    def check(self, state: dict, evidence: dict) -> list[str]:
        store = InvocationStore.open(state["path"], mmap=True)
        subset = store.subset(range(min(state["size"]["check_apps"], store.num_apps)))
        reference = WorkloadRunner(
            subset, RunnerOptions(execution="serial", sweep="per-policy")
        ).run_policies(state["factories"])
        errors = []
        for name, result in reference.items():
            errors += _compare_per_app(f"{name} vs serial", evidence[name], _per_app(result))
        return errors


def _without_concurrency_bursts(workload: Workload, replay: ReplayConfig) -> Workload:
    """Drop apps whose bursts could exceed one container's concurrency limit.

    An activation stays in flight for at most its capped execution time
    plus its cold start (seconds), so an app with no more invocations
    than the limit in any window of the cap plus a minute can never
    overrun its container.  An app that can aborts the whole replay: the
    invoker never checks ``Container.has_capacity()`` (pinned in
    ``test_known_failures.py``).  Without this filter some seeds' samples
    hold such an app.
    """
    window_minutes = replay.max_execution_seconds / 60.0 + 1.0
    store = workload.store
    keep = []
    for index, app in enumerate(workload.apps):
        times = store.app_slice(index)
        times = times[times < replay.duration_minutes]
        in_window = np.searchsorted(times, times + window_minutes, side="right")
        if times.size == 0 or (
            np.max(in_window - np.arange(times.size)) <= _CONTAINER_CONCURRENCY
        ):
            keep.append(app.app_id)
    return workload.subset(keep)


class ReplayFig20:
    """The Figure 20 platform replay of mid-range apps under two policies."""

    name = "replay-fig20"

    def setup(self, size: dict, seed: int, workdir: Path) -> dict:
        workload = WorkloadGenerator(
            GeneratorConfig(
                num_apps=size["apps"],
                duration_minutes=size["minutes"],
                seed=seed,
                rng_scheme="v2",
            )
        ).generate()
        replay = ReplayConfig(size["minutes"], seed=7)
        sample = sample_mid_range_apps(workload, size["sampled_apps"], seed=seed)
        return {"sample": _without_concurrency_bursts(sample, replay), "replay": replay}

    def run(self, state: dict) -> Outcome:
        results = compare_policies_on_platform(
            state["sample"],
            [fixed_keepalive_factory(10), hybrid_factory()],
            replay_config=state["replay"],
            cluster_config=ClusterConfig(),
        )
        summaries = {name: result.summary() for name, result in results.items()}
        evidence = {
            name: (
                r.conservation_holds,
                r.submissions,
                r.metrics.total_invocations,
                r.completed_unique,
            )
            for name, r in results.items()
        }
        return Outcome(
            work=sum(r.submissions for r in results.values()),
            summaries=summaries,
            evidence=evidence,
            counters={
                "platform.cold_starts": sum(
                    s["total_cold_starts"] for s in summaries.values()
                ),
                "platform.evictions": sum(s["evictions"] for s in summaries.values()),
                "platform.policy_update_us": float(
                    np.mean([s["controller_overhead_us"] for s in summaries.values()])
                ),
            },
        )

    def check(self, state: dict, evidence: dict) -> list[str]:
        expected = ReplayFeed(state["sample"], state["replay"]).num_submissions
        errors = []
        for name, (conserved, submissions, recorded, completed) in evidence.items():
            if not conserved:
                errors.append(f"{name}: completed + dropped != submissions")
            if submissions != expected:
                errors.append(f"{name}: {submissions} submissions, feed has {expected}")
            if recorded != completed:
                errors.append(f"{name}: {recorded} recorded, {completed} completed")
        return errors


WORKLOADS = {w.name: w for w in (FusedHybrid(), TraceGen(), SweepFigs(), ReplayFig20())}

_DENSE_DAY = {"apps": 8192, "days": 1.0, "target_rps": 10.0, "chunk_apps": 2048, "workers": 2}

#: Input sizes of the benchmark runs.  Each measured iteration takes about
#: one to three seconds on a 2-core machine, so a run of a few seconds
#: holds several iterations to take the median of.
FULL = {
    "fused-hybrid": {**_DENSE_DAY, "check_apps": 512},
    "trace-gen": dict(_DENSE_DAY),
    "sweep-figs": {"apps": 4000, "days": 1.0, "target_rps": 5.0, "check_apps": 64},
    "replay-fig20": {"apps": 2000, "minutes": 240.0, "sampled_apps": 200},
}

#: Tiny inputs for the smoke test: every workload in a fraction of a second.
#: One generation worker keeps the test suite's process fork-free; the
#: pool path is the generator's own tests' job.
SMOKE = {
    "fused-hybrid": {
        "apps": 96, "days": 0.25, "target_rps": 0.5, "chunk_apps": 32, "workers": 1,
        "check_apps": 16,
    },
    "trace-gen": {"apps": 96, "days": 0.25, "target_rps": 0.5, "chunk_apps": 32, "workers": 1},
    "sweep-figs": {"apps": 48, "days": 0.25, "target_rps": 0.1, "check_apps": 8},
    "replay-fig20": {"apps": 200, "minutes": 60.0, "sampled_apps": 12},
}
