"""Out-of-core scale-out benchmark: 100k+ apps streamed to disk.

The acceptance bar for the out-of-core pipeline, asserted directly:

* Streaming generation at >= 100k applications completes with peak RSS
  **flat in app count** — the 100k-app run (same aggregate load via
  ``target_rps``) must stay within a small factor of the 25k-app run's
  peak, and under a fixed absolute bound, because chunked generation and
  the memory-bounded hybrid pass never hold more than one chunk of the
  trace (plus one chunk of per-app pass state) resident.
* The streamed archive is bit-identical to ``generate().store.save()``
  at small scale (chunk boundaries never touch the RNG stream).
* Shared-memory shard results are byte-identical across 1/2/4 workers.
* Parallel generation is byte-identical to the serial path for
  any worker count, and on a >= 4-core machine at least 3x faster at 4
  workers with near-linear scaling at 2.
* A 1M-app / ~100M-invocation fused generate+simulate run completes
  with peak RSS flat in app count (subprocess-measured, against a
  quarter-scale run at the same aggregate load).
* Measured invocations/sec throughput entries (generation, the hybrid
  pass, parallel generation, and the fused million-app run) are
  appended to ``BENCH_results.json``.

Each scale runs in a subprocess so ``ru_maxrss`` reports that scale's
own peak, not the pytest session's high-water mark.

The module carries the ``slow_bench`` marker; select it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_scaleout.py -m slow_bench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import zipfile
from pathlib import Path

import pytest

from repro.policies.registry import fixed_keepalive_factory, hybrid_factory
from repro.simulation.engine import RunnerOptions
from repro.simulation.runner import WorkloadRunner
from repro.trace.generator import GeneratorConfig, WorkloadGenerator
from repro.trace.store import InvocationStore
from repro.trace.stream import stream_workload_to_store

pytestmark = pytest.mark.slow_bench

#: Aggregate load shared by both scales: ~150 rps over one day is ~13M
#: invocations, so quadrupling the app count changes *only* the app
#: count — the axis the flat-RSS claim is about.
TARGET_RPS = 150.0
BUDGET_BYTES = 64_000_000
SMALL_SCALE = 25_000
LARGE_SCALE = 100_000

#: The 100k-app peak may exceed the 25k-app peak only by this factor.
#: Per-chunk state is budget-bounded at both scales; what legitimately
#: grows are the per-app result rows and id strings (~100 MB across the
#: extra 75k apps), which the absolute bound below also caps.
RSS_FLAT_RATIO = 2.5
RSS_ABSOLUTE_BOUND_MB = 1024.0

#: One scale's whole pipeline, run in a child process: stream-generate to
#: disk, re-open memory-mapped, run the hybrid pass under the
#: resident-bytes budget, report timings and the child's own peak RSS.
_CHILD_SCRIPT = """
import json, resource, sys, time

from repro.policies.registry import hybrid_factory
from repro.simulation.runner import WorkloadRunner
from repro.simulation.engine import RunnerOptions
from repro.trace.generator import GeneratorConfig
from repro.trace.store import InvocationStore
from repro.trace.stream import stream_workload_to_store

num_apps, out, target_rps, budget = (
    int(sys.argv[1]), sys.argv[2], float(sys.argv[3]), int(sys.argv[4])
)
config = GeneratorConfig(
    num_apps=num_apps, duration_minutes=1440.0, seed=2020, target_rps=target_rps
)
start = time.perf_counter()
stats = stream_workload_to_store(config, out)
gen_seconds = time.perf_counter() - start

store = InvocationStore.open(stats.path)
profile = store.memory_profile()
start = time.perf_counter()
result = WorkloadRunner(
    store, RunnerOptions(max_resident_bytes=budget)
).run_policy(hybrid_factory())
sim_seconds = time.perf_counter() - start

print(json.dumps({
    "num_apps": stats.num_apps,
    "num_invocations": stats.num_invocations,
    "gen_seconds": gen_seconds,
    "sim_seconds": sim_seconds,
    "simulated_apps": result.num_apps,
    "cold_starts": int(sum(r.cold_starts for r in result.app_results)),
    "disk_bytes": stats.path.stat().st_size,
    "store_heap_bytes": profile["heap_bytes"],
    "store_mapped_bytes": profile["mapped_bytes"],
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
}))
"""


def _run_scale(num_apps: int, out: Path) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            _CHILD_SCRIPT,
            str(num_apps),
            str(out),
            str(TARGET_RPS),
            str(BUDGET_BYTES),
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def test_scaleout_100k_apps_flat_rss(tmp_path, record_bench):
    """>= 100k apps streamed to disk with peak RSS flat in app count."""
    small = _run_scale(SMALL_SCALE, tmp_path / "small.npz")
    large = _run_scale(LARGE_SCALE, tmp_path / "large.npz")

    for report in (small, large):
        # The aggregate-load knob worked: both scales carry the same
        # ~13M-invocation day, so app count is the only changing axis.
        assert report["num_invocations"] >= 10_000_000
        # The mapped store contributes no heap-resident columns.
        assert report["store_heap_bytes"] == 0
        assert report["store_mapped_bytes"] >= report["num_invocations"] * 8
        assert report["cold_starts"] > 0

    assert large["num_apps"] >= 100_000
    rss_ratio = large["peak_rss_mb"] / small["peak_rss_mb"]
    print(
        f"\n25k apps: {small['num_invocations']:,} inv, "
        f"gen {small['gen_seconds']:.1f}s, hybrid {small['sim_seconds']:.1f}s, "
        f"peak RSS {small['peak_rss_mb']:.0f} MB"
        f"\n100k apps: {large['num_invocations']:,} inv, "
        f"gen {large['gen_seconds']:.1f}s, hybrid {large['sim_seconds']:.1f}s, "
        f"peak RSS {large['peak_rss_mb']:.0f} MB "
        f"({large['disk_bytes'] / 1e6:.0f} MB on disk, ratio {rss_ratio:.2f}x)"
    )
    passed = (
        large["peak_rss_mb"] <= RSS_ABSOLUTE_BOUND_MB and rss_ratio <= RSS_FLAT_RATIO
    )
    record_bench(
        "scaleout/100k-apps-out-of-core",
        statistic="one run per scale, each in a fresh child",
        bar=(
            f"100k-app peak RSS <= {RSS_ABSOLUTE_BOUND_MB:g} MB and <= "
            f"{RSS_FLAT_RATIO:g}x the 25k-app peak"
        ),
        passed=passed,
        num_apps=large["num_apps"],
        num_invocations=large["num_invocations"],
        gen_invocations_per_second=round(
            large["num_invocations"] / large["gen_seconds"]
        ),
        # Key kept from the banked route so the trend history stays comparable.
        banked_invocations_per_second=round(
            large["num_invocations"] / large["sim_seconds"]
        ),
        peak_rss_mb_25k=round(small["peak_rss_mb"], 1),
        peak_rss_mb_100k=round(large["peak_rss_mb"], 1),
        disk_mb=round(large["disk_bytes"] / 1e6, 1),
        budget_bytes=BUDGET_BYTES,
    )
    assert passed, (
        f"100k-app peak RSS {large['peak_rss_mb']:.0f} MB "
        f"(ratio {rss_ratio:.2f}x to the 25k-app peak) over its bound"
    )


#: App count for the parallel-generation speedup measurement (the same
#: ~13M-invocation day as the flat-RSS scales; override to shrink local
#: smoke runs).
PARGEN_APPS = int(os.environ.get("REPRO_BENCH_PARGEN_APPS", str(LARGE_SCALE)))

#: The million-app fused run: ~1200 rps over one day is ~104M
#: invocations.  Both knobs are env-overridable so the bench can be
#: smoke-tested at reduced scale.
MILLION_APPS = int(os.environ.get("REPRO_BENCH_MILLION_APPS", "1000000"))
MILLION_RPS = float(os.environ.get("REPRO_BENCH_MILLION_RPS", "1200"))

#: The full-scale fused peak may exceed the quarter-scale peak only by
#: this factor: per-chunk state is identical (same chunk_apps, same
#: aggregate load), so what grows 4x are the O(num_apps) population
#: arrays and per-app result rows.
MILLION_RSS_FLAT_RATIO = 3.0
MILLION_RSS_ABSOLUTE_BOUND_MB = 4096.0


def test_parallel_generation_speedup_and_byte_identity(tmp_path, record_bench):
    """Parallel generation: identical bytes, >= 3x at 4 workers."""
    # Byte-identity leg (always runs, any core count): the fork-based
    # fan-out must be invisible in the published archive.
    small = GeneratorConfig(
        num_apps=4_000,
        duration_minutes=1440.0,
        seed=2020,
        target_rps=10.0,
    )
    serial_small = stream_workload_to_store(small, tmp_path / "id1.npz", workers=1)
    parallel_small = stream_workload_to_store(
        small, tmp_path / "id4.npz", workers=4, chunk_apps=512
    )
    assert serial_small.path.read_bytes() == parallel_small.path.read_bytes()

    # Timing leg: same shape as the flat-RSS scales (~13M invocations).
    cores = os.cpu_count() or 1
    config = GeneratorConfig(
        num_apps=PARGEN_APPS,
        duration_minutes=1440.0,
        seed=2020,
        target_rps=TARGET_RPS,
    )
    seconds: dict[int, float] = {}
    invocations = 0
    for workers in (4, 2, 1):  # hottest caches go to the serial baseline
        out = tmp_path / f"gen{workers}.npz"
        start = time.perf_counter()
        stats = stream_workload_to_store(config, out, workers=workers)
        seconds[workers] = time.perf_counter() - start
        invocations = stats.num_invocations
        out.unlink()
    speedup_2 = seconds[1] / seconds[2]
    speedup_4 = seconds[1] / seconds[4]
    print(
        f"\nparallel generation ({PARGEN_APPS:,} apps, {invocations:,} inv, "
        f"{cores} cores): 1w {seconds[1]:.1f}s, 2w {seconds[2]:.1f}s "
        f"({speedup_2:.2f}x), 4w {seconds[4]:.1f}s ({speedup_4:.2f}x)"
    )
    # The speedup bars need the cores to run 4 workers side by side.
    bar_applies = cores >= 4
    passed = not bar_applies or (speedup_4 >= 3.0 and speedup_2 >= 1.5)
    record_bench(
        "scaleout/parallel-generation",
        statistic="one timed run per worker count",
        bar=(
            "identical bytes; 4 workers >= 3x and 2 workers >= 1.5x the "
            "serial rate, on >= 4 cores only"
        ),
        passed=passed,
        speedup=speedup_4,
        num_apps=PARGEN_APPS,
        num_invocations=invocations,
        gen_1w_invocations_per_second=round(invocations / seconds[1]),
        gen_4w_invocations_per_second=round(invocations / seconds[4]),
        speedup_2_workers=round(speedup_2, 3),
    )
    assert passed, (
        f"4-worker speedup {speedup_4:.2f}x (bar 3x), "
        f"2-worker speedup {speedup_2:.2f}x (bar 1.5x)"
    )
    if not bar_applies:
        print(f"(speedup bars skipped: only {cores} core(s) available)")


#: One fused generate+simulate pass at full scale, in a child process:
#: no disk round-trip, each chunk generated and simulated in one pool
#: worker, child-measured wall time and peak RSS.  The workers hold the
#: simulation state, so the peak is the larger of the child's own and its
#: largest worker's, and both parts are reported.
_FUSED_CHILD_SCRIPT = """
import json, resource, sys, time

from repro.policies.registry import hybrid_factory
from repro.simulation.engine import RunnerOptions
from repro.simulation.fused import simulate_streamed
from repro.trace.generator import GeneratorConfig

num_apps, target_rps, budget, gen_workers = (
    int(sys.argv[1]), float(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
)
config = GeneratorConfig(
    num_apps=num_apps, duration_minutes=1440.0, seed=2020,
    target_rps=target_rps,
)
start = time.perf_counter()
results = simulate_streamed(
    config,
    [hybrid_factory()],
    options=RunnerOptions(max_resident_bytes=budget),
    chunk_apps=16384,
    gen_workers=gen_workers,
)
seconds = time.perf_counter() - start
result = next(iter(results.values()))
parent_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
children_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
print(json.dumps({
    "num_apps": num_apps,
    "simulated_apps": result.num_apps,
    "num_invocations": result.total_invocations,
    "cold_starts": result.total_cold_starts,
    "seconds": seconds,
    "peak_rss_mb": max(parent_rss_mb, children_rss_mb),
    "parent_rss_mb": parent_rss_mb,
    "children_rss_mb": children_rss_mb,
}))
"""


def _run_fused_scale(num_apps: int, gen_workers: int) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            _FUSED_CHILD_SCRIPT,
            str(num_apps),
            str(MILLION_RPS),
            str(BUDGET_BYTES),
            str(gen_workers),
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def test_million_app_fused_end_to_end(record_bench):
    """1M apps / ~100M invocations, generated and simulated in one pass."""
    gen_workers = min(4, os.cpu_count() or 1)
    quarter = _run_fused_scale(max(MILLION_APPS // 4, 1), gen_workers)
    full = _run_fused_scale(MILLION_APPS, gen_workers)

    expected_invocations = MILLION_RPS * 86400.0
    # Arrival realizations and per-app caps leave slack around the target.
    assert 0.5 * expected_invocations <= full["num_invocations"] <= 2.0 * expected_invocations
    assert full["simulated_apps"] > 0
    assert full["cold_starts"] > 0

    rss_ratio = full["peak_rss_mb"] / quarter["peak_rss_mb"]
    rate = full["num_invocations"] / full["seconds"]
    print(
        f"\nfused {quarter['num_apps']:,} apps: {quarter['num_invocations']:,} inv "
        f"in {quarter['seconds']:.1f}s, peak RSS {quarter['peak_rss_mb']:.0f} MB"
        f"\nfused {full['num_apps']:,} apps: {full['num_invocations']:,} inv "
        f"in {full['seconds']:.1f}s ({rate:,.0f} inv/s end-to-end), "
        f"peak RSS {full['peak_rss_mb']:.0f} MB (ratio {rss_ratio:.2f}x, "
        f"{gen_workers} gen workers)"
    )
    passed = (
        full["peak_rss_mb"] <= MILLION_RSS_ABSOLUTE_BOUND_MB
        and rss_ratio <= MILLION_RSS_FLAT_RATIO
    )
    record_bench(
        "scaleout/million-app-fused",
        statistic="one run per scale, each in a fresh child",
        bar=(
            f"full-scale peak RSS <= {MILLION_RSS_ABSOLUTE_BOUND_MB:g} MB and <= "
            f"{MILLION_RSS_FLAT_RATIO:g}x the quarter-scale peak"
        ),
        passed=passed,
        num_apps=full["num_apps"],
        num_invocations=full["num_invocations"],
        fused_invocations_per_second=round(rate),
        seconds=round(full["seconds"], 1),
        peak_rss_mb_quarter=round(quarter["peak_rss_mb"], 1),
        peak_rss_mb_full=round(full["peak_rss_mb"], 1),
        parent_rss_mb_full=round(full["parent_rss_mb"], 1),
        children_rss_mb_full=round(full["children_rss_mb"], 1),
        gen_workers=gen_workers,
    )
    assert passed, (
        f"full-scale peak RSS {full['peak_rss_mb']:.0f} MB "
        f"(ratio {rss_ratio:.2f}x to the quarter-scale peak) over its bound"
    )


def test_streamed_archive_bit_identical_at_small_scale(tmp_path):
    """Chunk boundaries never change the published bytes."""
    config = GeneratorConfig(
        num_apps=200, duration_minutes=1440.0, seed=2020, max_daily_rate=500.0
    )
    mono = WorkloadGenerator(config).generate().store.save(tmp_path / "mono.npz")
    streamed = stream_workload_to_store(config, tmp_path / "s.npz", chunk_apps=17)

    def members(path):
        with zipfile.ZipFile(path) as archive:
            return {name: archive.read(name) for name in archive.namelist()}

    assert members(mono) == members(streamed.path)


def test_shard_results_identical_across_1_2_4_workers(tmp_path):
    """Descriptor-based shared-memory shards change nothing but speed."""
    config = GeneratorConfig(
        num_apps=2_000, duration_minutes=1440.0, seed=2020, target_rps=20.0
    )
    stats = stream_workload_to_store(config, tmp_path / "shard.npz")
    store = InvocationStore.open(stats.path)

    for factory in (fixed_keepalive_factory(10.0), hybrid_factory()):
        reference = WorkloadRunner(
            store, RunnerOptions(max_resident_bytes=BUDGET_BYTES)
        ).run_policy(factory)
        expected = [
            (r.app_id, r.invocations, r.cold_starts, r.wasted_memory_minutes)
            for r in reference.app_results
        ]
        for workers in (1, 2, 4):
            sharded = WorkloadRunner(
                store,
                RunnerOptions(workers=workers, max_resident_bytes=BUDGET_BYTES),
            ).run_policy(factory)
            rows = [
                (r.app_id, r.invocations, r.cold_starts, r.wasted_memory_minutes)
                for r in sharded.app_results
            ]
            assert rows == expected, f"{factory.name} workers={workers}"
