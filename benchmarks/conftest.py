"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one paper table or figure: it builds (once per
session) the synthetic workload, runs the experiment driver under
``pytest-benchmark``, and prints the resulting rows/series so the numbers
can be compared against the paper (see EXPERIMENTS.md).

The workload is intentionally smaller than the paper's full production
trace so the whole harness completes in minutes; the *shapes* (orderings,
ratios, crossovers) are what the benchmarks reproduce, not absolute
values.

Execution engines
-----------------
Every figure benchmark routes its policy runs through the evaluator and
worker count selected by two environment variables (see
:mod:`repro.simulation.engine` for the semantics)::

    # Default: each policy family's in-process fast pass ("auto").
    PYTHONPATH=src python -m pytest benchmarks -q

    # Reference scalar loop (slowest, ground truth):
    REPRO_BENCH_EXECUTION=serial PYTHONPATH=src python -m pytest benchmarks -q

    # Sharded across a worker pool:
    REPRO_BENCH_WORKERS=8 PYTHONPATH=src python -m pytest benchmarks -q

The head-to-head engine comparison lives in
``benchmarks/test_bench_engine_speedup.py``; it carries the
``slow_bench`` marker (registered in pytest.ini) so it stays out of the
default tier-1 run and must be selected explicitly::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_engine_speedup.py -m slow_bench
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import ExperimentContext, ExperimentScale
from repro.simulation.engine import RunnerOptions

#: The repository checkout whose commit every entry names.
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Machine-readable performance trajectory, appended to by the speedup
#: benchmarks (see :func:`record_bench_result`).  Lives at the repo root
#: so successive runs accumulate a history of the measured speedups.
BENCH_RESULTS_PATH = REPO_ROOT / "BENCH_results.json"


def bench_environment() -> dict:
    """Where a number was measured: Python, cores, numpy, numba, commit.

    The commit is ``"unknown"`` outside a git checkout.
    """
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "numba": has_numba,
        "commit": commit or "unknown",
    }


def record_bench_result(
    name: str,
    *,
    statistic: str,
    bar: str,
    passed: bool,
    speedup: float | None = None,
    **details,
) -> None:
    """Append one benchmark measurement to ``BENCH_results.json``.

    Each entry records the benchmark name, the environment it ran in
    (:func:`bench_environment`), the statistic the numbers are (``"best
    of 3 runs"``), the bar they were held to (``"speedup >= 3x"``) and
    whether they ``passed`` it, the measured speedup (when the benchmark
    asserts one), and any extra details the benchmark chooses to keep
    (timings, workload shape).  A caller records before it asserts and
    passes ``passed=`` the comparison it asserts, so a missed bar lands
    as ``passed: false`` and fails ``benchmarks/report_trend.py``.  The
    file holds a JSON list and is append-only: re-runs add entries rather
    than overwrite, so the file is the perf trajectory across sessions.
    """
    entries: list[dict] = []
    if BENCH_RESULTS_PATH.exists():
        try:
            entries = json.loads(BENCH_RESULTS_PATH.read_text())
        except (json.JSONDecodeError, OSError):
            entries = []
        if not isinstance(entries, list):
            entries = []
    entry: dict = {
        "name": name,
        "recorded_unix": round(time.time(), 3),
        **bench_environment(),
        "statistic": statistic,
        "bar": bar,
        "passed": bool(passed),
    }
    if speedup is not None:
        entry["speedup"] = round(float(speedup), 3)
    if details:
        entry["details"] = details
    entries.append(entry)
    BENCH_RESULTS_PATH.write_text(json.dumps(entries, indent=2) + "\n")


@pytest.fixture(scope="session")
def record_bench():
    """The :func:`record_bench_result` appender, as a fixture.

    The benchmarks directory is not a package, so tests reach the helper
    through this fixture rather than importing ``conftest`` by path.
    """
    return record_bench_result


def _engine_options_from_env() -> RunnerOptions | None:
    """Engine selection for the whole harness via environment variables."""
    execution = os.environ.get("REPRO_BENCH_EXECUTION")
    workers = os.environ.get("REPRO_BENCH_WORKERS")
    if not execution and not workers:
        return None
    return RunnerOptions(
        execution=execution or "auto",
        workers=int(workers) if workers else None,
    )


@pytest.fixture(scope="session")
def experiment_context() -> ExperimentContext:
    """Workload shared by every benchmark (built once per session)."""
    scale = ExperimentScale(
        num_apps=150,
        duration_days=3.0,
        seed=2020,
        max_daily_rate=2000.0,
    )
    context = ExperimentContext(scale=scale, runner_options=_engine_options_from_env())
    # Force workload construction outside the benchmarked region.
    _ = context.workload
    return context


def run_and_print(benchmark, experiment_id: str, context: ExperimentContext):
    """Benchmark one experiment driver and print its table."""
    from repro.experiments import run_experiment

    result = benchmark.pedantic(
        run_experiment, args=(experiment_id, context), iterations=1, rounds=1
    )
    print()
    print(result.as_text())
    return result
