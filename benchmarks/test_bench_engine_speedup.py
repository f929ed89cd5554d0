"""Engine and workload-pipeline speedup benchmarks.

Benchmarks one fixed keep-alive policy run and one hybrid histogram
policy run over the session workload (150 apps, 3 days — the same
workload every figure benchmark uses) under the execution modes of
:mod:`repro.simulation.engine`, and asserts the speed claims: the
``auto`` closed-form fixed-policy pass is at least 10x faster than the
reference serial loop, and the ``auto`` hybrid recording pass is at
least 5x faster than replaying the hybrid policy serially.  It also
holds banked stepping's batched ARIMA fitter to its per-row loop.

It also benchmarks the **workload pipeline** itself: building the
invocation representation from per-function timestamp arrays and running
the core characterization reductions (per-app merge, IAT CVs, daily
rates, hourly load, per-minute count matrix).  The columnar
:class:`~repro.trace.store.InvocationStore` path must beat the seed's
per-function-dict path by at least 3x.

The whole module carries the ``slow_bench`` marker, so it stays out of
the default (tier-1) test run; select it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_engine_speedup.py -m slow_bench

See benchmarks/conftest.py for running the *figure* benchmarks under a
chosen engine via ``REPRO_BENCH_EXECUTION`` / ``REPRO_BENCH_WORKERS``.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from repro.core.config import HybridPolicyConfig
from repro.policies.bank import HybridPolicyBank
from repro.policies.registry import PolicyFactory, fixed_keepalive_factory, hybrid_factory
from repro.simulation.engine import RunnerOptions, SimulationEngine
from repro.simulation.runner import WorkloadRunner
from repro.trace.arrival import iat_coefficient_of_variation
from repro.trace.store import InvocationStore

pytestmark = pytest.mark.slow_bench

ENGINE_OPTIONS = {
    "serial": RunnerOptions(execution="serial"),
    "auto": RunnerOptions(),
    "sharded": RunnerOptions(workers=2),
}


@pytest.fixture(scope="module")
def workload(experiment_context):
    return experiment_context.workload


@pytest.fixture(scope="module")
def factory() -> PolicyFactory:
    return fixed_keepalive_factory(10.0)


@pytest.mark.parametrize("engine", list(ENGINE_OPTIONS))
def test_bench_fixed_policy_engines(benchmark, workload, factory, engine):
    """One pytest-benchmark group comparing the configurations head to head."""
    runner = WorkloadRunner(workload, ENGINE_OPTIONS[engine])
    benchmark.group = "fixed-10min over session workload"
    result = benchmark.pedantic(
        runner.run_policy, args=(factory,), iterations=1, rounds=3, warmup_rounds=1
    )
    assert result.num_apps > 0


def _best_of(runs: int, fn) -> float:
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_closed_form_at_least_10x(workload, factory, record_bench):
    """The closed-form fixed-policy speedup, asserted directly.

    Best-of-3 wall-clock per mode; the ``auto`` closed-form pass must beat
    the serial scalar loop by >= 10x on the benchmark workload.  The
    record keeps the key and detail names of the vectorized route it
    replaced, so the trend history stays comparable.
    """
    serial = WorkloadRunner(workload, ENGINE_OPTIONS["serial"])
    closed_form = WorkloadRunner(workload, ENGINE_OPTIONS["auto"])
    # Warm both paths (numpy import costs, workload invocation cache).
    closed_form.run_policy(factory)

    serial_best = _best_of(3, lambda: serial.run_policy(factory))
    vectorized_best = _best_of(3, lambda: closed_form.run_policy(factory))
    speedup = serial_best / vectorized_best
    print(
        f"\nserial best {serial_best * 1e3:.1f} ms, "
        f"closed form best {vectorized_best * 1e3:.1f} ms, "
        f"speedup {speedup:.1f}x"
    )
    passed = speedup >= 10.0
    record_bench(
        "engine/vectorized-vs-serial",
        statistic="best of 3 runs per mode",
        bar="closed form >= 10x the serial loop",
        passed=passed,
        speedup=speedup,
        serial_seconds=serial_best,
        vectorized_seconds=vectorized_best,
    )
    assert passed, f"closed-form speedup {speedup:.2f}x below 10x"


@pytest.mark.parametrize("engine", ["serial", "auto"])
def test_bench_hybrid_policy_engines(benchmark, workload, engine):
    """Head-to-head group: the hybrid policy under serial vs auto."""
    runner = WorkloadRunner(workload, ENGINE_OPTIONS[engine])
    benchmark.group = "hybrid-4h over session workload"
    result = benchmark.pedantic(
        runner.run_policy, args=(hybrid_factory(),), iterations=1, rounds=3, warmup_rounds=1
    )
    assert result.num_apps > 0


def test_hybrid_pass_at_least_5x(workload, record_bench):
    """The hybrid-pass speedup, asserted directly.

    The ``auto`` hybrid run (one recording pass stepping every
    application together, then the configuration's decision masks) must
    beat the serial per-app scalar replay by >= 5x on the benchmark
    workload, while the equivalence suite guarantees identical results.
    The record keeps the key and detail names of the banked route it
    replaced, so the trend history stays comparable.
    """
    factory = hybrid_factory()
    serial = WorkloadRunner(workload, ENGINE_OPTIONS["serial"])
    fast = WorkloadRunner(workload, ENGINE_OPTIONS["auto"])
    fast_result = fast.run_policy(factory)  # warm-up

    serial_best = _best_of(2, lambda: serial.run_policy(factory))
    banked_best = _best_of(3, lambda: fast.run_policy(factory))
    speedup = serial_best / banked_best
    print(
        f"\nserial best {serial_best * 1e3:.1f} ms, "
        f"auto best {banked_best * 1e3:.1f} ms, "
        f"speedup {speedup:.1f}x"
    )
    passed = speedup >= 5.0
    record_bench(
        "engine/banked-vs-serial-hybrid",
        statistic="best of 2 (serial) and 3 (auto) runs",
        bar="hybrid pass >= 5x the serial loop",
        passed=passed,
        speedup=speedup,
        serial_seconds=serial_best,
        banked_seconds=banked_best,
    )
    # Sanity: the run actually exercised the hybrid decision modes.
    assert fast_result.mode_usage().get("histogram", 0) > 0
    assert passed, f"hybrid-pass speedup {speedup:.2f}x below 5x"


# --------------------------------------------------------------------------- #
# Batched ARIMA: banked stepping under an ARIMA-heavy (fig 19-style) config
# --------------------------------------------------------------------------- #
WASTE_TOLERANCE = 1e-9

#: Fig 19-flavoured ARIMA-heavy configuration: a short (20-minute)
#: histogram range pushes a large share of idle times out of bounds and a
#: lowered OOB threshold hands those apps to the time-series component
#: early, so the bank leans on ARIMA far more than the 4-hour default —
#: the regime Figure 19 isolates.
ARIMA_HEAVY_CONFIG = HybridPolicyConfig(
    histogram_range_minutes=20.0, oob_fraction_threshold=0.2
)


def _banked_run(workload, *, batched_arima: bool):
    """One banked stepping pass of the ARIMA-heavy hybrid policy.

    ``batched_arima=False`` keeps the bank's per-row scalar ARIMA loop —
    the baseline the stacked fitter must beat.
    """
    engine = SimulationEngine(workload)
    chunk = engine.csr_slice()
    return engine.simulator.simulate_apps_banked(
        list(chunk.app_ids),
        chunk.app_times(),
        lambda num_apps: HybridPolicyBank(
            num_apps, ARIMA_HEAVY_CONFIG, batched_arima=batched_arima
        ),
    )


def test_arima_heavy_banked_batched_at_least_3x(workload, record_bench):
    """The batched-ARIMA speedup, asserted directly.

    Under the ARIMA-heavy configuration banked stepping with the stacked
    (batched) ARIMA fitter must beat the same stepping with the per-row
    scalar fitter by >= 3x, while staying exactly equivalent to the
    serial per-app reference: identical cold-start counts, wasted memory
    within 1e-9.
    """
    serial = WorkloadRunner(workload, ENGINE_OPTIONS["serial"])

    # Correctness before timing: the batched banked run must reproduce
    # the serial per-app reference bit-for-bit on cold starts.
    batched_result = _banked_run(workload, batched_arima=True)  # also the warm-up
    serial_result = serial.run_policy(hybrid_factory(ARIMA_HEAVY_CONFIG))
    assert len(batched_result) == len(serial_result.app_results)
    for reference_app, banked_app in zip(serial_result.app_results, batched_result):
        assert banked_app.app_id == reference_app.app_id
        assert banked_app.cold_starts == reference_app.cold_starts
        assert banked_app.wasted_memory_minutes == pytest.approx(
            reference_app.wasted_memory_minutes,
            abs=WASTE_TOLERANCE,
            rel=WASTE_TOLERANCE,
        )
    # The config must actually be ARIMA-heavy, or the comparison is moot.
    arima_decisions = sum(app.mode_counts["arima"] for app in batched_result)
    assert arima_decisions > 0
    # And the scalar-loop bank is the same policy, differently executed.
    scalar_result = _banked_run(workload, batched_arima=False)
    assert [app.cold_starts for app in scalar_result] == [
        app.cold_starts for app in batched_result
    ]

    scalar_best = _best_of(2, lambda: _banked_run(workload, batched_arima=False))
    batched_best = _best_of(3, lambda: _banked_run(workload, batched_arima=True))
    speedup = scalar_best / batched_best
    print(
        f"\nARIMA-heavy banked hybrid ({arima_decisions:,} ARIMA decisions): "
        f"scalar-loop best {scalar_best * 1e3:.0f} ms, "
        f"batched best {batched_best * 1e3:.0f} ms, speedup {speedup:.1f}x"
    )
    passed = speedup >= 3.0
    record_bench(
        "engine/banked-arima-batched-vs-scalar",
        statistic="best of 2 (scalar) and 3 (batched) runs",
        bar="batched ARIMA >= 3x the per-row scalar loop",
        passed=passed,
        speedup=speedup,
        scalar_seconds=scalar_best,
        batched_seconds=batched_best,
        arima_decisions=int(arima_decisions),
    )
    assert passed, f"batched-ARIMA speedup {speedup:.2f}x below 3x"


# --------------------------------------------------------------------------- #
# Workload pipeline: columnar store vs the seed's per-function dicts
# --------------------------------------------------------------------------- #
def _generator_columns(workload):
    """Reconstruct the generator's per-app output from the store.

    App-level sorted timestamp columns plus each invocation's local
    function position — the exact inputs the generator hands to the
    workload builder (and, in the seed, to its per-function
    ``_distribute_to_functions`` splitter).
    """
    store = workload.store
    app_functions = [
        (app.app_id, [f.function_id for f in app.functions]) for app in workload.apps
    ]
    function_base = np.zeros(len(app_functions) + 1, dtype=np.int64)
    function_base[1:] = np.cumsum([len(fids) for _, fids in app_functions])
    app_times = []
    app_positions = []
    for index in range(len(app_functions)):
        app_times.append(np.array(store.app_slice(index)))
        app_positions.append(
            np.array(store.app_function_codes(index)) - function_base[index]
        )
    return app_functions, app_times, app_positions


def _legacy_build_and_characterize(
    app_functions, app_times, app_positions, duration_minutes: float
) -> dict:
    """The seed's dict-backed workload pipeline, operation for operation.

    The seed generator split each app's timestamps into per-function dict
    arrays (one boolean mask + sort per function), ``Workload.__init__``
    re-sorted every array, ``app_invocations`` merged them back per app
    (sort + concat), characterization ran per-entity Python loops
    (per-app IAT CVs, per-entity daily rates, hourly totals accumulated
    per function with ``np.add.at``), the writer re-binned every function
    per day, and the platform experiments' subset/truncate steps rebuilt
    the whole dict representation (filter + re-sort + re-merge).
    """
    # -- build: generator split + Workload.__init__ re-sort ------------- #
    per_function: dict[str, np.ndarray] = {}
    for index, (_, fids) in enumerate(app_functions):
        times, positions = app_times[index], app_positions[index]
        for position, fid in enumerate(fids):
            per_function[fid] = np.sort(times[positions == position])
    per_function = {
        fid: np.sort(np.asarray(times, dtype=float))
        for fid, times in per_function.items()
    }
    for times in per_function.values():
        if times.size and (times[0] < 0 or times[-1] > duration_minutes):
            raise ValueError("out of horizon")
    per_app = {
        app_id: np.sort(np.concatenate([per_function[fid] for fid in fids]))
        if fids
        else np.empty(0)
        for app_id, fids in app_functions
    }
    # -- characterization ----------------------------------------------- #
    cvs = {app_id: iat_coefficient_of_variation(times) for app_id, times in per_app.items()}
    app_rates = [times.size * 1440.0 / duration_minutes for times in per_app.values()]
    function_rates = [
        times.size * 1440.0 / duration_minutes for times in per_function.values()
    ]
    num_hours = int(math.ceil(duration_minutes / 60.0))
    hourly = np.zeros(num_hours, dtype=np.int64)
    for times in per_function.values():
        if times.size:
            bins = np.clip((times / 60.0).astype(int), 0, num_hours - 1)
            np.add.at(hourly, bins, 1)
    # -- writer: per-day per-function minute binning -------------------- #
    num_days = int(math.ceil(duration_minutes / 1440.0))
    day_totals = []
    for day in range(num_days):
        start = day * 1440.0
        total = 0
        for times in per_function.values():
            counts = np.zeros(1440, dtype=np.int64)
            in_day = times[(times >= start) & (times < start + 1440.0)]
            if in_day.size:
                np.add.at(counts, np.clip((in_day - start).astype(int), 0, 1439), 1)
            total += int(counts.sum())
        day_totals.append(total)
    # -- platform prep: subset half the apps, truncate to 8 hours ------- #
    selected = [app_id for app_id, _ in app_functions[::2]]
    selected_set = set(selected)
    sub_function = {
        fid: np.sort(np.asarray(per_function[fid], dtype=float))
        for app_id, fids in app_functions
        if app_id in selected_set
        for fid in fids
    }
    cut = 480.0
    truncated_function = {
        fid: np.sort(np.asarray(times[times < cut], dtype=float))
        for fid, times in sub_function.items()
    }
    truncated_app = {
        app_id: np.sort(
            np.concatenate([truncated_function[fid] for fid in fids])
        )
        for app_id, fids in app_functions
        if app_id in selected_set
    }
    replay_total = sum(times.size for times in truncated_app.values())
    return {
        "cvs": cvs,
        "app_rates": app_rates,
        "function_rates": function_rates,
        "hourly": hourly,
        "day_totals": day_totals,
        "replay_total": replay_total,
    }


def _columnar_build_and_characterize(
    app_functions, app_times, app_positions, duration_minutes: float
) -> dict:
    """The same pipeline on the columnar store: one build, flat reductions,
    zero-copy derived stores for the platform subset/truncate steps."""
    store = InvocationStore.from_app_columns(
        app_functions, app_times, app_positions, duration_minutes
    )
    num_days = int(math.ceil(duration_minutes / 1440.0))
    # One reduction covers every day; per-day totals are column slices.
    minute_matrix = store.minute_count_matrix(0.0, num_days * 1440)
    day_totals = [
        int(minute_matrix[:, day * 1440 : (day + 1) * 1440].sum())
        for day in range(num_days)
    ]
    replay_store = store.subset(range(0, store.num_apps, 2)).truncated(480.0)
    return {
        "cvs": store.iat_cv_per_app(),
        "app_rates": store.app_counts() * 1440.0 / duration_minutes,
        "function_rates": store.function_counts() * 1440.0 / duration_minutes,
        "hourly": store.hourly_totals(),
        "day_totals": day_totals,
        "replay_total": int(replay_store.num_invocations),
    }


def test_columnar_pipeline_at_least_3x(workload, record_bench):
    """The PR 3 acceptance-criterion speedup, asserted directly.

    Building the workload representation from generator output plus the
    core characterization reductions must be at least 3x faster through
    the columnar store than through the seed's per-function dict path, on
    the same 150-app/3-day inputs.
    """
    app_functions, app_times, app_positions = _generator_columns(workload)
    duration = workload.duration_minutes

    legacy = _legacy_build_and_characterize(
        app_functions, app_times, app_positions, duration
    )
    columnar = _columnar_build_and_characterize(
        app_functions, app_times, app_positions, duration
    )
    # Both paths compute the same statistics before we time anything.
    np.testing.assert_array_equal(columnar["hourly"], legacy["hourly"])
    for index, (app_id, _) in enumerate(app_functions):
        expected = legacy["cvs"][app_id]
        got = columnar["cvs"][index]
        assert (math.isnan(expected) and math.isnan(got)) or got == pytest.approx(
            expected, abs=1e-9
        )
    np.testing.assert_allclose(columnar["app_rates"], legacy["app_rates"], atol=1e-9)
    np.testing.assert_allclose(
        columnar["function_rates"], legacy["function_rates"], atol=1e-9
    )
    assert columnar["day_totals"] == legacy["day_totals"]
    assert columnar["replay_total"] == legacy["replay_total"]

    legacy_best = _best_of(
        5,
        lambda: _legacy_build_and_characterize(
            app_functions, app_times, app_positions, duration
        ),
    )
    columnar_best = _best_of(
        5,
        lambda: _columnar_build_and_characterize(
            app_functions, app_times, app_positions, duration
        ),
    )
    speedup = legacy_best / columnar_best
    print(
        f"\nbuild+characterize: dict path best {legacy_best * 1e3:.1f} ms, "
        f"columnar best {columnar_best * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    passed = speedup >= 3.0
    record_bench(
        "trace/columnar-vs-dict-pipeline",
        statistic="best of 5 runs per path",
        bar="columnar >= 3x the dict path",
        passed=passed,
        speedup=speedup,
        dict_seconds=legacy_best,
        columnar_seconds=columnar_best,
    )
    assert passed, f"columnar pipeline speedup {speedup:.2f}x below 3x"


@pytest.mark.parametrize("path", ["dict", "columnar"])
def test_bench_workload_pipeline(benchmark, workload, path):
    """Head-to-head group: dict-backed vs columnar build + characterize."""
    app_functions, app_times, app_positions = _generator_columns(workload)
    run = (
        _legacy_build_and_characterize if path == "dict" else _columnar_build_and_characterize
    )
    benchmark.group = "workload build+characterize over session workload"
    result = benchmark.pedantic(
        run,
        args=(app_functions, app_times, app_positions, workload.duration_minutes),
        iterations=1,
        rounds=3,
        warmup_rounds=1,
    )
    assert len(result["hourly"]) > 0
