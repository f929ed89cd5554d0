"""Command-line front end.

Usage (after ``pip install -e .``)::

    repro generate --num-apps 200 --days 3 --out traces/        # write a synthetic trace
    repro characterize --num-apps 200 --days 3                  # Section 3 headline numbers
    repro simulate --policies fixed:10 fixed:60 hybrid:240      # policy comparison table
    repro sweep --figures fig14 fig16 fig18                     # family sweep in one pass
    repro sweep --policies fixed:5 fixed:10 fixed:60 hybrid:240 # ... or explicit specs
    repro experiment fig15                                      # one paper figure
    repro experiment all                                        # every registered figure
    repro replay --policies fixed:10 hybrid:240 --seeds 3       # platform replay campaign
    repro replay --invoker-counts 4 8 18 --workers 4            # cluster-shape scan
    repro replay --faults 0 2 6 --balancer ring least-loaded    # fault & balancer axes
    repro replay --faults 2 --autoscale 2:8                     # crashes + elastic fleet
    repro replay --fault-domains 3 --domain-outage-rate 1       # correlated rack outages
    repro replay --slow-rate 2 --controller-mttf 4              # degradation + failover
    repro replay --autoscale 2:8 --autoscale-policy predictive  # histogram-driven scaling
    repro trace pack traces/ traces/store.npz                   # CSVs -> columnar .npz store
    repro trace info traces/store.npz                           # store shape + memory footprint
    repro trace gen big.npz --apps 100000 --target-rps 200      # stream 100k apps to disk

Every sub-command accepts ``--num-apps``, ``--days``, ``--seed`` and
``--max-daily-rate`` to size the synthetic workload; ``--trace-dir`` loads
an AzurePublicDataset-schema trace from disk instead of generating one.
``simulate``, ``sweep``, and ``experiment`` additionally accept
``--execution auto|serial``, ``--workers N``, ``--sweep auto|per-policy``,
and ``--max-resident-mb M`` to pick the evaluator, the worker processes
to shard applications over, the multi-policy grouping, and the per-pass
memory budget (see :mod:`repro.simulation.engine` and
:mod:`repro.simulation.sweep_engine`); ``auto`` evaluates whole policy
families in one shared-state pass, and a single policy as a family of
one.
``trace gen`` streams a synthetic trace of any size straight to an
``.npz`` store (bit-identical to the in-memory generator) that re-opens
memory-mapped for out-of-core simulation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from repro.characterization.report import CharacterizationReport
from repro.experiments import ExperimentContext, ExperimentScale, experiment_ids, run_experiment
from repro.platform.autoscaler import AutoscalerConfig
from repro.platform.campaign import (
    ClusterScenario,
    ReplayCampaign,
    heterogeneous_memory_scenario,
)
from repro.platform.cluster import ClusterConfig
from repro.platform.faults import FaultPlan
from repro.platform.loadbalancer import BALANCER_STRATEGIES
from repro.platform.replay import ReplayConfig
from repro.policies.registry import FAMILY_HYBRID_HISTOGRAM, parse_policy_spec
from repro.simulation.engine import EXECUTION_MODES, SWEEP_MODES
from repro.simulation.runner import PolicyComparison, RunnerOptions, WorkloadRunner
from repro.simulation.sweep import BASELINE_KEEPALIVE_MINUTES, combined_figure_factories
from repro.simulation.fused import simulate_streamed
from repro.trace.generator import GeneratorConfig, WorkloadGenerator
from repro.trace.loader import load_dataset
from repro.trace.sampling import sample_mid_range_apps
from repro.trace.schema import Workload
from repro.trace.store import InvocationStore
from repro.trace.stream import DEFAULT_CHUNK_APPS, stream_workload_to_store
from repro.trace.writer import write_dataset

MINUTES_PER_DAY = 1440.0

#: Figures the `repro sweep` sub-command can combine into one factory list.
SWEEP_FIGURES = ("fig14", "fig15", "fig16", "fig17", "fig18")


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--num-apps", type=int, default=300, help="number of synthetic apps")
    parser.add_argument("--days", type=float, default=7.0, help="trace duration in days")
    parser.add_argument("--seed", type=int, default=2020, help="random seed")
    parser.add_argument(
        "--max-daily-rate",
        type=float,
        default=4000.0,
        help="cap on per-app average invocations per day",
    )
    parser.add_argument(
        "--trace-dir",
        type=Path,
        default=None,
        help="load an AzurePublicDataset-schema trace instead of generating one",
    )


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--execution",
        choices=EXECUTION_MODES,
        default="auto",
        help=(
            "evaluator: auto (each policy family's fast pass: closed form "
            "for fixed keep-alive, one recording pass for the hybrid "
            "policy) or serial (the reference scalar loop)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes; above 1, applications are sharded across a "
            "fork pool under either --execution mode (default: in process)"
        ),
    )
    parser.add_argument(
        "--sweep",
        choices=SWEEP_MODES,
        default="auto",
        help=(
            "multi-policy grouping: auto (one shared-state pass per policy "
            "family) or per-policy (every configuration as a family of one)"
        ),
    )
    parser.add_argument(
        "--max-resident-mb",
        type=float,
        default=None,
        help=(
            "memory budget (MB) per engine pass: walk the store in chunks "
            "whose pass state fits the budget and release memory-mapped "
            "pages between chunks (out-of-core traces)"
        ),
    )


def _runner_options(args: argparse.Namespace) -> RunnerOptions:
    max_resident_mb = getattr(args, "max_resident_mb", None)
    return RunnerOptions(
        execution=args.execution,
        workers=args.workers,
        sweep=args.sweep,
        max_resident_bytes=(
            int(max_resident_mb * 1e6) if max_resident_mb is not None else None
        ),
    )


def _workload_config(args: argparse.Namespace) -> GeneratorConfig:
    return GeneratorConfig(
        num_apps=args.num_apps,
        duration_minutes=args.days * MINUTES_PER_DAY,
        seed=args.seed,
        max_daily_rate=args.max_daily_rate,
    )


def _build_workload(args: argparse.Namespace) -> Workload:
    if args.trace_dir is not None:
        return load_dataset(args.trace_dir, seed=args.seed)
    return WorkloadGenerator(_workload_config(args)).generate()


def _cmd_generate(args: argparse.Namespace) -> int:
    workload = _build_workload(args)
    paths = write_dataset(workload, args.out)
    print(f"workload: {workload.summary()}")
    print(f"wrote {len(paths)} files under {args.out}")
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    workload = _build_workload(args)
    report = CharacterizationReport(workload)
    print("workload summary:")
    for key, value in workload.summary().items():
        print(f"  {key:<28} {value:,.2f}")
    print("headline characterization numbers (see Section 3 of the paper):")
    for key, value in report.headline_numbers().items():
        print(f"  {key:<40} {value:.4f}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    factories = [parse_policy_spec(spec) for spec in args.policies]
    if args.fused:
        if args.trace_dir is not None:
            raise ValueError(
                "--fused generates its own workload and cannot be combined "
                "with --trace-dir"
            )
        if args.gen_workers < 1:
            raise ValueError("--gen-workers must be at least 1")
        if args.chunk_apps < 1:
            raise ValueError("--chunk-apps must be at least 1")
        results = simulate_streamed(
            _workload_config(args),
            factories,
            options=_runner_options(args),
            chunk_apps=args.chunk_apps,
            gen_workers=args.gen_workers,
        )
        baseline = f"fixed-{BASELINE_KEEPALIVE_MINUTES:g}min"
        if baseline not in results:
            baseline = next(iter(results))
        comparison = PolicyComparison(results=results, baseline_name=baseline)
    else:
        workload = _build_workload(args)
        runner = WorkloadRunner(workload, _runner_options(args))
        comparison = runner.compare(factories, baseline_name=None)
    print(comparison.as_text_table())
    mode_usage = comparison.mode_usage_table()
    if mode_usage:
        print()
        print(mode_usage)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.policies:
        factories = [parse_policy_spec(spec) for spec in args.policies]
    else:
        factories = combined_figure_factories(args.figures)
    workload = _build_workload(args)
    options = _runner_options(args)
    runner = WorkloadRunner(workload, options)

    groups = runner.sweep_groups(factories)
    shared = sum(1 for group in groups if group.key is not None and len(group.factories) > 1)
    print(
        f"sweep: {len(factories)} configurations in {len(groups)} group(s) "
        f"({shared} shared-state famil{'y' if shared == 1 else 'ies'}, "
        f"sweep={options.sweep}, execution={options.execution})"
    )
    for group in groups:
        if group.key is not None and len(group.factories) > 1:
            members = ", ".join(factory.name for factory in group.factories)
            label = group.key[0]
            if label == FAMILY_HYBRID_HISTOGRAM:
                ranges = sorted(
                    {factory.family_config.histogram_range_minutes for factory in group.factories}
                )
                label += f" (ranges {', '.join(f'{r:g}' for r in ranges)} min)"
            print(f"  family {label}: {members}")

    start = time.perf_counter()
    results = runner.run_policies(factories)
    elapsed = time.perf_counter() - start

    baseline = f"fixed-{BASELINE_KEEPALIVE_MINUTES:g}min"
    if baseline not in results:
        baseline = next(iter(results))
    comparison = PolicyComparison(results=results, baseline_name=baseline)
    print()
    print(comparison.as_text_table())
    mode_usage = comparison.mode_usage_table()
    if mode_usage:
        print()
        print(mode_usage)
    print()
    print(
        f"evaluated {len(results)} configurations over "
        f"{workload.total_invocations:,} invocations in {elapsed:.2f}s"
    )
    return 0


def _open_store(path: Path) -> InvocationStore:
    """Open a trace as a columnar store: an ``.npz`` cache or a CSV dataset."""
    if path.is_dir():
        return load_dataset(path).store
    try:
        return InvocationStore.open(path, mmap=True)
    except Exception as error:
        raise ValueError(
            f"{path} is neither a packed .npz store nor a dataset directory "
            f"({error})"
        ) from None


def _cmd_trace_info(args: argparse.Namespace) -> int:
    store = _open_store(args.path)
    profile = store.memory_profile()
    print(f"columnar invocation store: {args.path}")
    print(f"  apps                 {store.num_apps:>14,}")
    print(f"  functions            {store.num_functions:>14,}")
    print(f"  invocations          {store.num_invocations:>14,}")
    print(f"  duration             {store.duration_minutes:>14,.1f} minutes")
    print(f"  duration (days)      {store.duration_minutes / MINUTES_PER_DAY:>14,.2f}")
    print(f"  column memory        {store.nbytes / 1e6:>14,.2f} MB")
    if args.path.is_file():
        on_disk = args.path.stat().st_size
        print(f"  on disk              {on_disk / 1e6:>14,.2f} MB")
    print(f"  memory-mapped        {profile['mapped_bytes'] / 1e6:>14,.2f} MB")
    print(f"  resident (heap)      {profile['heap_bytes'] / 1e6:>14,.2f} MB")
    print(
        f"  times                float64[{store.num_invocations}]"
        f" ({store.times.nbytes / 1e6:,.2f} MB,"
        f" {'memory-mapped' if store.is_memory_mapped else 'in-memory'})"
    )
    print(f"  function_idx         int64[{store.function_idx.size}]")
    print(f"  app_offsets          int64[{store.app_offsets.size}]")
    return 0


def _cmd_trace_gen(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ValueError("--workers must be at least 1")
    if args.chunk_apps < 1:
        raise ValueError("--chunk-apps must be at least 1")
    config = GeneratorConfig(
        num_apps=args.apps,
        duration_minutes=args.days * MINUTES_PER_DAY,
        seed=args.seed,
        max_daily_rate=args.max_daily_rate,
        target_rps=args.target_rps,
    )
    start = time.perf_counter()

    def progress(apps_done: int, num_apps: int) -> None:
        print(f"\r  streamed {apps_done:,}/{num_apps:,} apps", end="", flush=True)

    stats = stream_workload_to_store(
        config,
        args.out,
        chunk_apps=args.chunk_apps,
        workers=args.workers,
        progress=progress,
    )
    elapsed = time.perf_counter() - start
    print()
    rate = stats.num_invocations / elapsed if elapsed > 0 else float("inf")
    print(
        f"streamed {stats.num_invocations:,} invocations "
        f"({stats.num_apps:,} apps, {stats.num_functions:,} functions, "
        f"{stats.duration_minutes / MINUTES_PER_DAY:g} days) into {stats.path}"
    )
    print(
        f"  {stats.on_disk_bytes / 1e6:,.2f} MB on disk, "
        f"{elapsed:.2f}s ({rate:,.0f} invocations/s)"
    )
    # Machine-readable completion summary (one JSON line, for scripts and
    # the nightly bench harness).
    print(
        json.dumps(
            {
                "apps": stats.num_apps,
                "functions": stats.num_functions,
                "invocations": stats.num_invocations,
                "bytes": stats.on_disk_bytes,
                "seconds": round(elapsed, 3),
                "invocations_per_second": round(rate, 1),
                "rng_scheme": stats.rng_scheme,
                "workers": stats.workers,
                "path": str(stats.path),
            }
        )
    )
    return 0


def _cmd_trace_pack(args: argparse.Namespace) -> int:
    workload = load_dataset(args.source, seed=args.seed)
    path = workload.store.save(args.out)
    size_mb = path.stat().st_size / 1e6
    print(
        f"packed {workload.total_invocations:,} invocations "
        f"({workload.num_apps:,} apps, {workload.num_functions:,} functions) "
        f"into {path} ({size_mb:,.2f} MB)"
    )
    return 0


def _compose_fault_scenarios(
    scenarios: list[ClusterScenario], args: argparse.Namespace
) -> list[ClusterScenario]:
    """Cross the cluster-shape scenarios with the fault/balancer axes.

    ``--faults`` (crash rates per invoker-hour) and ``--balancer`` are
    scenario axes; ``--autoscale MIN:MAX``, ``--autoscale-policy``,
    ``--restart-seconds``, ``--message-delay-ms``, ``--retry-limit``,
    ``--fault-domains``, ``--domain-outage-rate``, ``--slow-rate``,
    ``--controller-mttf``, and ``--fault-seed`` apply to every scenario.
    Rate 0 on every fault axis with no message delay keeps the scenario
    fault-free (byte-identical to a plain replay).
    """
    autoscaler = None
    if args.autoscale:
        try:
            low, high = (int(part) for part in args.autoscale.split(":"))
        except ValueError:
            raise ValueError(
                f"--autoscale expects MIN:MAX, got {args.autoscale!r}"
            ) from None
        autoscaler = AutoscalerConfig(
            min_invokers=low, max_invokers=high, policy=args.autoscale_policy
        )
    elif args.autoscale_policy != "threshold":
        raise ValueError(
            "--autoscale-policy requires --autoscale MIN:MAX to enable "
            "the elastic fleet"
        )

    faulty = (
        args.message_delay_ms > 0
        or args.domain_outage_rate != 0
        or args.slow_rate != 0
        or args.controller_mttf != 0
    )

    def plan_for(rate: float) -> FaultPlan | None:
        if rate <= 0 and not faulty:
            return None
        return FaultPlan(
            crash_rate_per_hour=rate,
            restart_delay_seconds=args.restart_seconds,
            message_delay_seconds=args.message_delay_ms / 1000.0,
            retry_limit=args.retry_limit,
            domain_outage_rate_per_hour=args.domain_outage_rate,
            domain_outage_seconds=args.domain_outage_seconds,
            slow_rate_per_hour=args.slow_rate,
            slow_duration_seconds=args.slow_seconds,
            slow_execution_factor=args.slow_factor,
            slow_message_delay_factor=args.slow_factor,
            brownout_concurrency=args.brownout_concurrency,
            controller_mttf_hours=args.controller_mttf,
            controller_failover_seconds=args.failover_seconds,
            seed=args.fault_seed,
        )

    balancers = args.balancer
    fault_rates = args.faults if args.faults else [0.0]
    composed = []
    for scenario in scenarios:
        for strategy in balancers:
            name = scenario.name
            if len(balancers) > 1 or strategy != "ring":
                name = f"{name}-{strategy}"
            for rate in fault_rates:
                cell_name = name
                if args.faults:
                    cell_name = f"{name}-crash{rate:g}ph"
                if autoscaler is not None:
                    cell_name = f"{cell_name}-auto"
                composed.append(
                    ClusterScenario(
                        name=cell_name,
                        config=replace(
                            scenario.config,
                            balancer=strategy,
                            fault_plan=plan_for(rate),
                            autoscaler=autoscaler,
                            fault_domains=args.fault_domains,
                        ),
                    )
                )
    return composed


def _cmd_replay(args: argparse.Namespace) -> int:
    workload = _build_workload(args)
    factories = [parse_policy_spec(spec) for spec in args.policies]
    if args.sample_apps:
        workload = sample_mid_range_apps(
            workload, num_apps=args.sample_apps, seed=args.seed
        )
    replay_minutes = min(args.minutes, workload.duration_minutes)

    scenarios: list[ClusterScenario] = []
    single_shape = len(args.invoker_counts) == 1 and len(args.invoker_memory_mb) == 1
    for count in args.invoker_counts:
        for memory_mb in args.invoker_memory_mb:
            name = (
                "cluster"
                if single_shape
                else f"inv{count}-mem{memory_mb:g}mb"
            )
            scenarios.append(
                ClusterScenario(
                    name=name,
                    config=ClusterConfig(
                        num_invokers=count, invoker_memory_mb=memory_mb
                    ),
                )
            )
    if args.hetero_memory_mb:
        scenarios.append(heterogeneous_memory_scenario(args.hetero_memory_mb))

    scenarios = _compose_fault_scenarios(scenarios, args)
    campaign = ReplayCampaign(
        workload,
        factories,
        scenarios=scenarios,
        seeds=[args.seed + offset for offset in range(args.seeds)],
        replay_config=ReplayConfig(duration_minutes=replay_minutes, seed=args.seed),
        workers=args.workers,
    )
    print(
        f"replay campaign: {len(factories)} polic{'y' if len(factories) == 1 else 'ies'}"
        f" x {len(scenarios)} scenario(s) x {args.seeds} seed(s) = "
        f"{campaign.num_replays} replays ({workload.num_apps} apps, "
        f"{workload.total_invocations:,} trace invocations, "
        f"{replay_minutes:g} min replay window)"
    )
    start = time.perf_counter()
    result = campaign.run()
    elapsed = time.perf_counter() - start
    print()
    print(result.as_text_table())
    print()
    print(f"completed {campaign.num_replays} replays in {elapsed:.2f}s")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.trace_dir is not None:
        raise ValueError(
            "experiments generate their own workload and cannot be combined "
            "with --trace-dir"
        )
    scale = ExperimentScale(
        num_apps=args.num_apps,
        duration_days=args.days,
        seed=args.seed,
        max_daily_rate=args.max_daily_rate,
    )
    context = ExperimentContext(scale=scale, runner_options=_runner_options(args))
    requested = experiment_ids() if args.experiment == ["all"] else args.experiment
    unknown = [e for e in requested if e not in experiment_ids()]
    if unknown:
        raise ValueError(f"unknown experiments: {unknown}; available: {experiment_ids()}")
    for experiment_id in requested:
        result = run_experiment(experiment_id, context)
        print(result.as_text())
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Serverless in the Wild' (ATC 2020): workload "
            "characterization and the hybrid histogram keep-alive policy."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="generate a synthetic trace in the AzurePublicDataset schema"
    )
    _add_workload_arguments(generate)
    generate.add_argument("--out", type=Path, required=True, help="output directory")
    generate.set_defaults(handler=_cmd_generate)

    characterize = subparsers.add_parser(
        "characterize", help="print Section 3 headline characterization numbers"
    )
    _add_workload_arguments(characterize)
    characterize.set_defaults(handler=_cmd_characterize)

    simulate = subparsers.add_parser(
        "simulate", help="compare keep-alive policies with the cold-start simulator"
    )
    _add_workload_arguments(simulate)
    _add_engine_arguments(simulate)
    simulate.add_argument(
        "--policies",
        nargs="+",
        default=["fixed:10", "fixed:60", "hybrid:240", "no-unloading"],
        help="policy specs, e.g. fixed:10 hybrid:240 hybrid:240:5:99 no-unloading",
    )
    simulate.add_argument(
        "--fused",
        action="store_true",
        help=(
            "fused generate→simulate pipeline: stream generated chunks "
            "straight into the engine with no materialized workload or disk "
            "round-trip (results identical to the two-step path)"
        ),
    )
    simulate.add_argument(
        "--gen-workers",
        type=int,
        default=1,
        help=(
            "processes that generate and simulate --fused chunks (above 1, "
            "--workers must stay 1)"
        ),
    )
    simulate.add_argument(
        "--chunk-apps",
        type=int,
        default=DEFAULT_CHUNK_APPS,
        help="apps generated and simulated per fused chunk (memory high-water mark)",
    )
    simulate.set_defaults(handler=_cmd_simulate)

    sweep = subparsers.add_parser(
        "sweep",
        help=(
            "evaluate whole policy families in one shared-state pass "
            "(the Figure 14-18 parameter sweeps)"
        ),
    )
    _add_workload_arguments(sweep)
    _add_engine_arguments(sweep)
    sweep_selection = sweep.add_mutually_exclusive_group()
    sweep_selection.add_argument(
        "--figures",
        nargs="+",
        choices=SWEEP_FIGURES,
        default=["fig14", "fig16", "fig18"],
        help="figure sweeps to combine into one factory list (deduplicated)",
    )
    sweep_selection.add_argument(
        "--policies",
        nargs="+",
        default=None,
        help="explicit policy specs instead of --figures, e.g. fixed:10 hybrid:240",
    )
    sweep.set_defaults(handler=_cmd_sweep)

    trace = subparsers.add_parser(
        "trace", help="inspect and convert trace files (columnar store tooling)"
    )
    trace_subparsers = trace.add_subparsers(dest="trace_command", required=True)
    trace_info = trace_subparsers.add_parser(
        "info",
        help="print the shape and memory footprint of a trace "
        "(a packed .npz store is opened memory-mapped)",
    )
    trace_info.add_argument(
        "path",
        type=Path,
        help="a packed store (.npz) or an AzurePublicDataset-schema CSV directory",
    )
    trace_info.set_defaults(handler=_cmd_trace_info)
    trace_pack = trace_subparsers.add_parser(
        "pack", help="pack a CSV dataset directory into a columnar .npz store"
    )
    trace_pack.add_argument("source", type=Path, help="CSV dataset directory")
    trace_pack.add_argument("out", type=Path, help="output .npz path")
    trace_pack.add_argument(
        "--seed", type=int, default=0, help="seed for sub-minute placement"
    )
    trace_pack.set_defaults(handler=_cmd_trace_pack)
    trace_gen = trace_subparsers.add_parser(
        "gen",
        help=(
            "stream a synthetic workload straight into a columnar .npz "
            "store (out-of-core: memory stays flat in the app count)"
        ),
    )
    trace_gen.add_argument("out", type=Path, help="output .npz path")
    trace_gen.add_argument(
        "--apps", type=int, default=100_000, help="number of synthetic apps"
    )
    trace_gen.add_argument(
        "--days", type=float, default=7.0, help="trace duration in days"
    )
    trace_gen.add_argument("--seed", type=int, default=2020, help="random seed")
    trace_gen.add_argument(
        "--max-daily-rate",
        type=float,
        default=4000.0,
        help="cap on per-app average invocations per day",
    )
    trace_gen.add_argument(
        "--target-rps",
        type=float,
        default=None,
        help=(
            "rescale per-app rates so the aggregate load approximates this "
            "many requests per second (decouples load from --apps)"
        ),
    )
    trace_gen.add_argument(
        "--chunk-apps",
        type=int,
        default=DEFAULT_CHUNK_APPS,
        help="apps generated and appended per chunk (the memory high-water mark)",
    )
    trace_gen.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "parallel generation processes (the archive is byte-identical "
            "for any worker count)"
        ),
    )
    trace_gen.set_defaults(handler=_cmd_trace_gen)

    replay = subparsers.add_parser(
        "replay",
        help=(
            "replay the workload on the FaaS cluster substrate across "
            "(policy x seed x cluster shape) scenarios"
        ),
    )
    _add_workload_arguments(replay)
    replay.add_argument(
        "--policies",
        nargs="+",
        default=["fixed:10", "hybrid:240"],
        help="policy specs to replay, e.g. fixed:10 hybrid:240",
    )
    replay.add_argument(
        "--minutes",
        type=float,
        default=480.0,
        help="replay window in minutes (the paper uses 480 = 8 hours)",
    )
    replay.add_argument(
        "--sample-apps",
        type=int,
        default=68,
        help=(
            "mid-range-popularity sample size (68 in the paper); "
            "0 replays the whole workload"
        ),
    )
    replay.add_argument(
        "--seeds",
        type=int,
        default=1,
        help="number of duration-sampling seeds (multi-seed error bars)",
    )
    replay.add_argument(
        "--invoker-counts",
        type=int,
        nargs="+",
        default=[18],
        help="invoker counts to scan (scenario axis)",
    )
    replay.add_argument(
        "--invoker-memory-mb",
        type=float,
        nargs="+",
        default=[3584.0],
        help="per-invoker memory budgets to scan (scenario axis)",
    )
    replay.add_argument(
        "--hetero-memory-mb",
        type=float,
        nargs="+",
        default=None,
        help=(
            "add one heterogeneous-fleet scenario with these per-invoker "
            "budgets (one invoker per value)"
        ),
    )
    replay.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fork-pool size for the campaign (default: all cores)",
    )
    replay.add_argument(
        "--faults",
        type=float,
        nargs="+",
        default=None,
        metavar="RATE",
        help=(
            "invoker crash rates per invoker-hour (scenario axis); "
            "0 keeps a scenario fault-free"
        ),
    )
    replay.add_argument(
        "--restart-seconds",
        type=float,
        default=30.0,
        help="invoker restart delay after a crash",
    )
    replay.add_argument(
        "--message-delay-ms",
        type=float,
        default=0.0,
        help="fixed controller-to-invoker message delay in milliseconds",
    )
    replay.add_argument(
        "--retry-limit",
        type=int,
        default=1,
        help="resubmission budget for activations lost to a crash",
    )
    replay.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the fault-injection random streams",
    )
    replay.add_argument(
        "--fault-domains",
        type=int,
        default=1,
        help=(
            "number of correlated failure domains (racks/zones); invoker i "
            "belongs to domain i %% N and domain outages take every member "
            "down together"
        ),
    )
    replay.add_argument(
        "--domain-outage-rate",
        type=float,
        default=0.0,
        help="correlated domain outages per domain-hour (0 disables)",
    )
    replay.add_argument(
        "--domain-outage-seconds",
        type=float,
        default=120.0,
        help="duration of one correlated domain outage",
    )
    replay.add_argument(
        "--slow-rate",
        type=float,
        default=0.0,
        help="partial-degradation (slow invoker) episodes per invoker-hour",
    )
    replay.add_argument(
        "--slow-factor",
        type=float,
        default=4.0,
        help="execution/startup/message-delay multiplier while degraded",
    )
    replay.add_argument(
        "--slow-seconds",
        type=float,
        default=300.0,
        help="duration of one degradation episode",
    )
    replay.add_argument(
        "--brownout-concurrency",
        type=int,
        default=0,
        help=(
            "in-flight cap above which a degraded invoker sheds activations "
            "(0 disables brownout shedding)"
        ),
    )
    replay.add_argument(
        "--controller-mttf",
        type=float,
        default=0.0,
        help=(
            "controller mean time to failure in hours (0 disables controller "
            "crashes; enables at-least-once redelivery with dedup)"
        ),
    )
    replay.add_argument(
        "--failover-seconds",
        type=float,
        default=5.0,
        help="controller recovery time after a crash",
    )
    replay.add_argument(
        "--balancer",
        nargs="+",
        default=["ring"],
        choices=list(BALANCER_STRATEGIES),
        help="load-balancer strategies to scan (scenario axis)",
    )
    replay.add_argument(
        "--autoscale",
        default=None,
        metavar="MIN:MAX",
        help="enable invoker autoscaling with the given fleet bounds",
    )
    replay.add_argument(
        "--autoscale-policy",
        default="threshold",
        help=(
            "autoscaling policy: threshold (reactive) or predictive "
            "(scale from the per-app arrival histograms); requires "
            "--autoscale"
        ),
    )
    replay.set_defaults(handler=_cmd_replay)

    experiment = subparsers.add_parser(
        "experiment", help="run one or more paper figure/table experiments"
    )
    _add_workload_arguments(experiment)
    _add_engine_arguments(experiment)
    experiment.add_argument(
        "experiment",
        nargs="+",
        help=f"experiment ids (or 'all'); available: {', '.join(experiment_ids())}",
    )
    experiment.set_defaults(handler=_cmd_experiment)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one sub-command; an invalid option value or a missing input path
    exits 2 with a usage error on stderr, like an argparse error, instead
    of a traceback."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
