"""Run the repository benchmark and print its metrics.

Usage::

    python3 bench/run.py [--workload NAME ...] [--seed 2020] [--seconds S]
                         [--trace 0|1] [--repeats 3] [--out FILE]

Each repeat of each workload runs in a fresh child process
(``measure.py``) that imports the package, prepares the inputs, and
times iterations of the workload for ``seconds / repeats`` seconds.
Repeats run round-robin across workloads, one child at a time, so a
noisy stretch of machine time hits every workload.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` adds traced iterations and reports
the per-layer metrics.  Every metric is printed by name with its unit;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out`` also
writes the full record: environment, per-metric statistics, output
checks and result digests (see ``compare.py``).  Exits 1 without a result
when a child dies or a workload has no successful iteration.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

WORKLOAD_NAMES = ("fused-hybrid", "trace-gen", "sweep-figs", "replay-fig20")

#: Longest a whole run may take before it is abandoned without a result.
RUN_TIMEOUT_SECONDS = 170.0


def stats(values: list[float]) -> dict:
    """Median, min, max and inter-quartile range of a sample."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered),
        "min": ordered[0],
        "max": ordered[-1],
        "iqr": q3 - q1,
        "n": len(ordered),
    }


def aggregate(children: list[dict], trace: bool) -> dict:
    """Turn the children of one workload into metric samples and a verdict.

    An iteration *fails* when it raises or when its result digest differs
    from the workload's most common digest.  ``correct`` also requires
    the output checks to have run and passed.  Warm-up iterations count
    as attempts; they give the peak RSS samples but no timing samples.
    """
    iterations = [it for child in children for it in child["iterations"]]
    digests = [it["digest"] for it in iterations if "digest" in it]
    majority = max(set(digests), key=digests.count) if digests else None
    good = [it for it in iterations if majority and it.get("digest") == majority]
    check_errors = [error for child in children for error in child["check_errors"]]
    checked = any(child["checked"] for child in children)
    warmups = [it for it in good if it["kind"] == "warmup"]
    untraced = [it for it in good if it["kind"] == "untraced"]
    traced = [it for it in good if it["kind"] == "traced"]

    samples: dict[str, list[float]] = {}
    if not trace:
        samples["inv_per_s"] = [it["work"] / it["wall_s"] for it in untraced]
        samples["peak_rss_mb"] = [max(it["rss_mb"], it["children_rss_mb"]) for it in warmups]
        samples["setup_s"] = [child["setup_s"] for child in children]
    else:
        for it in traced:
            for name, value in {**it["layers"], **it["counters"]}.items():
                samples.setdefault(name, []).append(float(value))
        samples["proc.parent_rss_mb"] = [it["rss_mb"] for it in warmups]
        samples["proc.children_rss_mb"] = [it["children_rss_mb"] for it in warmups]
        if traced and untraced:
            traced_wall = statistics.median(it["wall_s"] for it in traced)
            untraced_wall = statistics.median(it["wall_s"] for it in untraced)
            samples["bench.trace_overhead_frac"] = [traced_wall / untraced_wall - 1.0]
    return {
        "attempted": len(iterations),
        "failed": len(iterations) - len(good),
        "correct": len(good) == len(iterations) and checked and not check_errors,
        "checked": checked,
        "check_errors": check_errors,
        "errors": [it["error"] for it in iterations if it.get("error")],
        "digest": majority,
        "samples": samples,
        "iterations": [
            {key: it.get(key) for key in ("kind", "wall_s", "work", "rss_mb", "children_rss_mb")}
            | {"child": index}
            for index, child in enumerate(children)
            for it in child["iterations"]
        ],
    }


def metric_stats(declared: list[dict], samples: dict[str, list[float]]) -> dict:
    """Statistics of every declared metric; a layer the run never touched reads 0."""
    untouched = {"median": 0.0, "min": 0.0, "max": 0.0, "iqr": 0.0, "n": 0}
    table = {}
    for metric in declared:
        values = samples.get(metric["name"])
        table[metric["name"]] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric.get("bound"),
            **(stats(values) if values else untouched),
        }
    return table


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_DIR": str(ROOT / ".git")},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() or "unknown"


def environment(args: argparse.Namespace) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    try:
        import numba  # noqa: F401
    except ImportError:
        numba_importable = False
    else:
        numba_importable = True
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba": numba_importable,
        "commit": git_commit(),
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def spawn(
    workload: str, repeat: int, args: argparse.Namespace, timeout: float
) -> dict | None:
    """Run one child to completion; ``None`` when it produced no result."""
    spec = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds / args.repeats,
        "trace": bool(args.trace),
        "check": repeat == 0,
        "started": time.perf_counter(),
    }
    # A session of its own, so a timeout or an interrupt can stop the
    # child's pool workers along with it.
    process = subprocess.Popen(
        [sys.executable, str(BENCH / "measure.py"), json.dumps(spec)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except BaseException as error:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        if not isinstance(error, subprocess.TimeoutExpired):
            raise
        print(f"{workload} repeat {repeat}: child timed out", file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        print(
            f"{workload} repeat {repeat}: child exited with {process.returncode}",
            file=sys.stderr,
        )
        return None
    return json.loads(lines[-1])


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=WORKLOAD_NAMES,
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured seconds per workload (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=3, help="fresh children per workload")
    parser.add_argument("--out", type=Path, help="write the full JSON record here")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no package to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 1
    # A terminated run must still stop its child (see ``spawn``).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = args.workload or list(WORKLOAD_NAMES)
    deadline = time.perf_counter() + RUN_TIMEOUT_SECONDS * len(names)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    children: dict[str, list[dict]] = {name: [] for name in names}
    for repeat in range(args.repeats):
        for name in names:
            child = spawn(name, repeat, args, max(deadline - time.perf_counter(), 1.0))
            if child is None:
                return 1
            children[name].append(child)

    record = {"environment": environment(args), "workloads": {}}
    result_metrics: dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    for name in names:
        summary = aggregate(children[name], bool(args.trace))
        table = metric_stats(declared, summary.pop("samples"))
        if summary["digest"] is None or (
            not args.trace and any(values["n"] == 0 for values in table.values())
        ):
            print(f"{name}: no successful timed iteration", file=sys.stderr)
            for error in summary["errors"][:1]:
                print(error, file=sys.stderr)
            return 1
        summary["error_rate"] = summary["failed"] / summary["attempted"]
        record["workloads"][name] = {**summary, "metrics": table}
        attempted += summary["attempted"]
        failed += summary["failed"]
        correct = correct and summary["correct"]
        checks = summary["check_errors"] or ("ok" if summary["checked"] else "not run")
        print(
            f"{name}: attempted {summary['attempted']}, failed {summary['failed']}, "
            f"error_rate {summary['error_rate']:.3f}, checks {checks}"
        )
        for metric, values in table.items():
            if values["n"]:
                print(
                    f"  {metric:<28} {values['median']:>14.6g} {values['unit']:<8} "
                    f"(median of {values['n']}; min {values['min']:.6g}, "
                    f"max {values['max']:.6g}, iqr {values['iqr']:.4g})"
                )
            key = metric if len(names) == 1 else f"{name}.{metric}"
            result_metrics[key] = {"value": values["median"], "unit": values["unit"]}
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": result_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
