"""One benchmark child: set a workload up, time its iterations, check them.

Run by ``run.py`` as a fresh process per repeat, so every repeat pays the
imports and input preparation that ``setup_s`` measures::

    python3 bench/measure.py '{"workload": "trace-gen", "seed": 2020, ...}'

The last line of standard output is one JSON object with the per-iteration
samples; ``run.py`` turns the samples of all repeats into metrics.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Scratch space for on-disk stores, inside the checkout.
WORK_ROOT = ROOT / ".bench_work"


def _reset_peak_rss() -> None:
    """Reset this process's peak RSS (Linux ``clear_refs``) where allowed.

    Without the reset an iteration's peak also covers everything before it.
    """
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def _peak_rss_mb() -> tuple[float, float]:
    """``(this process, largest waited-for child)`` peak RSS in MB.

    Pool workers are waited for inside the iteration that forks them.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                own = int(line.split()[1])
    except OSError:
        pass
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, children / 1024.0


def _cpu() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


def _iteration(workload, state, kind: str) -> tuple[dict, object]:
    """Run and time one iteration; ``kind`` is warmup, untraced or traced."""
    tracer = tracing.Tracer() if kind == "traced" else None
    gc.collect()
    _reset_peak_rss()
    cpu_before = _cpu()
    outcome = error = None
    begin = time.perf_counter()
    try:
        if tracer is None:
            outcome = workload.run(state)
        else:
            with tracing.traced(tracer):
                outcome = workload.run(state)
    except Exception:  # a failed iteration is counted, not fatal
        error = traceback.format_exc(limit=8)
    wall = time.perf_counter() - begin
    cpu_after = _cpu()
    rss_mb, children_rss_mb = _peak_rss_mb()
    record = {
        "kind": kind,
        "wall_s": wall,
        "rss_mb": rss_mb,
        "children_rss_mb": children_rss_mb,
        "error": error,
    }
    if outcome is not None:
        record.update(
            work=outcome.work, digest=workloads.digest(outcome), counters=outcome.counters
        )
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, wall)
        layers["proc.cpu_s"] = cpu_after[0] - cpu_before[0]
        layers["proc.children_cpu_s"] = cpu_after[1] - cpu_before[1]
        record["layers"] = layers
    return record, outcome


def measure(
    workload_name: str,
    size: dict,
    seed: int,
    seconds: float,
    traced: bool,
    check: bool,
    workdir: Path,
    started: float,
) -> dict:
    """Set up once, warm up once, then time iterations for ``seconds``.

    ``started`` is the ``perf_counter`` reading when the child was
    launched (``CLOCK_MONOTONIC`` is shared by all processes), so
    ``setup_s`` covers interpreter start, imports and input preparation.
    The warm-up iteration lets lazy set-up finish; it is digest-checked
    but not timed, and its peak RSS is the one reported: later iterations
    start from whatever memory the earlier ones left resident, so their
    peaks grow with the number of iterations a run happens to fit.  Untraced iterations give the end-to-end samples; with
    ``traced`` they alternate with traced ones, so both kinds see the
    same stretch of machine time.  With ``check`` the warm-up's outputs
    are verified against the workload's reference path; the digest then
    extends that verdict to every other iteration of the same seed.
    """
    workload = workloads.WORKLOADS[workload_name]
    workdir.mkdir(parents=True, exist_ok=True)
    state = workload.setup(size, seed, workdir)
    gc.collect()
    setup_seconds = time.perf_counter() - started

    warmup, outcome = _iteration(workload, state, "warmup")
    evidence = outcome.evidence if outcome is not None else None
    del outcome
    iterations = [warmup]
    kinds = ("untraced", "traced") if traced else ("untraced",)
    budget_start = time.perf_counter()
    while True:
        record, _ = _iteration(workload, state, kinds[(len(iterations) - 1) % len(kinds)])
        iterations.append(record)
        elapsed = time.perf_counter() - budget_start
        if len(iterations) > len(kinds) and elapsed + record["wall_s"] > seconds:
            break

    check_errors: list[str] = []
    if check and evidence is not None:
        try:
            check_errors = workload.check(state, evidence)
        except Exception:
            check_errors = ["check raised:\n" + traceback.format_exc(limit=8)]
    return {
        "setup_s": setup_seconds,
        "iterations": iterations,
        "checked": check and evidence is not None,
        "check_errors": check_errors,
    }


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    workdir = WORK_ROOT / f"{spec['workload']}-{os.getpid()}"
    try:
        result = measure(
            spec["workload"],
            workloads.FULL[spec["workload"]],
            spec["seed"],
            spec["seconds"],
            spec["trace"],
            spec["check"],
            workdir,
            spec["started"],
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # not empty: another child still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
