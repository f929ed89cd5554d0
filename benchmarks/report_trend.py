#!/usr/bin/env python
"""Print the BENCH_results.json performance trajectory, per bench key.

``BENCH_results.json`` is append-only — each slow-bench run adds one
entry per benchmark (see ``record_bench_result`` in
``benchmarks/conftest.py``) — so grouping entries by name and printing
them in recorded order shows how every tracked number moves across
sessions and machines::

    python benchmarks/report_trend.py            # whole trajectory
    python benchmarks/report_trend.py scaleout   # keys containing "scaleout"

Beyond printing, the report is a **regression gate**: for every bench
key, the latest entry's numbers are compared against the previous entry
(preferring one recorded on a machine with the same ``cpu_count``, so a
laptop run never trips the CI bar).  A more-is-better number (a speedup
or a rate) more than 20% below its predecessor, a less-is-better number
(seconds, an overhead, a resident-set size) more than 20% above it, or
a latest entry whose own recorded ``passed`` is false flags the key and
makes the script exit nonzero — which fails the nightly job instead of
letting the trajectory silently decay.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_results.json"

#: Fraction a value may move the wrong way from its predecessor (a drop
#: for more-is-better numbers, a rise for less-is-better ones) before the
#: key is flagged as a regression.
REGRESSION_THRESHOLD = 0.20

#: Name markers of more-is-better numbers: the top-level ``speedup`` plus
#: any detail naming a speedup or a rate.  Checked first, because a rate
#: such as ``invocations_per_second`` also carries a less-is-better marker.
_MORE_IS_BETTER_MARKERS = ("speedup", "per_s")

#: Name markers of less-is-better numbers: durations, overheads and
#: resident-set sizes.
_LESS_IS_BETTER_MARKERS = ("_s", "seconds", "overhead", "rss")


class Regression(NamedTuple):
    """One flagged bench key: a number that moved the wrong way, or a bar
    the latest entry recorded as missed (``key == "passed"``, no values)."""

    name: str
    key: str
    baseline: float | None = None
    value: float | None = None

    def describe(self) -> str:
        if self.baseline is None or self.value is None:
            return f"REGRESSION {self.name}: the latest entry recorded passed=false"
        change = 100.0 * abs(self.value / self.baseline - 1)
        direction = "rise" if self.value > self.baseline else "drop"
        return (
            f"REGRESSION {self.name}: {self.key} {self.baseline:g} -> "
            f"{self.value:g} ({change:.0f}% {direction}, threshold "
            f"{REGRESSION_THRESHOLD:.0%})"
        )


def load_entries(path: Path = RESULTS_PATH) -> list[dict]:
    if not path.exists():
        return []
    try:
        entries = json.loads(path.read_text())
    except json.JSONDecodeError:
        return []
    return entries if isinstance(entries, list) else []


def format_entry(entry: dict) -> str:
    recorded = entry.get("recorded_unix")
    stamp = (
        time.strftime("%Y-%m-%d %H:%M", time.localtime(recorded))
        if isinstance(recorded, (int, float))
        else "unknown time"
    )
    parts = [stamp]
    if "speedup" in entry:
        parts.append(f"speedup {entry['speedup']:g}x")
    for key, value in entry.get("details", {}).items():
        if isinstance(value, float):
            parts.append(f"{key}={value:g}")
        else:
            parts.append(f"{key}={value}")
    return "  ".join(parts)


def higher_is_better(key: str) -> bool | None:
    """Whether a number named ``key`` improves upward, downward, or is not
    a performance number at all (``None``: counts, shapes, settings)."""
    if any(marker in key for marker in _MORE_IS_BETTER_MARKERS):
        return True
    if any(marker in key for marker in _LESS_IS_BETTER_MARKERS):
        return False
    return None


def perf_values(entry: dict) -> dict[str, float]:
    """The entry's performance numbers, keyed for cross-run comparison."""
    values: dict[str, float] = {}
    numbers = dict(entry.get("details") or {})
    numbers["speedup"] = entry.get("speedup")
    for key, value in numbers.items():
        if (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and higher_is_better(key) is not None
        ):
            values[key] = float(value)
    return values


def _recorded_failure(entry: dict) -> bool:
    """Whether the entry recorded that it missed its own bar."""
    details = entry.get("details")
    passed = entry.get("passed", details.get("passed") if isinstance(details, dict) else None)
    return passed is False


def _cpu_count(entry: dict) -> object:
    """The entry's core count: top level since entries name their
    environment, among the details in older entries."""
    details = entry.get("details")
    return entry.get(
        "cpu_count", details.get("cpu_count") if isinstance(details, dict) else None
    )


def find_regressions(
    by_name: dict[str, list[dict]], threshold: float = REGRESSION_THRESHOLD
) -> list[Regression]:
    """Latest-vs-previous moves beyond ``threshold``, per bench key.

    More-is-better numbers are flagged on a drop, less-is-better numbers
    on a rise.  The comparison baseline is the most recent *earlier*
    entry, preferring one recorded with the same ``cpu_count`` as the
    latest (cross-machine comparisons of parallel speedups are
    meaningless).  A latest entry that recorded ``passed: false`` is
    flagged whatever its history.
    """
    flagged: list[Regression] = []
    for name, entries in by_name.items():
        latest = entries[-1]
        if _recorded_failure(latest):
            flagged.append(Regression(name, "passed"))
        earlier = entries[:-1]
        if not earlier:
            continue
        same_cpu = [e for e in earlier if _cpu_count(e) == _cpu_count(latest)]
        previous_values = perf_values((same_cpu or earlier)[-1])
        for key, value in perf_values(latest).items():
            baseline = previous_values.get(key)
            if baseline is None or baseline <= 0:
                continue
            if higher_is_better(key):
                worse = value < (1 - threshold) * baseline
            else:
                worse = value > (1 + threshold) * baseline
            if worse:
                flagged.append(Regression(name, key, baseline, value))
    return flagged


def main(argv: list[str]) -> int:
    needle = argv[0] if argv else ""
    entries = load_entries()
    if not entries:
        print(f"no benchmark history at {RESULTS_PATH}")
        return 1
    by_name: dict[str, list[dict]] = defaultdict(list)
    for entry in entries:
        name = entry.get("name", "<unnamed>")
        if needle in name:
            by_name[name].append(entry)
    if not by_name:
        print(f"no bench keys matching {needle!r}")
        return 1
    for name in sorted(by_name):
        print(name)
        for entry in by_name[name]:
            print(f"  {format_entry(entry)}")
    regressions = find_regressions(by_name)
    if regressions:
        print()
        for regression in regressions:
            print(regression.describe())
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
