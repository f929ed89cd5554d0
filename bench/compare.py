"""Compare two benchmark records written by ``run.py --out``.

Usage::

    python3 bench/compare.py BASE.json NEW.json

For every (workload, metric) both records hold, prints the two medians,
the relative change and a verdict taken from ``BENCHMARK.json``:

* ``unresolved`` when either side's inter-quartile range is wider than the
  metric's bound — the runs are too noisy to tell;
* ``worse`` / ``better`` when the new median moved by more than the bound
  in the metric's bad / good direction;
* ``same`` otherwise.

Metrics without a bound (the per-layer ones) are listed with their change
only.  The error rate is compared too: any rise is ``worse``.  Result
digests are compared when both records used the same seed.  Exits 1 when
anything is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def verdict(base: dict, new: dict, better: str, bound: float | None) -> tuple[str, float]:
    """``(verdict, relative change)`` of one metric."""
    scale = abs(base["median"])
    change = (new["median"] - base["median"]) / scale if scale else 0.0
    if bound is None:
        return "-", change
    for side in (base, new):
        if side["median"] and side["iqr"] / abs(side["median"]) > bound:
            return "unresolved", change
    gain = change if better == "higher" else -change
    if gain < -bound:
        return "worse", change
    if gain > bound:
        return "better", change
    return "same", change


def compare(base: dict, new: dict, spec: dict) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, base, new, change, verdict)`` and whether any is worse."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    same_seed = base["environment"]["seed"] == new["environment"]["seed"]
    for workload, base_run in base["workloads"].items():
        new_run = new["workloads"].get(workload)
        if new_run is None:
            continue
        rate = "worse" if new_run["error_rate"] > base_run["error_rate"] else "same"
        rows.append(
            (workload, "error_rate", base_run["error_rate"], new_run["error_rate"], None, rate)
        )
        if same_seed:
            digest = "same" if base_run["digest"] == new_run["digest"] else "different"
            rows.append((workload, "digest", None, None, None, digest))
        for metric, base_stats in base_run["metrics"].items():
            new_stats = new_run["metrics"].get(metric)
            if new_stats is None or metric not in declared:
                continue
            if not base_stats["n"] and not new_stats["n"]:
                continue
            meta = declared[metric]
            label, change = verdict(base_stats, new_stats, meta["better"], meta.get("bound"))
            rows.append(
                (workload, metric, base_stats["median"], new_stats["median"], change, label)
            )
    return rows, any(row[5] == "worse" for row in rows)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = json.loads(args.base.read_text())
    new = json.loads(args.new.read_text())
    rows, worse = compare(base, new, spec)
    for workload, metric, base_value, new_value, change, label in rows:
        values = ""
        if base_value is not None:
            values = f"{base_value:>14.6g} {new_value:>14.6g}"
            if change is not None:
                values += f" {change:+9.2%}"
        print(f"{workload:<14} {metric:<28} {values:<40} {label}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
