"""Generating, simulating and replaying never import ``scipy.stats``.

``scipy.stats`` costs ~45 MB of resident memory and ~0.7 s to import.
Only the characterization fits, CDFs, quantiles and medians need it, and
they import it where they run.  The check runs in a fresh interpreter,
because this one has long since imported whatever other tests needed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys

import repro
import repro.characterization
import repro.cli
import repro.experiments
import repro.platform
import repro.simulation
from repro import generate_workload, hybrid_factory
from repro.platform import ReplayConfig, compare_policies_on_platform
from repro.simulation import WorkloadRunner

workload = generate_workload(num_apps=20, duration_days=0.25, seed=5, max_daily_rate=500)
result = WorkloadRunner(workload).run_policy(hybrid_factory())
assert result.summary()["total_invocations"] == workload.total_invocations > 0
replays = compare_policies_on_platform(
    workload, [hybrid_factory()], replay_config=ReplayConfig(duration_minutes=60, seed=1)
)
assert len(replays) == 1
print("scipy.stats" in sys.modules)
"""


def test_generate_simulate_replay_leave_scipy_stats_unimported():
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["False"], "scipy.stats was imported"
