"""A dead pool worker must stop the run with a clear error, never hang it.

Every scenario kills a worker with SIGKILL from inside its task.  The
scenarios run in a child interpreter under ``subprocess.run(timeout=...)``,
so a regression that hangs fails the tests instead of stalling the suite.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import pool

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)

SRC = Path(__file__).resolve().parents[2] / "src"

#: Longest a scenario's child may run; a hang fails the test here.
CHILD_TIMEOUT_SECONDS = 120

#: Longest the run may take from start to error inside the child.
DETECTION_SECONDS = 10.0

#: The scenarios, run one after another in one child interpreter.  Each
#: reports the error it ended with, the results it saw before, and how
#: long it took.
SCENARIOS = """
import json, os, signal, sys, time
from repro.core.pool import fork_pool_imap, fork_pool_map
from repro.policies.registry import hybrid_factory
from repro.simulation import fused
from repro.trace.generator import GeneratorConfig
from repro.trace.store import InvocationStore

PARENT = os.getpid()

def kill_in_worker():
    if os.getpid() != PARENT:
        os.kill(os.getpid(), signal.SIGKILL)

def map_middle(yielded):
    # The survivor is busy, so the replacement worker takes later tasks.
    def task(i):
        if i == 1:
            kill_in_worker()
        time.sleep(0.3 if i == 0 else 0.02)
        return i * i
    fork_pool_map(task, 6, 2)

def map_last(yielded):
    def task(i):
        if i == 5:
            time.sleep(0.1)
            kill_in_worker()
        return i * i
    fork_pool_map(task, 6, 2)

def imap(yielded):
    def task(i):
        if i == 2:
            kill_in_worker()
        return i * i
    for result in fork_pool_imap(task, 6, 2):
        yielded.append(result)

class KillingStore(InvocationStore):
    # Kills the worker that simulates the last (partial) chunk.
    @classmethod
    def from_app_columns(cls, app_functions, *args, **kwargs):
        if len(app_functions) < 5:
            kill_in_worker()
        return InvocationStore.from_app_columns(app_functions, *args, **kwargs)

def fused_run(yielded):
    fused.InvocationStore = KillingStore
    config = GeneratorConfig(
        num_apps=18, duration_minutes=360.0, seed=21, max_daily_rate=200.0,
    )
    fused.simulate_streamed(config, [hybrid_factory()], chunk_apps=5, gen_workers=2)

outcomes = {}
for scenario in (map_middle, map_last, imap, fused_run):
    started = time.perf_counter()
    outcome = outcomes[scenario.__name__] = {"yielded": []}
    try:
        scenario(outcome["yielded"])
    except BaseException as error:
        outcome["error"] = type(error).__name__
        outcome["message"] = str(error)
    outcome["seconds"] = time.perf_counter() - started
print(json.dumps(outcomes))
"""


@pytest.fixture(scope="module")
def outcomes() -> dict:
    """Run every scenario in one child; return its JSON report."""
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    completed = subprocess.run(
        [sys.executable, "-c", SCENARIOS],
        capture_output=True,
        text=True,
        env=env,
        timeout=CHILD_TIMEOUT_SECONDS,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def assert_died(outcome: dict, task_id: int) -> None:
    assert outcome.get("error") == "WorkerDiedError", outcome
    assert "SIGKILL" in outcome["message"]
    outstanding = outcome["message"].split("tasks ")[1].split(" outstanding")[0]
    assert task_id in json.loads(outstanding)
    assert outcome["seconds"] < DETECTION_SECONDS


def test_map_worker_killed_on_a_middle_task(outcomes):
    assert_died(outcomes["map_middle"], 1)


def test_map_worker_killed_on_the_last_task(outcomes):
    assert_died(outcomes["map_last"], 5)


def test_imap_worker_killed(outcomes):
    assert_died(outcomes["imap"], 2)
    assert outcomes["imap"]["yielded"] == [0, 1]


def test_fused_run_worker_killed(outcomes):
    assert_died(outcomes["fused_run"], 3)


def test_fork_pool_map_still_returns_in_task_order():
    def task(i: int) -> int:
        return i * i

    assert pool.fork_pool_map(task, 7, 2) == [i * i for i in range(7)]
    assert list(pool.fork_pool_imap(task, 7, 2)) == [i * i for i in range(7)]


@pytest.mark.parametrize("workers", [2, 3])
def test_imap_dispatches_workers_plus_two_tasks_ahead(monkeypatch, workers):
    """The streaming window: ``workers + 2`` tasks ahead of the consumer."""
    submitted = []
    fork_pool = pool._fork_pool

    def counting_fork_pool(task, num_workers):
        forked, token, pool_workers = fork_pool(task, num_workers)
        apply_async = forked.apply_async

        def counted(func, args):
            submitted.append(args[0][1])
            return apply_async(func, args)

        forked.apply_async = counted
        return forked, token, pool_workers

    monkeypatch.setattr(pool, "_fork_pool", counting_fork_pool)
    num_tasks = 10
    results = []
    for index, result in enumerate(pool.fork_pool_imap(lambda i: i * i, num_tasks, workers)):
        assert len(submitted) == min(num_tasks, index + workers + 2)
        results.append(result)
    assert submitted == list(range(num_tasks))
    assert results == [i * i for i in range(num_tasks)]


def test_imap_in_process_fallback_is_lazy():
    """With one worker a task runs only when the consumer asks for it."""
    ran = []

    def task(i: int) -> int:
        ran.append(i)
        return i * i

    for index, result in enumerate(pool.fork_pool_imap(task, 5, 1)):
        assert ran == list(range(index + 1))
        assert result == index * index


def test_a_worker_without_this_pools_closure_runs_nothing(monkeypatch):
    """A replacement worker inherits no closure, or another pool's."""
    ran = []
    monkeypatch.setattr(pool, "_POOL_TASK", None)
    assert pool._pool_entry((7, 3)) == (3, False, None)
    monkeypatch.setattr(pool, "_POOL_TASK", (8, ran.append))
    assert pool._pool_entry((7, 3)) == (3, False, None)
    assert ran == []
    assert pool._pool_entry((8, 3)) == (3, True, None)
    assert ran == [3]
