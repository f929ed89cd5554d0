"""Every ``BENCH_results.json`` entry names the environment it ran in,
its statistic, the bar it was held to and whether it passed."""

from __future__ import annotations

import importlib.util
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"
_SPEC = importlib.util.spec_from_file_location("bench_conftest", _SCRIPT)
bench_conftest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_conftest)


#: The statistic, bar and pass flag every entry must carry.
VERDICT = {"statistic": "best of 3 runs", "bar": "speedup >= 2x", "passed": True}


def recorded(tmp_path, monkeypatch, **kwargs) -> list[dict]:
    path = tmp_path / "BENCH_results.json"
    monkeypatch.setattr(bench_conftest, "BENCH_RESULTS_PATH", path)
    kwargs = {**VERDICT, **kwargs}
    bench_conftest.record_bench_result("demo/key", **kwargs)
    bench_conftest.record_bench_result("demo/key", **kwargs)
    return json.loads(path.read_text())


def test_entry_names_its_environment(tmp_path, monkeypatch):
    first, second = recorded(tmp_path, monkeypatch, speedup=2.5, seconds=1.25)
    assert first["name"] == "demo/key"
    assert first["speedup"] == 2.5
    assert first["details"] == {"seconds": 1.25}
    assert first["cpu_count"] == os.cpu_count()
    assert first["numpy"] == np.__version__
    assert isinstance(first["numba"], bool)
    assert first["commit"] == "unknown" or re.fullmatch("[0-9a-f]{40}", first["commit"])
    assert first["python"]
    assert second["commit"] == first["commit"]


def test_commit_unknown_outside_a_checkout(tmp_path, monkeypatch):
    outside = tmp_path / "not-a-checkout"
    outside.mkdir()
    monkeypatch.setattr(bench_conftest, "REPO_ROOT", outside)
    (entry, _) = recorded(tmp_path, monkeypatch)
    assert entry["commit"] == "unknown"
    assert "details" not in entry and "speedup" not in entry


def test_entry_states_its_statistic_bar_and_verdict(tmp_path, monkeypatch):
    (entry, _) = recorded(tmp_path, monkeypatch, passed=False, seconds=1.25)
    assert entry["statistic"] == "best of 3 runs"
    assert entry["bar"] == "speedup >= 2x"
    assert entry["passed"] is False
    assert entry["details"] == {"seconds": 1.25}


@pytest.mark.parametrize("missing", sorted(VERDICT))
def test_entry_without_statistic_bar_or_verdict_is_refused(tmp_path, monkeypatch, missing):
    path = tmp_path / "BENCH_results.json"
    monkeypatch.setattr(bench_conftest, "BENCH_RESULTS_PATH", path)
    partial = {key: value for key, value in VERDICT.items() if key != missing}
    with pytest.raises(TypeError, match=missing):
        bench_conftest.record_bench_result("demo/key", speedup=2.5, **partial)
    assert not path.exists()
