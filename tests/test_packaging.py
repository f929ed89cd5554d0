"""``setup.py`` declares the package that ``src/`` holds.

The script runs in this interpreter with ``setuptools.setup`` replaced by
a recorder, so the test sees the metadata an install would receive
without building or writing anything.
"""

from __future__ import annotations

import importlib
import runpy
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def metadata() -> dict:
    setuptools = pytest.importorskip("setuptools")
    recorded: dict = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(setuptools, "setup", lambda **kwargs: recorded.update(kwargs))
        # find_packages() and package_dir are relative to the project root.
        patch.chdir(ROOT)
        runpy.run_path(str(ROOT / "setup.py"))
    return recorded


def test_name_version_and_requirements(metadata):
    assert metadata["name"] == "repro"
    assert metadata["version"] == repro.__version__
    assert metadata["install_requires"] == ["numpy", "scipy"]
    assert metadata["python_requires"] == ">=3.10"


def test_packages_are_every_package_under_src(metadata):
    assert metadata["package_dir"] == {"": "src"}
    src = ROOT / "src"
    expected = {
        ".".join(init.parent.relative_to(src).parts)
        for init in src.glob("repro/**/__init__.py")
    }
    assert sorted(metadata["packages"]) == sorted(expected)


def test_console_script_runs_the_cli(metadata, capsys):
    (script,) = metadata["entry_points"]["console_scripts"]
    name, target = (part.strip() for part in script.split("="))
    module, attribute = target.split(":")
    assert name == "repro"
    main = getattr(importlib.import_module(module), attribute)
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert "simulate" in capsys.readouterr().out
