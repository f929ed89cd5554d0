"""Package metadata and the ``repro`` console script.

The version is read from ``src/repro/__init__.py`` (``__version__``)
without importing the package, so there is one copy of it.  Without the
``wheel`` package, PEP 517/660 editable installs are unavailable; use
``pip install -e . --no-use-pep517`` or ``python setup.py develop``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', INIT.read_text(), re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
