"""Install script for the ``repro`` package (sources under ``src/``).

    pip install -e . --no-build-isolation

The package is pure standard library, so there are no runtime
requirements.  The metadata lives here rather than in a
``pyproject.toml`` so the editable install also works offline and on
setuptools releases that predate PEP 660 editable wheels.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=(
        'Reproduction of "Serialized Asynchronous Links for NoC" '
        "(DATE 2008)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
