"""Project metadata and build.

This file is the only place the project is declared (there is no
pyproject.toml): the package under ``src/``, the four ``repro-*`` console
scripts, and the version, which is read from ``repro.__version__`` so it is
stated once.  ``pip install -e .`` falls back to the classic
``setup.py develop`` path when no [build-system] table is declared, which
works on environments whose setuptools lacks the ``wheel`` package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

#: The ``repro-*`` commands the README documents; each ``main`` returns an
#: exit code.
CONSOLE_SCRIPTS = [
    f"repro-{name} = repro.cli.{name}:main"
    for name in ("assemble", "scaling", "quality", "jobs")
]


def _version() -> str:
    init = Path(__file__).parent / "src" / "repro" / "__init__.py"
    return re.search(r'^__version__ = "([^"]+)"', init.read_text(), re.M).group(1)


setup(
    name="repro",
    version=_version(),
    description=(
        "Distributed-memory parallel contig generation for de novo "
        "long-read genome assembly (ELBA reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # 1.25 is where ufunc.at got its fast indexed loops: the seed semiring's
    # slot reduction is one np.minimum.at per local multiply
    install_requires=["numpy>=1.25"],
    # nothing in src/ imports these; the test suite does, at module level
    extras_require={"test": ["pytest", "scipy>=1.10", "hypothesis"]},
    entry_points={"console_scripts": CONSOLE_SCRIPTS},
)
