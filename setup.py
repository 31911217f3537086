"""Project metadata and build.

This file is the only place the project is declared (there is no
pyproject.toml): the package under ``src/``, the four ``repro-*`` console
scripts, and the version, which is read from ``repro.__version__`` so it is
stated once.  ``pip install -e .`` falls back to the classic
``setup.py develop`` path when no [build-system] table is declared, which
works on environments whose setuptools lacks the ``wheel`` package.

It also wires the **optional** native kernel extension
(``repro._native._kernels``): ``python setup.py build_ext --inplace``
compiles it against the numpy C API, and :mod:`repro.kernels` picks it up
as the ``native`` tier.  The build is failure-tolerant -- a host without a
C toolchain (or numpy headers) installs the pure-Python package unchanged
and the kernel registry falls back to the numpy tier.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup
from setuptools.command.build_ext import build_ext

#: The ``repro-*`` commands the README documents; each ``main`` returns an
#: exit code.
CONSOLE_SCRIPTS = [
    f"repro-{name} = repro.cli.{name}:main"
    for name in ("assemble", "scaling", "quality", "jobs")
]


def _version() -> str:
    init = Path(__file__).parent / "src" / "repro" / "__init__.py"
    return re.search(r'^__version__ = "([^"]+)"', init.read_text(), re.M).group(1)


def _native_extensions():
    try:
        import numpy
        from setuptools import Extension
    except ImportError:
        return []
    return [
        Extension(
            "repro._native._kernels",
            sources=["src/repro/_native/kernels.c"],
            include_dirs=[numpy.get_include()],
        )
    ]


class optional_build_ext(build_ext):
    """Build the native tier when possible; never fail the install."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # pragma: no cover - toolchain-dependent
            self._skip(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # pragma: no cover - toolchain-dependent
            self._skip(exc)

    def _skip(self, exc):
        print(
            f"WARNING: native kernel build skipped ({exc}); "
            "the numpy kernel tier will be used"
        )


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
    ext_modules=_native_extensions(),
    cmdclass={"build_ext": optional_build_ext},
)
