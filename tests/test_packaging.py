"""The install surface: console scripts and the version are declared once."""

import pkgutil
import re
from importlib import import_module
from pathlib import Path

import pytest

import setuptools  # noqa: F401  (provides distutils on every supported Python)
from distutils.core import run_setup

import repro

ROOT = Path(__file__).resolve().parent.parent


def test_readme_commands_are_installed_console_scripts(monkeypatch):
    monkeypatch.chdir(ROOT)
    dist = run_setup("setup.py", stop_after="init")
    scripts = dict(
        spec.split(" = ") for spec in dist.entry_points["console_scripts"]
    )
    documented = set(re.findall(r"\brepro-[a-z]+\b", (ROOT / "README.md").read_text()))
    assert documented and documented <= set(scripts)
    for target in scripts.values():
        module, func = target.split(":")
        assert callable(getattr(import_module(module), func))
    assert dist.get_version() == repro.__version__


def _modules_with_all():
    """Every ``repro`` module that declares ``__all__``, packages first."""
    names = ["repro"] + sorted(
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if not info.name.endswith("__main__")
    )
    return [name for name in names if hasattr(import_module(name), "__all__")]


@pytest.mark.parametrize("name", _modules_with_all())
def test_every_export_resolves(name):
    # a deletion that leaves its name in __all__ breaks ``import *``
    module = import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
