"""The install surface: console scripts and the version are declared once."""

import re
from importlib import import_module
from pathlib import Path

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
