"""Tests for the package surface: export lists, version, README sketch."""

import importlib
import re
from pathlib import Path

import pytest

import qring

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["qring", "qring.bessel", "qring.state", "qring.observables",
           "qring.uncertainty", "qring.mwp"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale __all__ entry would silently hide a function from anything
    # that walks the export lists, such as the benchmark's span tracer
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert qring.__version__ == project["version"]


def test_readme_sketch_runs():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
