import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import specklesim

_MODULES = [info.name for info in pkgutil.iter_modules(specklesim.__path__) if not info.name.startswith("_")]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"specklesim.{name}")
    assert [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)] == []


def test_package_version_matches_pyproject():
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    assert re.findall(r'^version = "(.*)"$', pyproject, re.MULTILINE) == [specklesim.__version__]
