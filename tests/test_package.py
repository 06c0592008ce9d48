import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import specklesim
from specklesim.rng import ChildSeed, PointSeed, Stream

_MODULES = [info.name for info in pkgutil.iter_modules(specklesim.__path__) if not info.name.startswith("_")]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"specklesim.{name}")
    assert [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)] == []


def test_package_version_matches_pyproject():
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    assert re.findall(r'^version = "(.*)"$', pyproject, re.MULTILINE) == [specklesim.__version__]


@pytest.mark.parametrize("table", [Stream, ChildSeed, PointSeed])
def test_stream_table_tags_are_distinct(table):
    # an IntEnum turns a repeated value into an alias that iteration skips
    assert len(table.__members__) == len({int(tag) for tag in table}) == len(table)


def test_no_module_imports_a_private_name_of_another():
    private = []
    for path in Path(specklesim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [a.name for a in node.names if a.name.startswith("_") and not a.name.endswith("__")]
                private += [f"{path.name}: {node.module}.{name}" for name in names]
    assert private == []


@pytest.mark.parametrize("name", ["specklesim", *(f"specklesim.{name}" for name in _MODULES)])
def test_no_module_level_callable_carries_wrapped(name):
    # perfbench's tracer swaps module attributes for wrappers and restores
    # them by identity; it treats a callable with __wrapped__ as a wrapper it
    # failed to remove.  A functools.cache, lru_cache or wraps on a module
    # function therefore breaks the traced benchmark run: cache by hand.
    module = importlib.import_module(name)
    wrapped = [attr for attr, value in vars(module).items() if callable(value) and hasattr(value, "__wrapped__")]
    assert wrapped == [], f"{name} has module-level callables with __wrapped__: {wrapped}"
