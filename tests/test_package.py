import ast
import importlib
import importlib.util
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


def _imported_modules(node):
    if isinstance(node, ast.ImportFrom):
        return [node.module or "", *(f"{node.module or ''}.{alias.name}" for alias in node.names)]
    return [alias.name for alias in node.names] if isinstance(node, ast.Import) else []


def test_only_selftest_and_the_exports_reach_the_oracles():
    # production code uses closed forms; the brute-force routes are oracles
    # for the tests and selftest, so no production module imports them
    package = Path(specklesim.__file__).parent
    oracles = ast.parse((package / "oracles.py").read_text())
    moved = {node.name for node in oracles.body if isinstance(node, ast.FunctionDef)}
    importers, named = set(), []
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if any(module.rpartition(".")[2] == "oracles" for module in _imported_modules(node)):
                importers.add(path.name)
            identifier = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if identifier in moved and path.name not in ("oracles.py", "selftest.py", "__init__.py"):
                named.append(f"{path.name}:{node.lineno}: {identifier}")
    assert importers == {"__init__.py", "selftest.py"}
    assert named == []


def test_every_benchmark_boundary_resolves():
    # perfbench traces the functions in BOUNDARIES and drops any it cannot
    # find from the per-layer metrics without failing; spans.py is read only.
    path = Path(__file__).parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, funcs in spans.BOUNDARIES.items():
        module = importlib.import_module(f"specklesim.{layer}")
        missing += [f"{layer}.{func}" for func in funcs if not callable(getattr(module, func, None))]
    assert missing == []


@pytest.mark.parametrize("name", ["specklesim", *(f"specklesim.{name}" for name in _MODULES)])
def test_no_module_level_callable_carries_wrapped(name):
    # perfbench's tracer swaps module attributes for wrappers and restores
    # them by identity; it treats a callable with __wrapped__ as a wrapper it
    # failed to remove.  A functools.cache, lru_cache or wraps on a module
    # function therefore breaks the traced benchmark run: cache by hand.
    module = importlib.import_module(name)
    wrapped = [attr for attr, value in vars(module).items() if callable(value) and hasattr(value, "__wrapped__")]
    assert wrapped == [], f"{name} has module-level callables with __wrapped__: {wrapped}"
