import ast
import importlib
import importlib.util
import math
import pkgutil
import re
from pathlib import Path

import pytest

import specklesim
from specklesim.config import ScenarioConfig
from specklesim.medium import gaussian_transmission_matrix, haar_unitary
from specklesim.rng import ChildSeed, PointSeed, Stream
from specklesim.shaping import ideal_circuit, mode_templates, optimize_pattern
from specklesim.twophoton import montecarlo_counts, source_preset

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


_INTEGER_ARGUMENTS = {
    "n_out": lambda value: gaussian_transmission_matrix(value, 3, 0),
    "n_in": lambda value: gaussian_transmission_matrix(3, value, 0),
    "n": lambda value: haar_unitary(value, 0),
    "n_segments": mode_templates,
    "n_pulses": lambda value: montecarlo_counts(ideal_circuit(0.5, math.pi), source_preset("filtered"), value, 1),
    "steps": lambda value: optimize_pattern(gaussian_transmission_matrix(2, 2, 0), mode_templates(1)[0], 0,
                                            "stepped", value),
    "segments": lambda value: ScenarioConfig(segments=value),
}


@pytest.mark.parametrize("value", [0, -1, 2.5, math.inf, math.nan])
@pytest.mark.parametrize("name", sorted(_INTEGER_ARGUMENTS))
def test_every_integer_argument_follows_the_one_integer_rule(name, value):
    # inf once raised OverflowError and 2.5 a message of each module's own wording
    with pytest.raises(ValueError, match=f"^{name}: expected "):
        _INTEGER_ARGUMENTS[name](value)


def _sites(is_site):
    """``file:qualified.function`` of every node of the package that ``is_site`` picks."""
    found = []

    def visit(node, owner, path):
        for child in ast.iter_child_nodes(node):
            if is_site(child):
                found.append(f"{path.name}:{owner}")
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, f"{owner}.{child.name}".lstrip(".") if named else owner, path)

    for path in sorted(Path(specklesim.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), "", path)
    return found


def _freezes_an_array(node):
    writes_flag = isinstance(node, ast.Assign) and any(getattr(t, "attr", None) == "writeable" for t in node.targets)
    return writes_flag or isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setflags"


def _checks_integrality(node):
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "is_integer":
        return True
    if not isinstance(node, ast.Compare):
        return False
    sides = [node.left, *node.comparators]
    wrapped = [side.args[0] for side in sides if isinstance(side, ast.Call) and getattr(side.func, "id", None) == "int"
               and len(side.args) == 1]
    return any(ast.dump(arg) == ast.dump(side) for arg in wrapped for side in sides)


def test_each_argument_rule_keeps_its_one_owner():
    # records take read-only copies through rng.read_only_copy, integers pass rng.check_integer;
    # only a medium's grown rows are frozen in place, as copying them would double the rows held
    assert _sites(_freezes_an_array) == ["medium.py:TransmissionMatrix._draw_to", "rng.py:read_only_copy"]
    assert _sites(_checks_integrality) == ["rng.py:check_integer"]
