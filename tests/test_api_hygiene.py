"""API hygiene: every public package exports what it promises, every
module is documented, the package imports cleanly in any order, and it
imports nothing beyond the standard library and numpy."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.net",
    "repro.multicast",
    "repro.dsps",
    "repro.core",
    "repro.analytic",
    "repro.workloads",
    "repro.apps",
    "repro.bench",
    "repro.rt",
]


def iter_all_modules():
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        yield pkg
        for info in pkgutil.iter_modules(pkg.__path__, prefix=pkg_name + "."):
            yield importlib.import_module(info.name)


@pytest.mark.parametrize("pkg_name", PACKAGES)
def test_package_all_resolves(pkg_name):
    pkg = importlib.import_module(pkg_name)
    assert hasattr(pkg, "__all__"), f"{pkg_name} has no __all__"
    for name in pkg.__all__:
        assert hasattr(pkg, name) or _is_submodule(pkg_name, name), (
            f"{pkg_name}.__all__ exports missing name {name!r}"
        )


def _is_submodule(pkg_name, name):
    try:
        importlib.import_module(f"{pkg_name}.{name}")
        return True
    except ImportError:
        return False


def test_every_module_has_a_docstring():
    undocumented = [
        mod.__name__
        for mod in iter_all_modules()
        if not (mod.__doc__ and mod.__doc__.strip())
    ]
    assert undocumented == []


def test_public_classes_and_functions_documented():
    """Every name exported via __all__ carries a docstring."""
    missing = []
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        for name in getattr(pkg, "__all__", []):
            obj = getattr(pkg, name, None)
            if obj is None or isinstance(obj, (int, float, str)):
                continue
            if not getattr(obj, "__doc__", None):
                missing.append(f"{pkg_name}.{name}")
    assert missing == []


def test_no_import_cycles_from_leaves():
    """Leaf modules import standalone (fresh interpreter order not
    required: importlib covers the registry)."""
    for mod in (
        "repro.multicast.model",
        "repro.net.costs",
        "repro.sim.events",
        "repro.dsps.acker",
        "repro.workloads.stats",
    ):
        assert importlib.import_module(mod) is not None


def test_version_exposed():
    assert repro.__version__ == "1.0.0"


def test_package_imports_only_stdlib_numpy_and_itself():
    """The benchmark and CI environments install numpy and nothing else
    (``pyproject.toml``'s ``dependencies``), so any other import fails
    there even when it works on a developer's machine."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "repro"}
    root = Path(repro.__file__).parent
    outside = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.relative_to(root)}:{node.lineno}: {name}"
                        for name in names if name.split(".")[0] not in allowed]
    assert not outside, outside
