"""The package's declared surface matches its tree: public names resolve,
the files named in pyproject.toml exist and the modules import one another
in layers."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import fraccauchy

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(info.name for info in pkgutil.iter_modules(fraccauchy.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module("fraccauchy." + name)
    assert hasattr(module, "__all__"), "fraccauchy.%s declares no __all__" % name
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing


def test_declared_files_exist():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    project = meta["project"]
    where = meta["tool"]["setuptools"]["packages"]["find"]["where"]
    declared = [ROOT / d for d in where]
    readme = project.get("readme")
    if readme is not None:
        declared.append(ROOT / (readme if isinstance(readme, str) else readme["file"]))
    for target in project.get("scripts", {}).values():
        module = target.split(":")[0].replace(".", "/")
        declared.append(ROOT / where[0] / (module + ".py"))
    missing = [str(p.relative_to(ROOT)) for p in declared if not p.exists()]
    assert not missing


def _sibling_imports(name):
    """Modules of the package that module ``name`` imports relatively."""
    path = pathlib.Path(fraccauchy.__path__[0]) / (name + ".py")
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found & set(MODULES)


def test_import_layers():
    graph = {name: _sibling_imports(name) for name in MODULES}
    # the finite-difference solver stands alone; the continuation schemes
    # reach it only as objects its callers pass in
    assert graph["elliptic"] == set()
    # the two inverse solvers share their curve traces through elliptic and
    # their cosine tables through spectral, not through each other
    assert "simultaneous" not in graph["freeboundary"]
    assert "freeboundary" not in graph["simultaneous"]
    # peel off modules whose imports are all placed: a cycle leaves a rest
    placed = set()
    while len(placed) < len(graph):
        ready = {n for n, deps in graph.items() if n not in placed and deps <= placed}
        assert ready, "import cycle among %s" % sorted(set(graph) - placed)
        placed |= ready
