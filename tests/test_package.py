"""The package's declared surface matches its tree: public names resolve,
every public function is named by a test, the files named in pyproject.toml
exist, the modules import one another in layers and the benchmark's tracer
finds and restores every name it wraps."""

import ast
import importlib
import importlib.util
import inspect
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
    # the curve recovery is a leaf: no sibling imports it, so a change inside
    # it cannot move the continuations or the joint recovery
    assert sorted(n for n, deps in graph.items() if "freeboundary" in deps) == []
    # peel off modules whose imports are all placed: a cycle leaves a rest
    placed = set()
    while len(placed) < len(graph):
        ready = {n for n, deps in graph.items() if n not in placed and deps <= placed}
        assert ready, "import cycle among %s" % sorted(set(graph) - placed)
        placed |= ready


def _module_tree(name):
    return ast.parse((pathlib.Path(fraccauchy.__path__[0]) / (name + ".py")).read_text())


def _private_definitions(tree):
    """Single-underscore names that a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _references(tree):
    """Names a module reads, imports by name or reaches as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_private_names_are_used():
    # a private module-level name that nothing in the package reads is dead
    trees = {name: _module_tree(name) for name in MODULES}
    used = set().union(*(_references(tree) for tree in trees.values()))
    unused = sorted("%s.%s" % (name, n) for name, tree in trees.items()
                    for n in _private_definitions(tree) - used)
    assert not unused


def test_public_functions_are_tested():
    # every public function is reached by name from some test file
    tests = pathlib.Path(__file__).resolve().parent
    named = set().union(*(_references(ast.parse(path.read_text()))
                          for path in tests.glob("*.py")))
    untested = []
    for name in MODULES:
        module = importlib.import_module("fraccauchy." + name)
        untested += ["%s.%s" % (name, n) for n in module.__all__
                     if inspect.isfunction(getattr(module, n)) and n not in named]
    assert not untested


def test_benchmark_tracer_restores_every_attribute():
    # bench/tracing.py wraps every public function and the SciPy names the
    # modules bind (elliptic.splu, specfun.quad); a name it expects and the
    # package dropped fails here, and uninstalling leaves no wrapper behind
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    before = {name: dict(vars(mod)) for name, mod in tracer.modules.items()}
    tracer.install()
    try:
        wrapped = [(name, attr) for name, mod in tracer.modules.items()
                   for attr, val in vars(mod).items() if val is not before[name].get(attr)]
    finally:
        tracer.uninstall()
    assert ("elliptic", "splu") in wrapped and ("elliptic", "assemble") in wrapped
    for name, mod in tracer.modules.items():
        after = vars(mod)
        assert after.keys() == before[name].keys()
        assert [attr for attr, val in after.items() if val is not before[name][attr]] == []
