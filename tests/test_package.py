"""The package's declared surface matches its tree: public names resolve
and the files named in pyproject.toml exist."""

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
