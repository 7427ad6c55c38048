import ast
import importlib
from pathlib import Path
import pkgutil

import pytest

import rplap

MODULES = sorted(info.name for info in pkgutil.iter_modules(rplap.__path__))

# perfbench wraps `trial_bound.minimize` by that name, so the import stays
# although trial_bound never calls it
UNUSED_IMPORTS_ALLOWED = {("trial_bound", "minimize")}


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"rplap.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_module_imports_are_used(name):
    tree = ast.parse((Path(rplap.__file__).parent / f"{name}.py").read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = rplap if name == "__init__" else importlib.import_module(f"rplap.{name}")
    used.update(getattr(module, "__all__", ()))
    unused = sorted(n for n in imported - used if (name, n) not in UNUSED_IMPORTS_ALLOWED)
    assert unused == []
