import ast
import importlib
import importlib.util
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


def _slow_row_reductions(source):
    """Calls in source that reduce the coordinate axis with a ufunc reduction:
    np.sum / .sum over axis -1, and np.linalg.norm."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = ast.unparse(node.func)
        axes = [kw.value for kw in node.keywords if kw.arg == "axis"]
        if func == "np.sum":
            axes += node.args[1:2]
        last_axis = any(ast.unparse(axis) == "-1" for axis in axes)
        if func.endswith("linalg.norm") or (func.split(".")[-1] == "sum" and last_axis):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("name", ["sphere_geom", "veronese"])
def test_kernel_row_dot_products_are_contracted(name):
    # A ufunc reduction over a 3- to 9-long coordinate axis costs many times
    # the products it sums; the hot kernels contract through sphere_geom._dot.
    source = (Path(rplap.__file__).parent / f"{name}.py").read_text()
    assert _slow_row_reductions(source) == []


def test_slow_row_reduction_scan_finds_each_form():
    source = "\n".join([
        "a = np.sum(y * y, axis=-1)",
        "b = np.sum(y * y, -1, keepdims=True)",
        "c = (y * y).sum(axis=-1)",
        "d = np.linalg.norm(y, axis=1)",
        "e = np.sum(y, axis=0)",
    ])
    assert [hit.split(":")[0] for hit in _slow_row_reductions(source)] == [
        "line 1", "line 2", "line 3", "line 4",
    ]


def test_perfbench_traced_layers_resolve():
    # the traced benchmark run wraps each (owner, attribute) in LAYERS by
    # name, so deleting or renaming one breaks only `--trace` runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [name for name, owner, attr, *_ in layers.LAYERS if not hasattr(owner, attr)]
    assert missing == []
