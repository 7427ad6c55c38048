import ast
import importlib
import importlib.util
from pathlib import Path
import pkgutil

import pytest

import rplap
from rplap import cli

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


def _is_row_vector(node):
    """node is indexed [..., None, :]: a stack of 1 x m rows."""
    if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)):
        return False
    return [ast.unparse(e) for e in node.slice.elts[-2:]] == ["None", ":"]


def _slow_row_reductions(source):
    """Calls in source that reduce the coordinate axis with a ufunc reduction:
    np.sum / .sum over axis -1, and np.linalg.norm; and batched row-vector
    matmuls a[..., None, :] @ b, one 1 x m by m x k product per row."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            if _is_row_vector(node.left):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
            continue
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
    # A ufunc reduction over a 3- to 9-long coordinate axis, or a batch of
    # 1 x m row-vector matmuls, costs many times the products it sums; the
    # hot kernels contract through sphere_geom._dot.
    source = (Path(rplap.__file__).parent / f"{name}.py").read_text()
    assert _slow_row_reductions(source) == []


def test_slow_row_reduction_scan_finds_each_form():
    source = "\n".join([
        "a = np.sum(y * y, axis=-1)",
        "b = np.sum(y * y, -1, keepdims=True)",
        "c = (y * y).sum(axis=-1)",
        "d = np.linalg.norm(y, axis=1)",
        "e = np.sum(y, axis=0)",
        "f = (x + y)[..., None, :] @ v",
        "g = v @ x[..., None]",
        "h = x[..., None, :] * v",
    ])
    assert [hit.split(":")[0] for hit in _slow_row_reductions(source)] == [
        "line 1", "line 2", "line 3", "line 4", "line 6",
    ]


def _report_path_breaches(source):
    """Lines in source where a `cmd_*` function writes a "command" key or
    returns an int exit code; `main` owns both."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not (isinstance(func, ast.FunctionDef) and func.name.startswith("cmd_")):
            continue
        for node in ast.walk(func):
            keys = node.keys if isinstance(node, ast.Dict) else []
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                keys = [node.slice]
            if any(isinstance(k, ast.Constant) and k.value == "command" for k in keys):
                found.append((node.lineno, f"{func.name} writes the command key"))
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple):
                first = node.value.elts[0]
                codes = [first.body, first.orelse] if isinstance(first, ast.IfExp) else [first]
                if any(isinstance(c, ast.Constant) and type(c.value) is int for c in codes):
                    found.append((node.lineno, f"{func.name} returns an exit code"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_commands_leave_the_report_path_to_main():
    source = (Path(rplap.__file__).parent / "cli.py").read_text()
    assert _report_path_breaches(source) == []


def test_report_path_scan_finds_each_form():
    source = "\n".join([
        "def cmd_a(args):",
        "    payload = {'command': 'a'}",
        "    return 0, payload, []",
        "def cmd_b(args):",
        "    payload['command'] = 'b'",
        "    return (0 if ok else 1), payload, []",
        "def cmd_c(args):",
        "    return ok, {'rows': []}, []",
        "def main(argv=None):",
        "    return 0 if ok else 1, {'command': 'x'}",
    ])
    assert [hit.split(":")[0] for hit in _report_path_breaches(source)] == [
        "line 2", "line 3", "line 5", "line 6",
    ]


def test_surface_and_method_names_are_written_once():
    # each --surface and --method name lives in one table, which both the
    # parser and its command read
    tree = ast.parse((Path(rplap.__file__).parent / "cli.py").read_text())
    literals = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)]
    names = [*cli.FOLD_SURFACES, *cli.MOEBIUS_SURFACES, *cli.DEGREE_METHODS]
    assert len(names) == 9
    assert {name: literals.count(name) for name in names} == dict.fromkeys(names, 1)


def test_perfbench_traced_layers_resolve():
    # the traced benchmark run wraps each (owner, attribute) in LAYERS by
    # name, so deleting or renaming one breaks only `--trace` runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [name for name, owner, attr, *_ in layers.LAYERS if not hasattr(owner, attr)]
    assert missing == []
