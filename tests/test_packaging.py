import ast
import importlib
import pathlib

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

# Public names that no code reaches yet, each kept for the ROADMAP direction
# that brings its caller.
UNREACHED_ALLOWED = {
    "forward_prefix": "direction 4: per-layer sensitivity from a cached prefix",
    "forward_from": "direction 4: per-layer sensitivity from a cached prefix",
}


def test_console_scripts_resolve():
    # every declared console script must name an importable callable
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def _names(nodes, skip=None) -> set[str]:
    """Every identifier the nodes' code refers to or imports, outside ``skip``."""
    out = set()
    stack = list(nodes)
    while stack:
        sub = stack.pop()
        if sub is skip:
            continue
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(sub))
    return out


def _public_definitions(tree):
    """(name, node) of each public module-level function and class, and of
    each public method and property of a module-level class as Class.name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_every_public_definition_is_reached():
    # a public function, class, method or property must be used by its own
    # module (outside its definition), named by another src/taq module or by
    # bench/
    modules = {p: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "taq").glob("*.py"))}
    bench = _names(ast.parse(p.read_text()) for p in (ROOT / "bench").glob("*.py"))
    unreached = []
    for path, tree in modules.items():
        elsewhere = bench.union(*(_names([t]) for p, t in modules.items() if p != path))
        for name, node in _public_definitions(tree):
            if name in UNREACHED_ALLOWED:
                continue
            if node.name not in _names([tree], skip=node) | elsewhere:
                unreached.append(f"{path.name}:{name}")
    assert not unreached, f"public definitions nothing reaches: {unreached}"


def _error_classes() -> set[str]:
    errors = ast.parse((ROOT / "src" / "taq" / "errors.py").read_text())
    return {node.name for node in errors.body if isinstance(node, ast.ClassDef)}


def test_one_error_class_per_exit_code():
    # InvalidInput exits 2, BudgetInfeasible 3, ConvergenceError 4, and any
    # other exception 1; the message tells one refused input from another
    assert _error_classes() == {"TaqError", "InvalidInput", "BudgetInfeasible",
                                "ConvergenceError"}


def test_errors_go_through_errors_module():
    # every raise names a class defined in errors.py, and only errors.py
    # catches TypeError or ValueError: it alone turns numpy's refusals into
    # TaqErrors
    src = ROOT / "src" / "taq"
    classes = _error_classes()
    broad = {"TypeError", "ValueError", "Exception", "BaseException"}
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if not (isinstance(exc, ast.Name) and exc.id in classes):
                    found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            elif isinstance(node, ast.ExceptHandler) and path.name != "errors.py":
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if any(c is None or _names([c]) & broad for c in caught):
                    found.append(f"{path.name}:{node.lineno} catches "
                                 f"{ast.unparse(node.type) if node.type else 'everything'}")
    assert not found, found


def _openblas_threads() -> int | None:
    """The thread count the loaded OpenBLAS reports, asked as ``bench/run.py``'s
    ``blas_info`` asks it; None when no OpenBLAS is loaded or it cannot be asked."""
    import ctypes

    import numpy  # noqa: F401  loads the BLAS

    try:
        with open("/proc/self/maps") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if (fn := getattr(lib, sym, None)) is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def test_blas_pinned_to_one_thread():
    # conftest.py sets the pin; it takes only if numpy was not imported first
    if (threads := _openblas_threads()) is None:
        pytest.skip("no OpenBLAS loaded, or it reports no thread count")
    assert threads == 1
