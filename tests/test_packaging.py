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
    "IoError": "direction 2: the .npz checkpoint",
}


def test_console_scripts_resolve():
    # every declared console script must name an importable callable
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def _names(nodes) -> set[str]:
    """Every identifier the nodes' code refers to or imports."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, ast.alias):
                out.add(sub.name.rpartition(".")[2])
    return out


def test_every_public_definition_is_reached():
    # a module-level public function or class must be used by its own module
    # (outside its definition), named by another src/taq module or by bench/
    modules = {p: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "taq").glob("*.py"))}
    bench = _names(ast.parse(p.read_text()) for p in (ROOT / "bench").glob("*.py"))
    unreached = []
    for path, tree in modules.items():
        elsewhere = bench.union(*(_names([t]) for p, t in modules.items() if p != path))
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or node.name in UNREACHED_ALLOWED):
                continue
            own = _names(n for n in tree.body if n is not node)
            if node.name not in own | elsewhere:
                unreached.append(f"{path.name}:{node.name}")
    assert not unreached, f"public definitions nothing reaches: {unreached}"
