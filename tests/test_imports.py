"""Every top-level import in the package is used or re-exported.

No linter ships with the toolkit, so this AST scan keeps unused imports
from creeping back: a name bound by a module-level import must be read
somewhere in the module or be listed in its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mtcrit"
MODULES = sorted(SRC.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict:
    """Names bound by top-level imports -> line number."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _used_names(tree: ast.Module) -> set:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "variational.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree) | _exported(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported_names(tree).items() if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


def test_scan_catches_an_unused_import():
    tree = ast.parse("import json\nimport math\nfrom x import y as z\n"
                     "__all__ = ['z']\nprint(math.pi)\n")
    used = _used_names(tree) | _exported(tree)
    assert [n for n in _imported_names(tree) if n not in used] == ["json"]
