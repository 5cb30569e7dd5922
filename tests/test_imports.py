"""Every top-level import in the package is used or re-exported, every
definition is read, and every exported exception is raised somewhere.
No subcommand loads scipy, which is a test dependency only.

No linter ships with the toolkit, so these AST scans keep dead names
from creeping back: a name bound by a module-level import must be read
somewhere in the module or be listed in its ``__all__``; a function,
class, method or annotated class field must be read somewhere in the
package or be listed in an ``__all__``; and an exception class in
``mtcrit.__all__`` must appear in a ``raise``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mtcrit

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


def _definitions(tree: ast.Module) -> list:
    """(name, line) of every function, class, method and annotated class
    field, dunders excepted."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            out.extend((item.target.id, item.lineno) for item in node.body
                       if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name))
    return [(name, line) for name, line in out
            if not (name.startswith("__") and name.endswith("__"))]


def _read_names(tree: ast.Module) -> set:
    """Names read as a variable or an attribute, or passed as a keyword."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            out.add(node.arg)
    return out


def _unread(trees: dict) -> list:
    read = set().union(*(_read_names(t) | _exported(t) for t in trees.values()))
    return [f"{mod}:{line} {name}" for mod, line, name in sorted(
        (mod, line, name) for mod, tree in trees.items()
        for name, line in _definitions(tree) if name not in read)]


def test_every_definition_is_read():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    unread = _unread(trees)
    assert not unread, f"defined but never read: {unread}"


def test_definition_scan_catches_an_unread_name():
    tree = ast.parse(
        "__all__ = ['api']\n"
        "def api(): return helper()\n"
        "def helper(): return Box(size=1).width\n"
        "def dead(): pass\n"
        "class Box:\n"
        "    size: int\n"
        "    width: int = 0\n"
        "    depth: int = 0\n"
        "    def __init__(self, size): self.size = size\n"
        "    def unused(self): pass\n")
    assert _unread({"m.py": tree}) == ["m.py:4 dead", "m.py:8 depth", "m.py:10 unused"]


def _raised_names(tree: ast.Module) -> set:
    """Names of the exceptions in `raise X`, `raise X(...)`, `raise m.X(...)`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                out.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                out.add(exc.attr)
    return out


def test_every_exported_exception_is_raised():
    raised = set().union(*(_raised_names(ast.parse(p.read_text(), filename=str(p)))
                           for p in MODULES))
    exported = [name for name in mtcrit.__all__
                if isinstance(getattr(mtcrit, name), type)
                and issubclass(getattr(mtcrit, name), BaseException)]
    assert exported
    never = sorted(set(exported) - raised)
    assert not never, f"exported but never raised: {never}"


def test_raise_scan_reads_every_form():
    tree = ast.parse("raise A\nraise B('x')\nraise m.C('y') from None\n"
                     "try:\n    pass\nexcept D:\n    raise\n")
    assert _raised_names(tree) == {"A", "B", "C"}


# -- scipy stays out of the runtime -------------------------------------------


def _cli(cmd: str, config: dict) -> str:
    """Code that runs `mtcrit cmd` on config, writing into the directory
    given as the first argument."""
    return ("import json, os, sys\n"
            "from mtcrit.cli import main\n"
            "out = sys.argv[1]\n"
            "cfg = os.path.join(out, 'cfg.json')\n"
            "with open(cfg, 'w') as fh:\n"
            f"    json.dump({config!r}, fh)\n"
            f"assert main([{cmd!r}, '--config', cfg, '--out', out]) in (0, 2)\n")


# perfbench/op.py's rectangle operation: the public API, not the CLI
_RECTANGLE = """
import mtcrit.cli
from mtcrit import criterion, domain
from mtcrit.perturbation import PerturbationFamily, asymptotic_data
dom = domain.DomainModel(shape="Rectangle", width=2.0, height=1.0)
fam = PerturbationFamily()
data = asymptotic_data(fam)
rep = domain.robin_report(dom, data.F)
criterion.closed_form_l(fam, rep.M, rep.S)
criterion.limit_l(data, rep.M, rep.S)
domain.lambda1(dom)
"""

RUNTIME_PATHS = {
    "import": "import mtcrit.cli\n",
    "criterion": _cli("criterion", {}),
    "profiles": _cli("profiles", {"r_max": 1000}),
    "bubble": _cli("bubble", {}),
    "extremal": _cli("extremal", {"alpha_ladder": [0.9]}),
    "verify": _cli("verify", {}),
    "rectangle": _RECTANGLE,
}


def _scipy_modules_after(code: str, out_dir) -> list:
    """Run code in a fresh interpreter; the scipy modules it left loaded."""
    probe = code + "\nimport sys\nprint(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))\n"
    proc = subprocess.run([sys.executable, "-c", probe, str(out_dir)],
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", RUNTIME_PATHS)
def test_runtime_loads_no_scipy(tmp_path, name):
    assert _scipy_modules_after(RUNTIME_PATHS[name], tmp_path) == []


def test_scipy_probe_sees_scipy(tmp_path):
    assert "scipy.special" in _scipy_modules_after("import scipy.special\n", tmp_path)


# -- packaging ------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::UserWarning")  # setuptools' "beta" notice
def test_distribution_is_mtcrit_at_the_package_version():
    # pyproject.toml names the distribution and reads its version from
    # mtcrit.__version__, so the two cannot drift; read_configuration parses
    # the file offline, without building anything
    from setuptools.config.pyprojecttoml import read_configuration

    project = read_configuration(SRC.parents[1] / "pyproject.toml")["project"]
    assert (project["name"], project["version"]) == ("mtcrit", mtcrit.__version__)
