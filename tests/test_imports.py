"""Every top-level import in the package is used or re-exported, every
definition is read, and every exported exception is raised somewhere.
No subcommand loads scipy, which is a test dependency only, nor numpy.ma,
and only mtcrit.numerics imports the Gauss-Legendre nodes; no module calls
a trapezoid rule or linear interpolation.  Every kernel and constant that
mtcrit.numerics exports is imported by another module.

No linter ships with the toolkit, so these AST scans keep dead names
from creeping back: a name bound by a module-level import must be read
somewhere in the module or be listed in its ``__all__``; a function,
class, method or annotated class field must be read somewhere in the
package (passing it as a keyword argument is no read) or be listed in
an ``__all__``; and an exception class in
``mtcrit.__all__`` must appear in a ``raise``.  Every key of
``cli.CONFIG_KEYS`` must be read by some subcommand, so that a key that
configures nothing cannot come back.  The lumped weights and the start
profile of the radial ascent are read inside ``_ascend`` alone, so that
its callers pass an integrand and never discretise it themselves.
"""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mtcrit
from mtcrit import cli, numerics

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


def test_leggauss_is_imported_by_numerics_alone():
    # every quadrature takes its nodes from numerics.gauss_legendre
    importers = sorted(path.name for path in MODULES
                       if "leggauss" in _imported_names(ast.parse(path.read_text())))
    assert importers == ["numerics.py"]


def _unimported(exports, trees: dict) -> list:
    """The names of `exports` that no module in `trees` imports."""
    imported = set().union(*(_imported_names(t) for t in trees.values()))
    return sorted(set(exports) - imported)


def test_every_numerics_kernel_has_a_caller():
    # a kernel or constant that no other module imports is kept for its
    # tests alone; the result dataclasses come with the kernels that return
    # them
    trees = {p.name: ast.parse(p.read_text()) for p in MODULES if p.name != "numerics.py"}
    kernels = [name for name in numerics.__all__
               if not dataclasses.is_dataclass(getattr(numerics, name))]
    unimported = _unimported(kernels, trees)
    assert not unimported, f"numerics exports that no module imports: {unimported}"


def test_numerics_caller_scan_catches_an_unimported_kernel():
    trees = {"a.py": ast.parse("from .numerics import minimize\nimport numpy as np\n"),
             "b.py": ast.parse("from .numerics import CHUNK, minimize\n")}
    assert _unimported(["CHUNK", "minimize", "np", "solve_ivp"], trees) == ["solve_ivp"]


_NOT_GAUSS_LEGENDRE = {"trapezoid", "trapz", "interp"}


def _trapezoid_calls(tree: ast.Module) -> list:
    """(line, name) of each call of np.trapezoid, np.trapz or np.interp, on
    `np` or `numpy` or as a bare name."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                and f.value.id in ("np", "numpy"):
            name = f.attr
        else:
            name = f.id if isinstance(f, ast.Name) else None
        if name in _NOT_GAUSS_LEGENDRE:
            out.append((node.lineno, name))
    return out


def test_no_trapezoid_or_linear_interpolation():
    # quadratures take their nodes from numerics.gauss_legendre and tables
    # are read back through numerics.CubicHermite
    calls = [f"{p.name}:{line} {name}" for p in MODULES
             for line, name in _trapezoid_calls(ast.parse(p.read_text(), filename=str(p)))]
    assert not calls, f"trapezoid or linear interpolation called: {calls}"


def test_trapezoid_scan_catches_each_form():
    tree = ast.parse("import numpy as np\nimport numpy\nfrom numpy import interp\n"
                     "a = np.trapezoid(y, x)\nb = numpy.trapz(y)\nc = interp(x, xp, fp)\n"
                     "d = np.interp\ne = table.interp(x)\nf = gauss_legendre(edges, 8)\n")
    assert _trapezoid_calls(tree) == [(4, "trapezoid"), (5, "trapz"), (6, "interp")]


def test_scan_catches_an_unused_import():
    tree = ast.parse("import json\nimport math\nfrom x import y as z\n"
                     "__all__ = ['z']\nprint(math.pi)\n")
    used = _used_names(tree) | _exported(tree)
    assert [n for n in _imported_names(tree) if n not in used] == ["json"]


def _read_outside(tree: ast.Module, names: set, owner: str) -> list:
    """(line, name) of each read of `names`, as a variable or an attribute,
    outside the body of every function called `owner`."""
    out = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name == owner
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else None)
        if name in names and isinstance(node.ctx, ast.Load) and not inside:
            out.append((node.lineno, name))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return sorted(out)


_ASCENT_OWNED = {"_load_weights", "_start"}


def test_only_the_ascent_discretises():
    outside = [f"{p.name}:{line} {name}" for p in MODULES
               for line, name in _read_outside(ast.parse(p.read_text(), filename=str(p)),
                                               _ASCENT_OWNED, "_ascend")]
    assert not outside, f"read outside _ascend: {outside}"


def test_ascent_scan_catches_a_caller():
    tree = ast.parse(
        "def _ascend(f, r): return f(_load_weights(r), _start(r))\n"
        "def solve(r):\n"
        "    w = _load_weights(r)\n"
        "    def inner(): return m._start(r)\n"
        "    return _ascend(lambda u: u, r), inner, w\n")
    assert _read_outside(tree, _ASCENT_OWNED, "_ascend") == [(3, "_load_weights"),
                                                             (4, "_start")]


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
    """Names read as a variable or an attribute.  A keyword argument is no
    read: a field that is only passed to its constructor is dead."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
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
        "def helper(): return Box(size=1, rho=2).width\n"
        "def dead(): pass\n"
        "class Box:\n"
        "    size: int\n"
        "    width: int = 0\n"
        "    depth: int = 0\n"
        "    rho: int = 0\n"
        "    def __init__(self, size, **fields): self.size = size\n"
        "    def unused(self): pass\n")
    assert _unread({"m.py": tree}) == ["m.py:4 dead", "m.py:8 depth", "m.py:9 rho",
                                       "m.py:11 unused"]


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


def _config_keys_read(tree: ast.Module) -> set:
    """The config keys that the module's cmd_* functions read, directly or
    through the module functions they call: the string in `cfg.get("k")` or
    `cfg["k"]`, and the string passed as the `key` parameter of a function
    that also takes `cfg`."""
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    params = {name: [a.arg for a in fn.args.args] for name, fn in funcs.items()}
    keys, seen = set(), set()
    todo = [name for name in funcs if name.startswith("cmd_")]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(funcs[name]):
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) \
                    and node.value.id == "cfg":
                arg = node.slice
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "cfg" \
                    and node.func.attr == "get" and node.args:
                arg = node.args[0]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in funcs:
                todo.append(node.func.id)
                callee = params[node.func.id]
                if "cfg" not in callee or "key" not in callee:
                    continue
                k = callee.index("key")
                arg = node.args[k] if k < len(node.args) else next(
                    (kw.value for kw in node.keywords if kw.arg == "key"), None)
            else:
                continue
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                keys.add(arg.value)
    return keys


def test_every_config_key_is_read_by_a_subcommand():
    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    unread = sorted(cli.CONFIG_KEYS - _config_keys_read(tree))
    assert not unread, f"config keys no subcommand reads: {unread}"


def test_config_key_scan_catches_an_unread_key():
    tree = ast.parse(
        "def _number(cfg, key, default): return cfg.get(key, default)\n"
        "def _domain(cfg, command): return cfg.get('domain', command)\n"
        "def _dead(cfg): return cfg['orphan']\n"
        "def cmd_a(cfg, args): return _number(cfg, 'r_max', 1.0), _domain(cfg, 'a')\n"
        "def cmd_b(cfg, args): return cfg['family'], _number(cfg, key='eps0')\n")
    assert _config_keys_read(tree) == {"r_max", "domain", "family", "eps0"}


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


def _modules_after(code: str, out_dir) -> list:
    """Run code in a fresh interpreter; the modules it left loaded."""
    probe = code + "\nimport sys\nprint(sorted(sys.modules))\n"
    proc = subprocess.run([sys.executable, "-c", probe, str(out_dir)],
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def _within(modules: list, package: str) -> list:
    return [m for m in modules if m == package or m.startswith(package + ".")]


@pytest.fixture(scope="module")
def runtime_modules(tmp_path_factory):
    """name -> the modules that RUNTIME_PATHS[name] left loaded, each path
    run once for every test that reads it."""
    seen = {}

    def modules(name):
        if name not in seen:
            seen[name] = _modules_after(RUNTIME_PATHS[name], tmp_path_factory.mktemp(name))
        return seen[name]

    return modules


@pytest.mark.parametrize("name", RUNTIME_PATHS)
def test_runtime_loads_no_scipy(runtime_modules, name):
    assert _within(runtime_modules(name), "scipy") == []


@pytest.mark.parametrize("name", RUNTIME_PATHS)
def test_runtime_loads_no_numpy_ma(runtime_modules, name):
    # np.unique imports numpy.ma; the profile grids are built sorted
    assert _within(runtime_modules(name), "numpy.ma") == []


def test_scipy_probe_sees_scipy(tmp_path):
    assert "scipy.special" in _within(_modules_after("import scipy.special\n", tmp_path), "scipy")


def test_numpy_ma_probe_sees_numpy_ma(tmp_path):
    assert "numpy.ma" in _within(_modules_after("import numpy.ma\n", tmp_path), "numpy.ma")


# -- packaging ------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::UserWarning")  # setuptools' "beta" notice
def test_distribution_is_mtcrit_at_the_package_version():
    # pyproject.toml names the distribution and reads its version from
    # mtcrit.__version__, so the two cannot drift; read_configuration parses
    # the file offline, without building anything
    from setuptools.config.pyprojecttoml import read_configuration

    project = read_configuration(SRC.parents[1] / "pyproject.toml")["project"]
    assert (project["name"], project["version"]) == ("mtcrit", mtcrit.__version__)
