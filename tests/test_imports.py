"""Every top-level import in the package is used or re-exported, every
definition is read, and every exported exception is raised somewhere.
No subcommand loads scipy, which is a test dependency only, nor numpy.ma,
numpy.polynomial, argparse, OpenSSL, dataclasses or copy, and config_hash
is hashlib's SHA-256 without it; no module uses numpy.polynomial or any
np.linalg function but norm, and the Gauss-Legendre orders the modules ask for are
exactly those that mtcrit.numerics tabulates; no module calls a trapezoid rule, linear
interpolation or the builtin sum, and only csvout.write_csv and
cli._write_report open a file for writing, and cli.main alone calls
them.  No module but mtcrit.domain
and the package's re-export names Shape.  Every kernel
and constant that mtcrit.numerics exports is imported by another module.
No module compiles with a larger memory peak than the largest module had
before the ODE integrator moved from mtcrit.numerics to mtcrit.ode.  No
subcommand of mtcrit.cli raises ConfigError or compares a value with a
number constant: each numerical condition is the check of the API function
that needs it; every subcommand's compute step is a cmd_* function, so the
scans read them all.

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
its callers pass an integrand and never discretise it themselves, and
neither ``_ascend`` nor any module function it reaches uses ``@``,
``linalg``, ``stack`` or ``lstsq``; nor does any line of
``mtcrit.profiles``, which also uses no ``polynomial``, ``matmul`` or
``dot``.
"""

import ast
import json
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


def _polynomial_uses(tree: ast.Module) -> list:
    """(line, what) of each import of numpy.polynomial or leggauss and each
    attribute named polynomial or leggauss."""
    return [(line, what) for line, what in _dense_forms(tree, {"polynomial", "leggauss"})
            if what != "@"]


def test_no_module_uses_numpy_polynomial():
    # the Gauss-Legendre rules are literals in numerics: leggauss computed
    # them by LAPACK's eigvalsh, and importing numpy.polynomial took about
    # 4 ms of `import mtcrit.cli`
    uses = [f"{p.name}:{line} {what}" for p in MODULES
            for line, what in _polynomial_uses(ast.parse(p.read_text(), filename=str(p)))]
    assert not uses, f"numpy.polynomial used: {uses}"


def test_polynomial_scan_catches_each_form():
    tree = ast.parse("import numpy as np\n"
                     "from numpy.polynomial.legendre import leggauss\n"
                     "import numpy.polynomial\n"
                     "x = np.polynomial.legendre.leggauss(4)\n"
                     "y = a @ b\n")
    assert sorted(_polynomial_uses(tree)) == [
        (2, "leggauss"), (2, "polynomial"), (3, "polynomial"), (4, "leggauss"),
        (4, "polynomial")]


def _linalg_uses(tree: ast.Module) -> list:
    """Lines of each `.linalg` but the one in `np.linalg.norm`, and of each
    import of linalg."""
    norms = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "norm"}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg" and id(node) not in norms:
            out.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "linalg" in name.split(".")
                for name in [a.name for a in node.names] + [getattr(node, "module", "") or ""]):
            out.append(node.lineno)
    return sorted(out)


def test_no_linalg_but_norm():
    # no LAPACK call on the run-time path: the blend's 3x3 system is solved
    # by its exact inverse and the Gauss-Legendre rules are literals.  The
    # Euler-Lagrange residual's np.linalg.norm of a vector calls no LAPACK.
    uses = [f"{p.name}:{line}" for p in MODULES
            for line in _linalg_uses(ast.parse(p.read_text(), filename=str(p)))]
    assert not uses, f"np.linalg used beyond norm: {uses}"


def test_linalg_scan_catches_each_form():
    tree = ast.parse("import numpy as np\n"
                     "from numpy import linalg\n"
                     "import numpy.linalg as la\n"
                     "a = np.linalg.norm(x) / np.linalg.norm(y)\n"
                     "b = np.linalg.norm(x) + np.linalg.solve(A, r)\n"
                     "c = np.linalg\n"
                     "d = numpy.linalg.eigvalsh(m)\n")
    assert _linalg_uses(tree) == [2, 3, 5, 6, 7]


_RULE_CALLS = {"gauss_legendre": 1, "_legendre_rule": 0}  # name -> position of `order`


def _rule_orders(tree: ast.Module) -> list:
    """(line, order) of each call of gauss_legendre or _legendre_rule: an
    int literal, or a module-level constant bound to one; None for any
    other argument."""
    constants = {t.id: node.value.value for node in tree.body
                 if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                 for t in node.targets if isinstance(t, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        if name not in _RULE_CALLS:
            continue
        k = _RULE_CALLS[name]
        arg = node.args[k] if k < len(node.args) else next(
            (kw.value for kw in node.keywords if kw.arg == "order"), None)
        value = (arg.value if isinstance(arg, ast.Constant) else
                 constants.get(arg.id) if isinstance(arg, ast.Name) else None)
        out.append((node.lineno, value if type(value) is int else None))
    return out


def test_every_gauss_legendre_order_is_tabulated():
    # numerics refuses an order it holds no literals for; this finds such an
    # order before a run does.  numerics itself only passes `order` on.
    orders = {f"{p.name}:{line}": order for p in MODULES if p.name != "numerics.py"
              for line, order in _rule_orders(ast.parse(p.read_text(), filename=str(p)))}
    untabulated = {at: order for at, order in orders.items()
                   if order not in numerics._HALF_RULES}
    assert not untabulated, f"orders with no tabulated rule: {untabulated}"
    # and every tabulated rule is one that a module asks for
    assert set(orders.values()) == set(numerics._HALF_RULES)


def test_rule_order_scan_reads_each_form():
    tree = ast.parse("from .numerics import _legendre_rule, gauss_legendre\n"
                     "from . import numerics\n"
                     "_N_R = 48\n"
                     "_NAME = 'x'\n"
                     "a = gauss_legendre(edges, _N_R)\n"
                     "b = numerics.gauss_legendre(edges, order=7)\n"
                     "c = _legendre_rule(12)\n"
                     "def f(n):\n"
                     "    return gauss_legendre(edges, n), _legendre_rule(_NAME)\n")
    assert _rule_orders(tree) == [(5, 48), (6, 7), (7, 12), (9, None), (9, None)]


def _unimported(exports, trees: dict) -> list:
    """The names of `exports` that no module in `trees` imports."""
    imported = set().union(*(_imported_names(t) for t in trees.values()))
    return sorted(set(exports) - imported)


def test_every_numerics_kernel_has_a_caller():
    # a kernel or constant that no other module imports is kept for its
    # tests alone; the result classes come with the kernels that return them
    trees = {p.name: ast.parse(p.read_text()) for p in MODULES if p.name != "numerics.py"}
    kernels = [name for name in numerics.__all__
               if not isinstance(getattr(numerics, name), type)]
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
    # quadratures take their nodes from numerics.gauss_legendre, and nothing
    # is read back from a table: the profiles are Legendre series on their
    # panels and model_testfun_energy sums q' at the nodes of its own rule.
    # The one exception is a rectangle's S in domain, an exp-sinh sum formed
    # in place: its integrand has a log singularity at 0 and an infinite range
    calls = [f"{p.name}:{line} {name}" for p in MODULES
             for line, name in _trapezoid_calls(ast.parse(p.read_text(), filename=str(p)))]
    assert not calls, f"trapezoid or linear interpolation called: {calls}"


def test_trapezoid_scan_catches_each_form():
    tree = ast.parse("import numpy as np\nimport numpy\nfrom numpy import interp\n"
                     "a = np.trapezoid(y, x)\nb = numpy.trapz(y)\nc = interp(x, xp, fp)\n"
                     "d = np.interp\ne = table.interp(x)\nf = gauss_legendre(edges, 8)\n")
    assert _trapezoid_calls(tree) == [(4, "trapezoid"), (5, "trapz"), (6, "interp")]


def _builtin_sum_calls(tree: ast.Module) -> list:
    """Lines of each call of the builtin sum, by its bare name or as
    builtins.sum; np.sum and a method named sum are other functions."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Name) and f.id == "sum") or (
                isinstance(f, ast.Attribute) and f.attr == "sum"
                and isinstance(f.value, ast.Name) and f.value.id == "builtins"):
            out.append(node.lineno)
    return out


def test_no_builtin_sum():
    # from Python 3.12 on the builtin sum compensates float additions, so a
    # result would depend on the interpreter; float sums go through
    # numerics.left_sum, added left to right on every version
    calls = [f"{p.name}:{line}" for p in MODULES
             for line in _builtin_sum_calls(ast.parse(p.read_text(), filename=str(p)))]
    assert not calls, f"builtin sum called: {calls}"


def test_sum_scan_catches_each_form():
    tree = ast.parse("import builtins\nimport numpy as np\n"
                     "a = sum(x)\nb = builtins.sum(x, 0.0)\nc = np.sum(x)\n"
                     "d = arr.sum()\ne = left_sum(x)\nf = sum\n")
    assert _builtin_sum_calls(tree) == [3, 4]


def _writing_opens(tree: ast.Module) -> list:
    """(line, enclosing function) of each call of open, bare or as io.open or
    builtins.open, whose mode writes: a mode holding w, a, x or +, or one
    that is not a string literal.  The function is None at module level."""
    out = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "open") or (
                    isinstance(f, ast.Attribute) and f.attr == "open"
                    and isinstance(f.value, ast.Name) and f.value.id in ("io", "builtins")):
                mode = node.args[1] if len(node.args) > 1 else next(
                    (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                        and not set(mode.value) & set("wax+")):
                    out.append((node.lineno, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return out


# the CSV writer and the JSON report writer are the only places a file is written
_WRITERS = {("csvout.py", "write_csv"), ("cli.py", "_write_report")}


def test_files_are_written_by_the_two_writers_alone():
    opens = [f"{p.name}:{line} {owner}" for p in MODULES
             for line, owner in _writing_opens(ast.parse(p.read_text(), filename=str(p)))
             if (p.name, owner) not in _WRITERS]
    assert not opens, f"a file opened for writing outside the two writers: {opens}"


def test_open_scan_catches_each_writing_mode():
    tree = ast.parse("import io\n"
                     "def write_csv(p):\n    open(p, 'w')\n"
                     "def load(p):\n    open(p)\n    open(p, 'rb')\n    open(p, mode='r')\n"
                     "def leak(p, m):\n    open(p, 'w')\n    open(p, mode='a')\n"
                     "    io.open(p, 'r+')\n    open(p, m)\n    path.open('w')\n"
                     "open('log', 'x')\n")
    assert _writing_opens(tree) == [(3, "write_csv"), (9, "leak"), (10, "leak"),
                                    (11, "leak"), (12, "leak"), (14, None)]


def _writer_calls(tree: ast.Module) -> list:
    """(enclosing function, name) of each call of write_csv or _write_report,
    bare or as an attribute; the function is None at module level."""
    out = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in ("write_csv", "_write_report"):
                out.append((owner, name))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return out


def test_main_alone_calls_the_writers():
    # each cmd_* computes and returns its outputs; cli.main writes them, once
    # the compute step has returned
    calls = sorted((p.name, owner, name) for p in MODULES
                   for owner, name in _writer_calls(ast.parse(p.read_text(), filename=str(p))))
    assert calls == [("cli.py", "main", "_write_report"), ("cli.py", "main", "write_csv")]


def test_writer_call_scan_catches_each_form():
    tree = ast.parse("def main(o):\n    _write_report(o)\n    csvout.write_csv(o)\n"
                     "def cmd_a(o):\n    return [write_csv(o)]\n"
                     "write_csv(1)\nwrite_csv\n")
    assert _writer_calls(tree) == [("main", "_write_report"), ("main", "write_csv"),
                                   ("cmd_a", "write_csv"), (None, "write_csv")]


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


def _shape_names(tree: ast.Module) -> list:
    """(line, form) of each name, attribute or import alias that names Shape."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "Shape":
            out.append((node.lineno, "name"))
        elif isinstance(node, ast.Attribute) and node.attr == "Shape":
            out.append((node.lineno, "attribute"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [(node.lineno, "import") for alias in node.names
                    if "Shape" in (alias.name.split(".")[-1], alias.asname)]
    return sorted(out)


_SHAPE_OWNERS = {"domain.py", "__init__.py"}


def test_only_domain_names_a_shape():
    # domain._disk_only is the one refusal of a domain other than the unit
    # disk, so no other module decides by a domain's shape
    names = [f"{p.name}:{line} {form}" for p in MODULES if p.name not in _SHAPE_OWNERS
             for line, form in _shape_names(ast.parse(p.read_text(), filename=str(p)))]
    assert not names, f"Shape named outside domain: {names}"


def test_shape_scan_catches_each_form():
    tree = ast.parse("from .domain import Shape\n"
                     "from .domain import DomainModel, Shape as S\n"
                     "import mtcrit.domain as d\n"
                     "a = d.Shape.RECTANGLE\n"
                     "b = dom.shape is Shape.UNIT_DISK\n"
                     "c = dom.shape is S.UNIT_DISK\n"
                     "from mtcrit.domain import DomainModel as Shape\n")
    assert _shape_names(tree) == [(1, "import"), (2, "import"), (4, "attribute"),
                                  (5, "name"), (7, "import")]
    assert _shape_names(ast.parse((SRC / "domain.py").read_text()))


def _reachable(tree: ast.Module, root: str) -> list:
    """The module-level functions that `root` calls by name, directly or
    through each other, `root` first."""
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    seen, todo = [], [root]
    while todo:
        name = todo.pop()
        if name in seen or name not in funcs:
            continue
        seen.append(name)
        todo.extend(sorted(_read_names(funcs[name]), reverse=True))
    return [funcs[name] for name in seen]


_NOT_IN_THE_ASCENT = {"linalg", "stack", "lstsq"}
# the profile solves and their evaluation: no dense linear algebra, and no
# polynomial basis beyond the Gauss-Legendre rule of numerics._legendre_rule
_NOT_IN_THE_PROFILES = _NOT_IN_THE_ASCENT | {"polynomial", "matmul", "dot"}


def _dense_forms(tree: ast.AST, names: set) -> list:
    """(line, what) of each `@`, each attribute in `names` and each import
    of a module or name in `names` anywhere in `tree`."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            out.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in names:
            out.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            parts = [] if not isinstance(node, ast.ImportFrom) else (node.module or "").split(".")
            parts += [p for alias in node.names for p in alias.name.split(".")]
            out += [(node.lineno, p) for p in parts if p in names]
    return out


def _dense_algebra(tree: ast.Module, root: str) -> list:
    """(function, line, what) of each `@` and each `.linalg`, `.stack` or
    `.lstsq` in `root` and the module functions it reaches."""
    return [(fn.name, line, what) for fn in _reachable(tree, root)
            for line, what in _dense_forms(fn, _NOT_IN_THE_ASCENT)]


def test_the_ascent_calls_no_dense_linear_algebra():
    # In a fresh process, after `import mtcrit.cli`, the first 2-D matmul
    # raises the peak resident memory by 0.27 MB and the first 3x3
    # np.linalg.solve by 0.31 MB more.  A form of the Anderson step built
    # on np.stack, @ and np.linalg.solve read 0.17 MB more peak RSS on
    # disk-verdict than the plain ascent in 6 of 6 benchmark pairs, one on
    # lstsq 0.6 MB more.  So its Gram entries are 1-D dots and its
    # system is solved on Python floats.
    tree = ast.parse((SRC / "variational.py").read_text(), filename="variational.py")
    assert {fn.name for fn in _reachable(tree, "_ascend")} >= {
        "_ascend", "_solve_small", "_project", "_energy", "solveh_banded"}
    assert _dense_algebra(tree, "_ascend") == []


def test_dense_algebra_scan_catches_each_form():
    tree = ast.parse(
        "import numpy as np\n"
        "def _ascend(a, b):\n    return helper(a) @ b, np.stack([a, b])\n"
        "def helper(a):\n    a @= a\n    return np.linalg.solve(a, a), deeper(a)\n"
        "def deeper(a):\n    return np.linalg.lstsq(a, a)\n"
        "def unreached(a):\n    return a @ a\n")
    assert sorted(_dense_algebra(tree, "_ascend")) == [
        ("_ascend", 3, "@"), ("_ascend", 3, "stack"), ("deeper", 8, "linalg"),
        ("deeper", 8, "lstsq"), ("helper", 5, "@"), ("helper", 6, "linalg")]


def test_the_profiles_call_no_dense_linear_algebra():
    # The panel coefficients come from discrete orthogonality, summed by
    # einsum: in a fresh process, after `import mtcrit.cli`, a first 2-D
    # matmul raises the peak resident memory by 256 KB and einsum by nothing.
    tree = ast.parse((SRC / "profiles.py").read_text(), filename="profiles.py")
    assert _dense_forms(tree, _NOT_IN_THE_PROFILES) == []


def test_profile_scan_catches_each_form():
    tree = ast.parse(
        "import numpy as np\n"
        "import numpy.polynomial.legendre as leg\n"
        "from numpy import linalg\n"
        "from numpy.polynomial import legendre\n"
        "class P:\n"
        "    def m(self, a):\n"
        "        return a @ a, np.dot(a, a), a.dot(a)\n"
        "def f(a):\n"
        "    a @= a\n"
        "    return np.linalg.solve(a, a), np.matmul(a, a), np.stack([a, a])\n"
        "def g(c, x):\n"
        "    return np.polynomial.legendre.legval(x, c), np.einsum('ij,j->i', c, x)\n")
    assert sorted(_dense_forms(tree, _NOT_IN_THE_PROFILES)) == [
        (2, "polynomial"), (3, "linalg"), (4, "polynomial"), (7, "@"), (7, "dot"), (7, "dot"),
        (9, "@"), (10, "linalg"), (10, "matmul"), (10, "stack"), (12, "polynomial")]


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


def _is_number_constant(node: ast.AST) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, (int, float, complex))
            and not isinstance(node.value, bool))


def _own_conditions(tree: ast.Module, prefix: str = "cmd_") -> list:
    """(function, line, form) of each `raise ConfigError` and each comparison
    with a number constant anywhere in its operands, in the module functions
    whose names start with `prefix`."""
    out = []
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith(prefix)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Raise) and "ConfigError" in _raised_names(node):
                out.append((fn.name, node.lineno, "raise ConfigError"))
            elif isinstance(node, ast.Compare) and any(
                    _is_number_constant(sub) for operand in (node.left, *node.comparators)
                    for sub in ast.walk(operand)):
                out.append((fn.name, node.lineno, "compare"))
    return sorted(out)


def test_subcommands_state_no_condition_of_their_own():
    # cli checks a config's JSON shape and names; each numerical condition is
    # the check of the API function that needs it, which a subcommand calls
    # through cli._checked, so no cmd_* refuses a value itself
    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    assert _own_conditions(tree) == []


def test_condition_scan_catches_each_form():
    tree = ast.parse("def cmd_a(cfg):\n"
                     "    if not 0.0 < a < 4.0 * math.pi: pass\n"
                     "    if g <= -1: raise ConfigError('x')\n"
                     "    raise cli.ConfigError\n"
                     "    ok = [x for x in v if 1e-6 >= x]\n"
                     "    return x is None, v == 'a', f is True, n == m, len(v)\n"
                     "def _helper(cfg):\n"
                     "    if n < 1: raise ConfigError('y')\n")
    assert _own_conditions(tree) == [("cmd_a", 2, "compare"), ("cmd_a", 3, "compare"),
                                     ("cmd_a", 3, "raise ConfigError"),
                                     ("cmd_a", 4, "raise ConfigError"),
                                     ("cmd_a", 5, "compare")]
    # cli's own shape checks raise ConfigError outside the subcommands
    cli_tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    assert ("_load_config", "raise ConfigError") in {
        (fn, form) for fn, _, form in _own_conditions(cli_tree, prefix="_")}


def test_the_scans_read_every_compute_step():
    # the condition and config-key scans read the cmd_* functions; every
    # subcommand's compute step is one, and a condition placed in any of them
    # is reported
    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    steps = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef)
             and fn.name.startswith("cmd_")]
    assert sorted(fn.name for fn in steps) == sorted(
        step.__name__ for step, _, _ in cli._COMMANDS.values())
    for fn in steps:
        fn.body[:0] = ast.parse("if cfg.get('N', 1) > 300:\n    raise ConfigError('N')\n").body
    assert {(fn, form) for fn, _, form in _own_conditions(tree)} == {
        (fn.name, form) for fn in steps for form in ("compare", "raise ConfigError")}


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


@pytest.mark.parametrize("name", RUNTIME_PATHS)
def test_runtime_loads_no_numpy_polynomial(runtime_modules, name):
    # the Gauss-Legendre rules are literals, with no leggauss behind them
    assert _within(runtime_modules(name), "numpy.polynomial") == []


@pytest.mark.parametrize("name", RUNTIME_PATHS)
def test_runtime_loads_no_argparse(runtime_modules, name):
    # the command line is parsed directly: argparse, and the gettext and
    # locale it loaded, took about 6 ms of every run
    assert {"argparse", "gettext", "locale"}.isdisjoint(runtime_modules(name))


def test_argparse_probe_sees_argparse(tmp_path):
    modules = _modules_after("import argparse\nargparse.ArgumentParser().parse_args([])\n",
                             tmp_path)
    assert {"argparse", "gettext", "locale"} <= set(modules)


@pytest.mark.parametrize("name", RUNTIME_PATHS)
def test_runtime_loads_no_openssl(runtime_modules, name):
    # cli._config_hash takes CPython's built-in SHA-256: hashlib loaded
    # OpenSSL's libcrypto through _hashlib, about 3.4 MB of every run's peak
    # memory, for one hash of about 100 bytes
    assert {"_hashlib", "ssl"}.isdisjoint(runtime_modules(name))


def test_openssl_probe_sees_hashlib(tmp_path):
    assert "_hashlib" in _modules_after("import hashlib\n", tmp_path)


@pytest.mark.parametrize("name", RUNTIME_PATHS)
def test_runtime_loads_no_dataclasses(runtime_modules, name):
    # the record classes write out their constructors: dataclasses generated
    # and compiled the methods of twelve classes at every import, 4 to 7 ms
    # of each process by the host's speed, and loaded copy with it
    assert {"dataclasses", "copy"}.isdisjoint(runtime_modules(name))


def test_dataclasses_probe_sees_dataclasses(tmp_path):
    modules = _modules_after("import dataclasses\n\n@dataclasses.dataclass\nclass R:\n"
                             "    x: int\n", tmp_path)
    assert {"dataclasses", "copy"} <= set(modules)


@pytest.mark.parametrize("cfg", [
    {},
    {"N": 2, "model_gamma": 5.0},
    {"family": {"kind": "PowerLog", "c_prime": 1.256171, "a_prime": 2.593292,
                "b_prime": 0.682198}, "gamma_ladder": [3.0, 4.0, 5.0],
     "domain": {"shape": "Rectangle", "width": 2.0, "height": 1.0}},
    {"family": {"kind": "Zero"}, "domain": {"shape": "UnitDisk", "note": "Ω ∂Ω, μ ≥ 1"}},
], ids=["empty", "flat", "nested", "non-ASCII"])
def test_config_hash_is_hashlib_sha256(cfg):
    import hashlib

    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    assert cli._config_hash(cfg) == hashlib.sha256(canonical.encode()).hexdigest()[:16]


def test_scipy_probe_sees_scipy(tmp_path):
    assert "scipy.special" in _within(_modules_after("import scipy.special\n", tmp_path), "scipy")


def test_numpy_ma_probe_sees_numpy_ma(tmp_path):
    assert "numpy.ma" in _within(_modules_after("import numpy.ma\n", tmp_path), "numpy.ma")


def test_numpy_polynomial_probe_sees_numpy_polynomial(tmp_path):
    modules = _modules_after("from numpy.polynomial.legendre import leggauss\n", tmp_path)
    assert "numpy.polynomial.legendre" in _within(modules, "numpy.polynomial")


# -- compile memory -------------------------------------------------------------

# A process that compiles the package from source (no cached bytecode)
# reaches its peak memory compiling the largest module, so no module may
# compile with a larger peak than the largest one before the integrator
# left mtcrit.numerics: numerics.py's, measured by _compile_peaks on
# CPython 3.11.7.  The peaks are the same from run to run on one
# interpreter, but not across versions, and each depends on the strings
# that earlier compiles interned, so all modules are compiled in one fresh
# interpreter in a fixed order.
COMPILE_PEAK_BOUND = 1_366_668
_BOUND_INTERPRETER = sys.implementation.name == "cpython" and sys.version_info[:3] == (3, 11, 7)
_COMPILE_PROBE = """
import pathlib, sys, tracemalloc
peaks = {}
for path in sys.argv[1:]:
    source = pathlib.Path(path).read_text()
    tracemalloc.start()
    compile(source, pathlib.Path(path).name, "exec")
    peaks[pathlib.Path(path).name] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
print(peaks)
"""


def _compile_peaks(paths) -> dict:
    """file name -> the tracemalloc peak of compiling it, the paths compiled
    one after the other in a fresh isolated interpreter."""
    proc = subprocess.run([sys.executable, "-I", "-c", _COMPILE_PROBE, *map(str, paths)],
                          capture_output=True, text=True, timeout=300, check=True)
    return ast.literal_eval(proc.stdout)


@pytest.mark.skipif(not _BOUND_INTERPRETER, reason="the bound was measured on CPython 3.11.7")
def test_no_module_compiles_past_the_largest_peak_before_the_split():
    peaks = _compile_peaks(MODULES)
    assert set(peaks) == {p.name for p in MODULES}
    over = {name: peak for name, peak in peaks.items() if peak > COMPILE_PEAK_BOUND}
    assert not over, f"compile peaks over {COMPILE_PEAK_BOUND} B: {over}"


@pytest.mark.skipif(not _BOUND_INTERPRETER, reason="the bound was measured on CPython 3.11.7")
def test_compile_probe_sees_a_module_past_the_bound(tmp_path):
    # the integrator back in numerics: numerics.py and ode.py as one module
    merged = tmp_path / "numerics.py"
    integrator = (SRC / "ode.py").read_text().replace("from __future__ import annotations", "")
    merged.write_text((SRC / "numerics.py").read_text() + integrator)
    assert _compile_peaks(MODULES[:MODULES.index(SRC / "numerics.py")] + [merged])[
        "numerics.py"] > COMPILE_PEAK_BOUND


# -- packaging ------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::UserWarning")  # setuptools' "beta" notice
def test_distribution_is_mtcrit_at_the_package_version():
    # pyproject.toml names the distribution and reads its version from
    # mtcrit.__version__, so the two cannot drift; read_configuration parses
    # the file offline, without building anything
    from setuptools.config.pyprojecttoml import read_configuration

    project = read_configuration(SRC.parents[1] / "pyproject.toml")["project"]
    assert (project["name"], project["version"]) == ("mtcrit", mtcrit.__version__)
