"""Source hygiene, one gate a line; each allowlist gives its reasons:

- no module of the package or the tests imports a name it never uses;
- each ``from .m import x`` (tests: ``from radmul.m import x``) names a definition of m;
- no module of the package imports a private name of another;
- only ``operators`` and ``sparse`` build operators from raw entries;
- each module-level private name of the package is read somewhere in the repository;
- each public oracle of ``tests/oracles.py`` is read by a test and named in its ledger;
- each module-level UPPER_CASE constant of the package is read by package code;
- each defaulted parameter is passed by a package call, or allowed and passed from outside it;
- each public class is read by the package outside annotations, or allowed;
- each function and method, dunders included, starts in small command-line runs, or is allowed;
- in those runs only ``symbols`` and ``RadialMultiplier.__init__`` evaluate a symbol;
- no function only forwards its parameters to another call;
- no module makes a dense matrix of a whole operator;
- the set-up path (configuration to Fock space) loads no operator code;
- a one-process ``verify`` of each small model loads no ``numpy.ma``;
- only the command line sets OpenBLAS's idle timeout before numpy loads;
- only the command line sets numpy's error state, in one call;
- README's CLI section names exactly the command line's options;
- README's tolerance table states exactly ``report.TOLERANCES``;
- each check name radbench expects has a ``TOLERANCES`` entry, and each entry such a name."""

import argparse
import ast
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import MODELS
from radmul.cli import build_parser, main
from radmul.report import TOLERANCES, family
from radmul.symbols import RadialSymbol

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "radmul"
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
# the files outside the package whose code may use its private names
OUTSIDE = TESTS + sorted((ROOT / "radbench").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", TESTS, ids=lambda p: "tests/" + p.name)
def test_no_unused_imports_in_tests(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_caught():
    source = "import numpy as np\nfrom .operators import stack, zero_op\nzero_op(np)\n"
    assert unused_imports(source) == [(2, "stack")]


def definitions(source: str) -> set:
    """The names the top-level statements of a module define: functions,
    classes and assignment targets; an imported name is no definition."""
    out = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


def imports_through(package: dict, others: dict) -> list:
    """(file, line, "m.x") of the imports ``from .m import x`` in the
    modules of ``package`` (module name -> source) and ``from radmul.m
    import x`` in ``others`` (file -> source) whose module m does not define
    x, so that the name has a second import path."""
    defined = {module: definitions(source) for module, source in package.items()}
    out = []
    for files, level, prefix in ((package, 1, ""), (others, 0, "radmul.")):
        for path, source in files.items():
            for node in ast.walk(ast.parse(source)):
                if not isinstance(node, ast.ImportFrom) or node.level != level:
                    continue
                module = node.module or ""
                module = module[len(prefix):] if module.startswith(prefix) else None
                out += [(path, node.lineno, "%s.%s" % (module, alias.name))
                        for alias in node.names
                        if module in defined and alias.name not in defined[module]]
    return sorted(out)


def test_every_name_is_imported_from_its_module():
    package = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    others = {"tests/" + p.name: p.read_text(encoding="utf-8") for p in TESTS}
    assert imports_through(package, others) == []


def test_import_through_another_module_is_caught():
    # b re-imports a's f from c, which only imports it; the test file does
    # the same through radmul.c, and imports a module and the package's own
    # names by other forms, which are not checked
    package = {
        "a": "def f():\n    pass\nX = 1\nY, Z = 2, 3\n",
        "c": "from .a import f, X\n",
        "b": "from .a import f, X, Z\nfrom .c import f\nfrom . import a\n",
    }
    others = {"t.py": "from radmul.a import Y\nfrom radmul.c import X, f\n"
                      "from radmul import c\nfrom numpy import f\n"}
    assert imports_through(package, others) == [("b", 2, "c.f"), ("t.py", 2, "c.X"),
                                                ("t.py", 2, "c.f")]


def private_imports(package: dict) -> list:
    """(module, line, "m._x") of the imports ``from .m import _x`` of a
    private name (a dunder is not one) in the modules of ``package``
    (module name -> source)."""
    return sorted((module, node.lineno, "%s.%s" % (node.module, alias.name))
                  for module, source in package.items()
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                  for alias in node.names
                  if alias.name.startswith("_") and not alias.name.startswith("__"))


def test_no_module_imports_a_private_name_of_another():
    package = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert private_imports(package) == []


def test_private_import_is_caught():
    # b takes a's helper _f; a dunder, a public name, a relative module and
    # an absolute import are not checked
    package = {"a": "def _f():\n    pass\n",
               "b": "from .a import _f, g, __version__\nfrom . import _c\n"
                    "from numpy import _x\n"}
    assert private_imports(package) == [("b", 1, "a._f")]


# the one constructor of an operator from raw entries, and the helpers that
# make its entries: the word-pair merge and the blocks of the left N-action
RAW_BUILDERS = {"StructuredOperator", "coalesce", "lmul_blocks"}
# the modules that own them: the operator module and its sparse kernels
BUILDER_MODULES = {"operators.py", "sparse.py"}


def raw_builds(source: str) -> list:
    """(line, name) of the calls of a ``RAW_BUILDERS`` name, bare or as an
    attribute, and of the imports of one; ``StructuredOperator`` alone is
    imported for annotations, so its imports are not counted."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            out += [(node.lineno, name)] if name in RAW_BUILDERS else []
        elif isinstance(node, ast.ImportFrom):
            out += [(node.lineno, alias.name) for alias in node.names
                    if alias.name in RAW_BUILDERS - {"StructuredOperator"}]
    return sorted(out)


def test_only_the_operator_modules_build_from_raw_entries():
    found = {p.name: raw_builds(p.read_text(encoding="utf-8")) for p in MODULES
             if p.name not in BUILDER_MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_raw_build_is_caught():
    # a call of the constructor and an import and a call of each helper;
    # the constructor as an annotation or an isinstance argument is no build
    source = ("from .operators import StructuredOperator, lmul_blocks\n"
              "from .sparse import coalesce\n"
              "def f(space) -> StructuredOperator:\n"
              "    isinstance(space, StructuredOperator)\n"
              "    coalesce(1)\n"
              "    return operators.StructuredOperator(space, lmul_blocks(space))\n")
    assert raw_builds(source) == [(1, "lmul_blocks"), (2, "coalesce"), (5, "coalesce"),
                                  (6, "StructuredOperator"), (6, "lmul_blocks")]


def names_read(tree: ast.AST) -> set:
    """The names tree reads: loaded names, attributes, imported names and
    string constants (a name looked up by its string, as a tracer does)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unused_private_names(modules: dict, others: list) -> list:
    """(module, line, name) of the module-level private functions, classes
    and constants of ``modules`` (name -> source) that no statement of a
    module reads apart from the name's own definition and that no source of
    ``others`` reads."""
    bodies = {module: ast.parse(source).body for module, source in modules.items()}
    reads = {module: [names_read(node) for node in body] for module, body in bodies.items()}
    # per name, the number of module statements that read it
    count = Counter(name for rs in reads.values() for r in rs for name in r)
    outside = set().union(*(names_read(ast.parse(source)) for source in others))
    out = []
    for module, body in bodies.items():
        for node, read in zip(body, reads[module]):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            out += [(module, node.lineno, name) for name in defined
                    if name.startswith("_") and not name.startswith("__")
                    and name not in outside and count[name] == (name in read)]
    return sorted(out)


def test_no_unused_private_names():
    modules = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    others = [p.read_text(encoding="utf-8") for p in OUTSIDE]
    assert unused_private_names(modules, others) == []


def test_unused_private_name_is_caught():
    # _OLD is never read, _helper only by itself; the others are read by
    # the module, another module, an attribute and a string outside
    modules = {
        "a.py": "_LIMIT = 3\n_OLD = 4\ndef _helper(x):\n    return _helper(x - 1)\n"
                "class _Kept:\n    pass\ndef _traced():\n    pass\n"
                "def _named():\n    pass\ndef public():\n    return _LIMIT\n",
        "b.py": "from .a import _Kept\n",
    }
    others = ["import a\na._traced()\n", "TARGET = ('radmul.a', '_named')\n"]
    assert unused_private_names(modules, others) == [("a.py", 2, "_OLD"), ("a.py", 3, "_helper")]


def oracle_gaps(oracles: str, tests: list) -> tuple:
    """Two sorted lists of the public module-level functions and classes of
    the oracle module (source ``oracles``): those that no source of
    ``tests`` reads, directly or through a function or class of the module
    that is read, and those its docstring, the ledger, does not name as
    ``name``."""
    tree = ast.parse(oracles)
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    todo = list(set().union(*(names_read(ast.parse(source)) for source in tests)) & set(defs))
    live = set(todo)
    while todo:
        found = names_read(defs[todo.pop()]) & set(defs) - live
        live |= found
        todo += found
    public = sorted(name for name in defs if not name.startswith("_"))
    ledger = ast.get_docstring(tree) or ""
    return ([name for name in public if name not in live],
            [name for name in public if "``%s``" % name not in ledger])


def test_every_oracle_is_read_and_in_the_ledger():
    oracles = ROOT / "tests" / "oracles.py"
    tests = [p.read_text(encoding="utf-8") for p in TESTS if p != oracles]
    assert oracle_gaps(oracles.read_text(encoding="utf-8"), tests) == ([], [])


def test_unread_or_unledgered_oracle_is_caught():
    # f is read by a test, g through f and C through f's private helper _k;
    # h only by itself and the ledger, D is read but not in the ledger, and
    # E in neither; _p is private
    oracles = ('"""Ledger: ``f`` from ``g``, ``C`` and ``h``."""\n'
               "def f():\n    return g() + _k()\n"
               "def g():\n    pass\n"
               "def h():\n    return h()\n"
               "def _k():\n    return C()\n"
               "class C:\n    pass\n"
               "class D:\n    pass\n"
               "class E:\n    pass\n"
               "def _p():\n    pass\n")
    tests = ["from oracles import f, D\nf(D())\n"]
    assert oracle_gaps(oracles, tests) == (["E", "h"], ["D", "E"])


def constant_reads(node: ast.AST) -> Counter:
    """Per name, how often ``node`` reads it by name or by attribute; an
    import or a string is no read."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


def unread_constants(modules: dict) -> list:
    """(module, line, name) of the module-level UPPER_CASE constants of
    ``modules`` (name -> source) that no statement of a module reads apart
    from the constant's own definition."""
    bodies = {module: ast.parse(source).body for module, source in modules.items()}
    total = Counter()
    for body in bodies.values():
        for node in body:
            total.update(constant_reads(node))
    out = []
    for module, body in bodies.items():
        for node in body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            own = constant_reads(node)
            out += [(module, node.lineno, t.id) for t in targets
                    if isinstance(t, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id)
                    and total[t.id] == own[t.id]]
    return sorted(out)


def test_every_constant_is_read_by_the_package():
    modules = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_constants(modules) == []


def test_unread_constant_is_caught():
    # LIMIT is read by a.py's function, SCALE by b.py through an attribute;
    # OLD is only imported, LOOP only read by its own definition and STALE
    # only named in a string; _PRIVATE and lower are not UPPER_CASE
    modules = {
        "a.py": "LIMIT = 3\nSCALE = 2.0\nOLD = 4\nLOOP = lambda n: LOOP(n - 1)\n"
                "STALE = 5\n_PRIVATE = 1\nlower = 2\ndef f():\n    return LIMIT\n",
        "b.py": "from .a import OLD\nimport a\nx = a.SCALE\ny = 'STALE'\n",
    }
    assert unread_constants(modules) == [("a.py", 3, "OLD"), ("a.py", 4, "LOOP"),
                                         ("a.py", 5, "STALE")]


def defaulted_parameters(tree: ast.AST) -> list:
    """(line, qualified name, call name, parameter, position) of every
    defaulted parameter of the functions and methods in ``tree``.  The
    position counts the arguments a call passes (a method's ``self`` is not
    one of them), None for a keyword-only parameter; a call of ``__init__``
    is a call of its class."""
    out = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.ClassDef)):
            continue
        cls = getattr(scope, "name", None)
        for fn in scope.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args.posonlyargs + fn.args.args
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            skip = 1 if cls and not static else 0
            name = cls if fn.name == "__init__" else fn.name
            qualified = "%s.%s" % (cls, fn.name) if cls else fn.name
            first = len(args) - len(fn.args.defaults)
            out += [(fn.lineno, qualified, name, a.arg, i - skip)
                    for i, a in enumerate(args) if i >= first]
            out += [(fn.lineno, qualified, name, a.arg, None)
                    for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return out


def idle_parameters(modules: dict, others: list) -> list:
    """(module, line, function, parameter) of the defaulted parameters of
    the functions and methods of ``modules`` (name -> source) that no call
    in them or in ``others`` passes: by keyword, or by position past the
    required arguments.  Calls are matched by function or attribute name; a
    ``*args`` or ``**kwargs`` argument passes everything."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    keywords, positions = set(), Counter()
    for tree in list(trees.values()) + [ast.parse(source) for source in others]:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            positions[name] = max(positions[name], math.inf if starred else len(call.args))
            keywords.update((name, kw.arg) for kw in call.keywords)
    out = []
    for module, tree in trees.items():
        for line, qualified, name, param, position in defaulted_parameters(tree):
            passed = ({(name, param), (name, None)} & keywords
                      or position is not None and positions[name] > position)
            if not passed:
                out.append((module, line, qualified, param))
    return sorted(out)


def test_idle_parameter_is_caught():
    # f's y is passed by position, C's p by keyword to the class and m's q by
    # position after self; f's z, m's r, the static method's u (no self) and
    # g's k by nothing.  h gets everything through *args and **kwargs
    modules = {
        "a.py": "def f(x, y=1, z=2):\n    pass\n"
                "class C:\n    def __init__(self, p=0):\n        pass\n"
                "    def m(self, q=1, r=2):\n        pass\n"
                "    @staticmethod\n    def s(u=1):\n        pass\n"
                "def g(*, k=3):\n    pass\n"
                "def h(a=1, *, b=2):\n    pass\n",
        "b.py": "f(1, 2)\n",
    }
    others = ["C(p=1).m(1)\ng()\nh(*xs, **kw)\nC.s()\n"]
    assert idle_parameters(modules, others) == [
        ("a.py", 1, "f", "z"), ("a.py", 6, "C.m", "r"), ("a.py", 9, "C.s", "u"),
        ("a.py", 11, "g", "k")]


# the defaulted parameters, private ones included, that no package call
# passes, each with its reason; a test or radbench passes each
IDLE_PARAMETERS_ALLOWED = {
    ("main_theorem_suite", "words_per_length"): "test seam: the tests size the sample",
    ("main_theorem_suite", "max_len"): "test seam: the tests size the sample",
    ("spanning_check", "max_len"): "test seam: the tests check shorter words",
    ("verify_pp_basis", "basis"): "test seam: the tests pass corrupted bases",
    ("RadialSymbol.geometric", "coefficient"): "documented API: a named symbol (README)",
    ("RadialSymbol.geometric", "limit"): "documented API: a named symbol (README)",
    ("main", "argv"): "entry point: the console script passes none, the tests a list",
    ("FockVector.__init__", "coeffs"): "radbench's tracer counts its calls; only the "
                                       "tests' block-form oracle builds one",
}


def test_every_public_defaulted_parameter_is_passed_by_the_package_or_allowed():
    modules = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    found = {(name, param) for _, _, name, param in idle_parameters(modules, [])}
    # an entry whose parameter is now passed, or gone, is stale
    assert found == set(IDLE_PARAMETERS_ALLOWED)
    # and one that no test or radbench passes is a constant
    assert idle_parameters(modules, [p.read_text(encoding="utf-8") for p in OUTSIDE]) == []


def test_parameter_passed_only_by_the_tests_is_caught():
    # f's y is passed by b.py; f's z, C's p and the private _g's w only by a
    # test, and the private class _D's q by nothing
    modules = {
        "a.py": "def f(x, y=1, z=2):\n    pass\n"
                "class C:\n    def __init__(self, p=0):\n        pass\n"
                "def _g(w=1):\n    pass\n"
                "class _D:\n    def m(self, q=1):\n        pass\n",
        "b.py": "f(1, 2)\n",
    }
    tests = ["f(1, z=3)\nC(p=1)\n_g(w=2)\n"]
    assert idle_parameters(modules, []) == [("a.py", 1, "f", "z"), ("a.py", 4, "C.__init__", "p"),
                                            ("a.py", 6, "_g", "w"), ("a.py", 9, "_D.m", "q")]
    assert idle_parameters(modules, tests) == [("a.py", 9, "_D.m", "q")]


def annotations(tree: ast.AST) -> list:
    """The annotations in ``tree``: of parameters, return values and
    annotated assignments."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            out += [a.annotation for a in params if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            out.append(node.annotation)
    return [a for a in out if a is not None]


def class_reads(tree: ast.AST) -> Counter:
    """``constant_reads`` of ``tree`` outside its annotations."""
    reads = constant_reads(tree)
    for annotation in annotations(tree):
        reads.subtract(constant_reads(annotation))
    return reads


def unreferenced_classes(modules: dict) -> list:
    """(module, line, name) of the public module-level classes of
    ``modules`` (name -> source) that no module reads outside annotations
    and the class's own body: no code builds, subclasses or inspects them."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    total = sum((class_reads(tree) for tree in trees.values()), Counter())
    return sorted((module, node.lineno, node.name) for module, tree in trees.items()
                  for node in tree.body if isinstance(node, ast.ClassDef)
                  and not node.name.startswith("_")
                  and total[node.name] - class_reads(node)[node.name] <= 0)


# the public classes the package itself never reads, each with its reason
UNREFERENCED_ALLOWED = {
    "FockVector": "radbench's tracer counts calls of its __init__; the tests' block-form "
                  "oracle vectors are instances",
}


def test_every_public_function_is_called_or_allowed():
    # functions and methods are held to a call by the run-time gate,
    # test_every_function_runs_or_is_allowed; this gate holds the classes
    modules = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    found = {name for _, _, name in unreferenced_classes(modules)}
    # an entry whose class is now read, or gone, is stale
    assert found == set(UNREFERENCED_ALLOWED)


def test_unreferenced_class_is_caught():
    # A is built by b.py, B subclassed and C read as an attribute; D is read
    # only in annotations and E only in its own body, and G by nothing; _F
    # is private
    modules = {
        "a.py": "class A:\n    pass\n"
                "class B:\n    pass\n"
                "class C:\n    pass\n"
                "class D:\n    pass\n"
                "class E:\n    def copy(self) -> 'E':\n        return E()\n"
                "class _F:\n    pass\n",
        "b.py": "from . import a\nfrom .a import D\nx = A()\nclass G(B):\n    pass\n"
                "y = a.C\ndef f(d: D) -> D:\n    z: D = d\n    return z\n",
    }
    assert unreferenced_classes(modules) == [("a.py", 7, "D"), ("a.py", 9, "E"),
                                             ("b.py", 4, "G")]


def defined_functions(path: Path) -> dict:
    """(first line of its code, name) -> qualified name of every function
    and method the module at ``path`` defines, dunders and nested functions
    included; a decorated function's code starts at its first decorator."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out[line, child.name] = prefix + child.name
            visit(child, prefix + child.name + "."
                  if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def profile_run(run, watch=frozenset()) -> tuple:
    """Run ``run()`` and return what ``sys.setprofile`` sees of the calls of
    this thread: the set of codes whose call started, and the set of pairs
    (code, caller's code) for the calls of a code in ``watch``, the caller
    being the function that makes the call, seen through comprehensions and
    generator expressions."""
    started, watched = set(), set()

    def profile(frame, event, arg):
        if event == "call":
            started.add(frame.f_code)
            if frame.f_code in watch:
                caller = frame.f_back
                while caller.f_code.co_name in COMPREHENSIONS:
                    caller = caller.f_back
                watched.add((frame.f_code, caller.f_code))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return started, watched


def unexecuted(paths: list, started: set) -> list:
    """The qualified names of the functions and methods of the modules at
    ``paths`` (``defined_functions``) whose code is not among the ``started``
    codes of ``profile_run``."""
    ran = {(Path(code.co_filename).resolve(), code.co_firstlineno, code.co_name)
           for code in started}
    return sorted(name for path in paths for (line, fn), name in defined_functions(path).items()
                  if (path.resolve(), line, fn) not in ran)


# the functions and methods of the package that the command-line runs of
# test_every_function_runs_or_is_allowed never start, each with its reason:
# the names radbench's tracer pins, their private helpers, and documented API
UNEXECUTED_ALLOWED = {
    "StructuredOperator.matrix": "radbench's tracer wraps it and reads its cache, _matrix",
    "rho_tower": "radbench's tracer times it by name",
    "eps_rho_tower": "radbench's tracer times it by name",
    "Amalgam.push": "radbench's tracer counts its calls",
    "FockVector.__init__": "radbench's tracer counts its calls",
    "hankel_pair": "radbench's tracer times it and setup_probe.py prints its tail_error",
    "_discard_bound": "a helper of hankel_pair",
    "_sum_weighted_geometric": "a helper of hankel_pair",
    "TracialAlgebra.trace": "documented API: the normalized trace of N (README)",
    "RadialSymbol.delta0": "documented API: a named symbol (README)",
    "RadialSymbol.indicator01": "documented API: a named symbol (README)",
    "RadialSymbol.constant": "documented API: a named symbol (README)",
    "RadialSymbol.geometric": "documented API: a named symbol (README)",
}


# the codes that evaluate a symbol
SYMBOL_CODES = frozenset(f.__code__ for f in (RadialSymbol.__call__, RadialSymbol.psi1,
                                              RadialSymbol.psi2))


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """``profile_run`` of verify, bound and symbol on the MODELS (the presets,
    geo-dih, a model with non-commuting actions and one with a group that is
    not abelian), in this process (one usable core: no worker is forked),
    watching ``SYMBOL_CODES``."""
    tmp_path = tmp_path_factory.mktemp("cli_runs")

    def run():
        for name, model in MODELS.items():
            data = model()
            data["truncation"]["fock_len"] = 3
            config = tmp_path / ("%s.json" % name)
            config.write_text(json.dumps(data))
            for argv in (["verify", "--seed", "1", "--report", str(tmp_path / "report.json")],
                         ["bound"],
                         ["symbol", "--csv", str(tmp_path / "symbol.csv")]):
                assert main(argv + ["--config", str(config)]) == 0

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        return profile_run(run, SYMBOL_CODES)


def test_every_function_runs_or_is_allowed(cli_runs):
    # what no run starts is dead code, dunders included, whatever reads its
    # name.  So no suite builds a FockVector either: its __init__ is allowed
    # only as never run.  An entry whose function now runs, or is gone, is stale
    assert unexecuted(MODULES, cli_runs[0]) == sorted(UNEXECUTED_ALLOWED)


def test_unexecuted_function_is_caught(tmp_path):
    # the run builds a C and reads its property but adds no two: C.__add__
    # and the function nested in it never start, though both are named
    path = tmp_path / "seeded.py"
    path.write_text("class C:\n"
                    "    def __init__(self, x):\n        self.x = x\n"
                    "    def __add__(self, other):\n"
                    "        def total():\n            return self.x + other.x\n"
                    "        return C(total())\n"
                    "    @property\n    def double(self):\n        return 2 * self.x\n"
                    "def run():\n    return C(1).double, C.__add__, 'total'\n")
    spec = importlib.util.spec_from_file_location("seeded", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert unexecuted([path], profile_run(module.run)[0]) == ["C.__add__", "C.__add__.total"]


def symbol_readers(watched: set) -> list:
    """(file name, qualified name) of every caller in ``watched`` (pairs of
    ``profile_run``) outside ``symbols.py`` and ``RadialMultiplier.__init__``;
    a caller that ``defined_functions`` does not name goes by its code's name."""
    out = set()
    for _, code in watched:
        path = Path(code.co_filename).resolve()
        names = defined_functions(path) if path.suffix == ".py" else {}
        name = names.get((code.co_firstlineno, code.co_name), code.co_name)
        if path != SRC / "symbols.py" and (path, name) != (SRC / "operators.py",
                                                            "RadialMultiplier.__init__"):
            out.add((path.name, name))
    return sorted(out)


def test_only_the_symbol_and_the_multiplier_evaluate_a_symbol(cli_runs):
    # the multiplier reads phi and psi1 once, on the lengths 0..2L+1, into the
    # tables the suites read their targets and scales from
    assert symbol_readers(cli_runs[1]) == []


def test_symbol_evaluated_elsewhere_is_caught(tmp_path):
    # the multiplier's tables and the symbol's own table are allowed, and
    # psi2's calls of psi1 and of the symbol are the symbol's own; a
    # generator expression is seen through to the function that makes it
    path = tmp_path / "seeded.py"
    path.write_text("from radmul.config import parse_config, preset_config\n"
                    "from radmul.operators import RadialMultiplier\n"
                    "from radmul.symbols import RadialSymbol, write_symbol_csv\n"
                    "def scale(phi):\n    return max(abs(phi(n)) for n in range(3))\n"
                    "def run(csv):\n"
                    "    phi = RadialSymbol.geometric(0.5)\n"
                    "    T = RadialMultiplier(parse_config(preset_config('dih')).space(), phi)\n"
                    "    write_symbol_csv(csv, phi, 2)\n"
                    "    return T.phi, scale(phi), [phi.psi2(n) for n in range(2)]\n")
    spec = importlib.util.spec_from_file_location("seeded", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    _, watched = profile_run(lambda: module.run(tmp_path / "symbol.csv"), SYMBOL_CODES)
    assert symbol_readers(watched) == [("seeded.py", "run"), ("seeded.py", "scale")]


def pass_throughs(source: str) -> list:
    """(line, qualified name) of the functions and methods whose body,
    docstring aside, is one ``return`` of a call that passes exactly their
    own parameters, in order and by position (a method's ``self`` or
    ``cls`` is not one of them)."""
    out = []
    for scope in ast.walk(ast.parse(source)):
        if not isinstance(scope, (ast.Module, ast.ClassDef)):
            continue
        cls = getattr(scope, "name", None)
        for fn in scope.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            body = fn.body[ast.get_docstring(fn) is not None:]
            call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
            if not isinstance(call, ast.Call) or call.keywords:
                continue
            params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            if [getattr(a, "id", None) for a in call.args] == params[1 if cls and not static else 0:]:
                out.append((fn.lineno, "%s.%s" % (cls, fn.name) if cls else fn.name))
    return sorted(out)


# radbench's tracer times the multiplier's construction by wrapping build_T
# by name, so this one forwarder stays as the traced entry point
ALLOWED_PASS_THROUGHS = {"build_T"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_pass_through_functions(path):
    found = pass_throughs(path.read_text(encoding="utf-8"))
    assert [(line, name) for line, name in found if name not in ALLOWED_PASS_THROUGHS] == []


def test_pass_through_is_caught():
    # f forwards its parameters past a docstring, C.m and the static C.s
    # theirs, C.items its none; g swaps them, h adds a keyword, k changes
    # one, n does more than return and C.v returns no call
    source = ('def f(x, y):\n    """doc"""\n    return g(x, y)\n'
              "def g(x, y):\n    return f(y, x)\n"
              "def h(x):\n    return f(x, key=1)\n"
              "def k(x):\n    return f(x + 1)\n"
              "def n(x):\n    y = x\n    return f(y)\n"
              "class C:\n"
              "    def m(self, a):\n        return self.f(a)\n"
              "    @staticmethod\n    def s(a):\n        return C(a)\n"
              "    def items(self):\n        return self.coeffs.items()\n"
              "    def v(self):\n        return self.value\n")
    assert pass_throughs(source) == [(1, "f"), (14, "C.m"), (17, "C.s"), (19, "C.items")]


def test_setup_path_loads_no_operator_code():
    # in a fresh interpreter, as at the start of a run: parsing a config and
    # building its space imports neither the operator layers nor the command
    # line, so nothing (such as a package re-export) compiles them early, nor
    # numpy.random, which the command line loads before it forks
    code = ("import sys\n"
            "from radmul.config import parse_config, preset_config\n"
            "parse_config(preset_config('cy3')).space()\n"
            "print(' '.join(m for m in ('radmul.operators', 'radmul.sparse', 'radmul.verify',\n"
            "                           'radmul.cli', 'numpy.random') if m in sys.modules))\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)), check=True)
    assert run.stdout.split() == []


def test_verify_loads_no_masked_arrays(tmp_path):
    # in a fresh interpreter, verify --suite all in one process on each of
    # the MODELS leaves numpy.ma unloaded: importing it takes about 14 ms of
    # CPU, and a bare np.unique (no return_* flag) imports it in numpy 2.4
    code = ("import json, os, sys\n"
            "os.sched_getaffinity = lambda pid: {0}\n"
            "from conftest import MODELS\n"
            "from radmul.cli import main\n"
            "print('numpy.ma' in sys.modules)\n"
            "for name, model in MODELS.items():\n"
            "    data = model()\n"
            "    data['truncation']['fock_len'] = 3\n"
            "    path = os.path.join(sys.argv[1], name + '.json')\n"
            "    with open(path, 'w') as f:\n"
            "        json.dump(data, f)\n"
            "    assert main(['verify', '--suite', 'all', '--config', path]) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    path = os.pathsep.join([str(SRC.parent), str(ROOT / "tests")])
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path), check=True)
    lines = run.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "False")


# prints OPENBLAS_THREAD_TIMEOUT as numpy is first imported, then the code
# under test runs and the variable is printed again
NUMPY_WATCH = ("import os, sys\n"
               "class Watch:\n"
               "    def find_spec(self, name, path=None, target=None):\n"
               "        if name == 'numpy':\n"
               "            print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
               "            sys.meta_path.remove(self)\n"
               "sys.meta_path.insert(0, Watch())\n")


@pytest.mark.parametrize("code, user_value, seen", [
    ("import radmul.cli", None, "4"),
    ("import radmul.cli", "20", "20"),
    ("from radmul.config import parse_config, preset_config\n"
     "parse_config(preset_config('cy3')).space()", None, "None"),
], ids=["cli", "cli-user-value", "library"])
def test_only_the_command_line_sets_the_openblas_timeout(code, user_value, seen):
    # the command line shortens OpenBLAS's idle spin before numpy starts the
    # thread pool, and keeps a value the user set; a library import leaves
    # the environment alone
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if user_value is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = user_value
    code = NUMPY_WATCH + code + "\nprint(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert run.stdout.split() == [seen, seen]


def error_state_calls(source: str) -> list:
    """Lines of the calls to a function named ``errstate`` or ``seterr``
    (``np.errstate(...)``, ``numpy.seterr(...)``, a bare imported name)."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None))
                  in ("errstate", "seterr"))


def test_only_the_command_line_sets_numpys_error_state():
    # one policy: a command runs in one errstate (``cli.main``), and a
    # non-finite value fails the check that reads it
    calls = {path.name: error_state_calls(path.read_text(encoding="utf-8"))
             for path in MODULES}
    assert {name: len(lines) for name, lines in calls.items() if lines} == {"cli.py": 1}


def test_error_state_call_is_caught():
    source = ("import numpy\nimport numpy as np\nfrom numpy import errstate\n"
              "numpy.seterr(over='ignore')\n"
              "def helper(x):\n    with np.errstate(invalid='ignore'):\n        return x + x\n"
              "def other(x):\n    with errstate(over='ignore'):\n        return x\n"
              "state = np.geterr()\nnp.errstate\n")
    assert error_state_calls(source) == [4, 6, 9]


def dense_matrix_calls(source: str) -> list:
    """Lines of the calls ``x.matrix()`` with no argument, which make a dense
    matrix of a whole operator (a ``matrix`` call with arguments is another
    function)."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "matrix" and not node.args and not node.keywords)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dense_matrix_of_an_operator(path):
    assert dense_matrix_calls(path.read_text(encoding="utf-8")) == []


def test_dense_matrix_is_caught():
    source = ("a = op.matrix()\nb = base.matrix(d)\nc = matrix()\n"
              "d = (x @ y).matrix(\n)\ne = op.matrix\n")
    assert dense_matrix_calls(source) == [1, 4]


def documented_flags(text: str) -> set:
    """The ``--flag`` tokens of the ``## CLI`` section of a markdown text."""
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))


def parser_flags(parser: argparse.ArgumentParser) -> set:
    """The long options of the subcommands of ``parser``, without --help."""
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {flag for sub in subcommands.choices.values() for action in sub._actions
            for flag in action.option_strings if flag.startswith("--")} - {"--help"}


def test_readme_cli_section_names_every_option_and_no_other():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert documented_flags(readme) == parser_flags(build_parser())


def test_stale_or_undocumented_flag_is_caught():
    # --old is documented but gone, --quiet exists but is documented only
    # outside the CLI section; -v is short, and --help every parser's
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    sub.add_parser("run").add_argument("--fast")
    check = sub.add_parser("check")
    check.add_argument("--quiet")
    check.add_argument("-v")
    text = ("# tool\n\n## CLI\n\n```sh\ntool run --fast --old -v\n```\n"
            "\n## Other\n\ntool check --quiet\n")
    assert documented_flags(text) == {"--fast", "--old"}
    assert parser_flags(parser) == {"--fast", "--quiet"}


def readme_tolerances(text: str) -> list:
    """The (family, tolerance) rows of the ``| check | tolerance | meaning |``
    table of a markdown text, a row's family that of its name pattern."""
    table = text.split("\n| check | tolerance | meaning |\n", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| ([^|]+) \|", table, re.M)
    return [(family(pattern.rstrip("*")), float(tol)) for pattern, tol in rows]


def tolerance_gaps(rows: list, table: dict) -> list:
    """The (family, tolerance) pairs that only one of ``rows`` and ``table``
    holds, or that ``rows`` holds more than once."""
    counts = Counter(rows)
    counts.subtract(table.items())
    return sorted(pair for pair, n in counts.items() if n)


def test_readme_tolerance_table_is_the_package_table():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert tolerance_gaps(readme_tolerances(readme), TOLERANCES) == []


def test_wrong_or_missing_tolerance_row_is_caught():
    # multiplier_linearity's row states 1e-10, not 1e-12, and embedding_star has no row
    text = ("# tool\n\n| check | tolerance | meaning |\n|---|---|---|\n"
            "| `adjoint_matrix[*]` | 1e-12 | adjoint |\n"
            "| `multiplier_linearity` | 1e-10 | linear |\n"
            "| `spanning_rank_len*` | 0.5 | rank |\n\nAfter the table.\n"
            "| `embedding_star` | 1e-11 | not in the table |\n")
    table = {"adjoint_matrix": 1e-12, "multiplier_linearity": 1e-12, "embedding_star": 1e-11,
             "spanning_rank_len": 0.5}
    assert tolerance_gaps(readme_tolerances(text), table) == [
        ("embedding_star", 1e-11), ("multiplier_linearity", 1e-12),
        ("multiplier_linearity", 1e-10)]


def unresolved_names(names, table: dict) -> tuple:
    """(the names whose family has no entry in ``table``, the entries no
    name's family hits)."""
    families = {family(name) for name in names}
    return (sorted(name for name in names if family(name) not in table),
            sorted(table.keys() - families))


def test_every_benchmark_check_has_one_tolerance_and_every_tolerance_a_check(monkeypatch):
    # radbench must not import radmul, so its copy of the names is read here
    monkeypatch.syspath_prepend(str(ROOT / "radbench"))
    import workloads

    assert len(workloads.CHECKS) == 42
    assert unresolved_names(workloads.CHECKS, TOLERANCES) == ([], [])


def test_unknown_name_or_stale_tolerance_is_caught():
    table = {"adjoint_matrix": 1e-12, "spanning_rank_len": 0.5, "embedding_old": 1e-11}
    names = ["adjoint_matrix[D]", "adjoint_matrix[L(0, 1)]", "spanning_rank_len5",
             "embedding_new"]
    assert unresolved_names(names, table) == (["embedding_new"], ["embedding_old"])
