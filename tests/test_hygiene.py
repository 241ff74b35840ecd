"""Source hygiene that a linter would check: no module of the package and no
test module imports a name it never uses (the package's ``__init__.py``
imports only to re-export), every module-level private name of the
package is used somewhere in the repository, every defaulted parameter
of a package function is passed by some call (else it is a constant), no
module of the package makes a dense matrix of a whole operator, and
README's CLI section names exactly the command line's options."""

import argparse
import ast
import math
import re
from collections import Counter
from pathlib import Path

import pytest

from radmul.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "radmul"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
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


def test_every_defaulted_parameter_is_passed_somewhere():
    modules = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    others = [p.read_text(encoding="utf-8") for p in OUTSIDE]
    assert idle_parameters(modules, others) == []


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


def dense_matrix_calls(source: str) -> list:
    """Lines of the calls ``x.matrix()`` with no argument, which make a dense
    matrix of a whole operator (``TracialAlgebra.matrix(d)`` takes one)."""
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
