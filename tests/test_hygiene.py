"""Source hygiene that a linter would check: no module of the package and no
test module imports a name it never uses, every module-level private name of
the package is used somewhere in the repository, every defaulted parameter
of a package function is passed by some call (else it is a constant), every
public function and method of the package is called by the package or is on
a short list of documented or benchmark-read names, every module-level
UPPER_CASE constant of the package is read by package code outside its own
definition, no function of the package only forwards its parameters to
another call, no module of the package makes a dense matrix of a whole
operator, the set-up path (configuration to Fock space) loads no operator
code, only the command line sets OpenBLAS's idle timeout before numpy
loads, and README's CLI section names exactly the command line's
options."""

import argparse
import ast
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from radmul.cli import build_parser

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


def uncalled_functions(modules: dict) -> list:
    """(module, line, qualified name) of the public functions and methods of
    ``modules`` (name -> source) that no module reads by name or attribute
    outside their own body.  A name starting with _ is private or a dunder,
    and not listed."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    reads = Counter()
    for tree in trees.values():
        reads.update(node.id for node in ast.walk(tree)
                     if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store))
        reads.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    out = []
    for module, tree in trees.items():
        for scope in [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]:
            cls = getattr(scope, "name", None)
            for fn in scope.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                    continue
                own = sum(1 for node in ast.walk(fn)
                          if (isinstance(node, ast.Name) and node.id == fn.name
                              and not isinstance(node.ctx, ast.Store))
                          or (isinstance(node, ast.Attribute) and node.attr == fn.name))
                if reads[fn.name] - own <= 0:
                    out.append((module, fn.lineno, "%s.%s" % (cls, fn.name) if cls else fn.name))
    return sorted(out)


# the public names the package itself never calls, each with its reason
UNCALLED_ALLOWED = {
    "preset_config": "documented API: the preset configurations (README)",
    "RadialSymbol.delta0": "documented API: a named symbol (README)",
    "RadialSymbol.indicator01": "documented API: a named symbol (README)",
    "RadialSymbol.constant": "documented API: a named symbol (README)",
    "RadialSymbol.geometric": "documented API: a named symbol (README)",
    "StructuredOperator.matrix": "radbench's tracer wraps it and reads its cache, _matrix",
    "eps_rho_tower": "radbench's tracer times it by name",
    "Amalgam.push": "radbench's tracer counts its calls",
    "hankel_pair": "radbench's tracer times it and setup_probe.py prints its tail_error",
    "factorize": "radbench's tracer times the M x M Hankel route through it",
}


def test_every_public_function_is_called_or_allowed():
    modules = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    found = {name for _, _, name in uncalled_functions(modules)}
    # an entry whose name is now called, or gone, is stale
    assert found == set(UNCALLED_ALLOWED)


def test_uncalled_function_is_caught():
    # f is called by b.py, C.m by attribute and g only by itself; C.__init__
    # is a dunder and _h private; C.p is read as a property
    modules = {
        "a.py": "def f():\n    pass\n"
                "def g(n):\n    return g(n - 1)\n"
                "def _h():\n    pass\n"
                "class C:\n    def __init__(self):\n        pass\n"
                "    def m(self):\n        pass\n"
                "    def unused(self):\n        pass\n"
                "    @property\n    def p(self):\n        return 1\n",
        "b.py": "from .a import f\nf()\nC().m()\nC().p\n",
    }
    assert uncalled_functions(modules) == [("a.py", 3, "g"), ("a.py", 12, "C.unused")]


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
