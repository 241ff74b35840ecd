"""Source hygiene that a linter would check: no module of the package and no
test module imports a name it never uses (the package's ``__init__.py``
imports only to re-export), and every module-level private name of the
package is used somewhere in the repository."""

import ast
from collections import Counter
from pathlib import Path

import pytest

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
