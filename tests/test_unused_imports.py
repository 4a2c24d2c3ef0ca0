"""Every imported name is used, and every private name is read where it is defined:
ast checks over the package (both) and the tests (imports).

An import kept on purpose (say, a name another tool looks up as a module
attribute) carries ``# noqa: F401`` on its statement's first line or on the
name's own line. A name listed in the module's ``__all__`` counts as used.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "otrank").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
MARKER = "# noqa: F401"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every unmarked import whose bound name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            marked = MARKER in lines[node.lineno - 1] or MARKER in lines[alias.lineno - 1]
            if name not in used and not marked:
                found.append((alias.lineno, name))
    return found


def _loads(node) -> Counter:
    return Counter(n.id for n in ast.walk(node)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


def dead_private_names(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every module-level private function, class or constant
    (one leading underscore, not a dunder) that the module never reads outside
    its own definition."""
    tree = ast.parse(source)
    loads = _loads(tree)
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = [(node.name, _loads(node)[node.name])]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = [(t.id, 0) for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name, own_reads in defined:
            private = name.startswith("_") and not name.startswith("__")
            if private and loads[name] == own_reads:
                found.append((node.lineno, name))
    return found


def test_every_import_is_used():
    assert len(FILES) > 20
    found = {f"{p.parent.name}/{p.name}": unused_imports(p.read_text("utf-8")) for p in FILES}
    assert {name: names for name, names in found.items() if names} == {}


def test_the_check_finds_an_unused_import():
    source = ("import json\nimport os  # noqa: F401\nfrom math import (  # noqa: F401\n"
              "    pi,\n)\nfrom time import sleep, time\n__all__ = ['sleep']\n")
    assert unused_imports(source) == [(1, "json"), (6, "time")]


def test_every_private_name_is_read():
    assert len(PACKAGE) > 8
    found = {p.name: dead_private_names(p.read_text("utf-8")) for p in PACKAGE}
    assert {name: names for name, names in found.items() if names} == {}


def test_the_check_finds_a_dead_private_name():
    source = ("_USED = 1\n_UNUSED: int = 2\n__version__ = '1'\n"
              "def _helper():\n    return _USED\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n"
              "class _Kept:\n    pass\n"
              "def public():\n    return _helper(), _Kept\n")
    assert dead_private_names(source) == [(2, "_UNUSED"), (6, "_recursive")]
