"""Every imported name is used: an ast check over the package and the tests.

An import kept on purpose (say, a name another tool looks up as a module
attribute) carries ``# noqa: F401`` on its statement's first line or on the
name's own line. A name listed in the module's ``__all__`` counts as used.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "otrank").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
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


def test_every_import_is_used():
    assert len(FILES) > 20
    found = {f"{p.parent.name}/{p.name}": unused_imports(p.read_text("utf-8")) for p in FILES}
    assert {name: names for name, names in found.items() if names} == {}


def test_the_check_finds_an_unused_import():
    source = ("import json\nimport os  # noqa: F401\nfrom math import (  # noqa: F401\n"
              "    pi,\n)\nfrom time import sleep, time\n__all__ = ['sleep']\n")
    assert unused_imports(source) == [(1, "json"), (6, "time")]
