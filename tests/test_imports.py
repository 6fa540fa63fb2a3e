"""Every module imports only names it uses.

Each module of the package except ``__init__.py`` (which imports in order
to re-export) is parsed with ``ast``; a name bound by a top-level
``import`` or ``from ... import`` that the module never reads is dead code
and fails here, naming the module and the name.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lielab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"algebra", "cli", "commutator", "fields", "linalg", "regularity"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    unused = _unused_imports(path.read_text())
    assert not unused, f"{path.name} imports names it never uses: " + ", ".join(
        f"{name} (line {line})" for line, name in unused
    )


def test_scan_sees_an_unused_import():
    assert _unused_imports("import os\nfrom typing import List, Tuple\nx: Tuple = ()\n") == [(1, "os"), (2, "List")]
