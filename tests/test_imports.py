"""Every module imports only names it uses, and every definition is reached.

Each module of the package except ``__init__.py`` (which imports in order
to re-export) is parsed with ``ast``; a name bound by a top-level
``import`` or ``from ... import`` that the module never reads is dead code
and fails here, naming the module and the name.  So is a top-level
function or class that no code of the package reads outside the
definition's own body and that ``lielab.__all__`` does not export, and a
private method (one leading underscore, not a dunder) of a top-level
class that no code of the package reads outside the method's own body.

The benchmark's span recorder (``perfbench/spans.py``) patches named
functions and methods of the package, so each of its targets must exist
here too; a rename fails tier-1, not only the benchmark smoke run.
"""
import ast
import importlib
import importlib.util
import sys
from collections import defaultdict
from functools import cached_property
from pathlib import Path

import pytest

import lielab

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


def _dead_definitions(sources, exported):
    """(module, name) of each top-level function or class of `sources`
    (module name -> source text) that is not in `exported`, and (module,
    "Class._method") of each private method of a top-level class, whose
    name is read, as a name or an attribute, nowhere outside its own body."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    reads = defaultdict(list)
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                reads[node.id if isinstance(node, ast.Name) else node.attr].append((mod, node.lineno))

    def unread(mod, d):
        return not [r for r in reads[d.name] if r[0] != mod or not d.lineno <= r[1] <= d.end_lineno]

    dead = []
    for mod, tree in trees.items():
        for d in tree.body:
            if not isinstance(d, (ast.FunctionDef, ast.ClassDef)):
                continue
            if d.name not in exported and unread(mod, d):
                dead.append((mod, d.name))
            if isinstance(d, ast.ClassDef):
                for m in d.body:
                    if (
                        isinstance(m, ast.FunctionDef)
                        and m.name.startswith("_")
                        and not m.name.startswith("__")
                        and unread(mod, m)
                    ):
                        dead.append((mod, f"{d.name}.{m.name}"))
    return sorted(dead)


def test_no_unreached_definitions():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    dead = _dead_definitions(sources, set(lielab.__all__))
    assert not dead, "defined but never reached: " + ", ".join(f"{m}.{n}" for m, n in dead)


def test_scan_sees_an_unreached_definition():
    sources = {
        "a": "def used():\n    return 1\n\ndef selfish(n):\n    return selfish(n - 1)\n\nclass Shown:\n    pass\n",
        "b": "from a import used\nx = used()\n",
    }
    assert _dead_definitions(sources, {"Shown"}) == [("a", "selfish")]


def test_scan_sees_an_unreached_private_method():
    sources = {
        "a": (
            "class Shown:\n"
            "    def __init__(self):\n        self.n = self._read()\n"
            "    def _read(self):\n        return 1\n"
            "    @property\n    def _left(self):\n        return self._left\n"
            "    def public(self):\n        return 2\n"
        ),
    }
    assert _dead_definitions(sources, {"Shown"}) == [("a", "Shown._left")]


def _benchmark_spans(monkeypatch):
    """SPANS of perfbench/spans.py, loaded by path without writing bytecode
    next to it (the file imports only the standard library)."""
    path = PACKAGE.parent.parent / "perfbench" / "spans.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_benchmark_span_targets_exist(monkeypatch):
    missing = []
    for name, targets in _benchmark_spans(monkeypatch).items():
        for modname, owner, attr in targets:
            mod = importlib.import_module(f"lielab.{modname}")
            # the recorder reads a method from the class's own __dict__
            holder = getattr(mod, owner) if owner is not None else mod
            if attr not in vars(holder):
                missing.append(f"{name}: lielab.{modname}.{owner + '.' if owner else ''}{attr}")
    assert not missing, "benchmark span targets missing: " + ", ".join(missing)


def test_benchmark_hooks_still_apply():
    # the rref span wraps a cached_property, and the ad_basis hit counter
    # reads the cache key ("ad_basis", i)
    assert isinstance(vars(lielab.Matrix)["_rref"], cached_property)
    L = lielab.sl(lielab.QQ, 2)
    L.ad_basis(1)
    assert ("ad_basis", 1) in L._cache
