"""Every module imports only names it uses, and every definition is reached.

Each module of the package is parsed with ``ast``; a name bound by a
top-level ``import`` or ``from ... import`` that the module never reads is
dead code and fails here, naming the module and the name.  So is a
top-level function or class that no code of the package reads outside the
definition's own body and that ``lielab.__all__`` does not export, and a
private method (one leading underscore, not a dunder) of a top-level
class that no code of the package reads outside the method's own body.
Dunder functions and methods count as reached: the interpreter calls them
(``__init__.__getattr__`` is the package's lazy-export hook).

``import lielab`` loads no submodule, and ``import lielab.cli`` loads
neither ``dataclasses`` nor ``inspect``; each is checked in a fresh
interpreter.

The benchmark's span recorder (``perfbench/spans.py``) patches named
functions and methods of the package, so each of its targets must exist
here too; a rename fails tier-1, not only the benchmark smoke run.
"""
import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import defaultdict
from functools import cached_property
from pathlib import Path

import pytest

import lielab

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lielab"
MODULES = sorted(PACKAGE.glob("*.py"))


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
    assert {p.stem for p in MODULES} >= {"__init__", "algebra", "cli", "commutator", "fields", "linalg", "regularity"}


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
            dunder = d.name.startswith("__") and d.name.endswith("__")
            if d.name not in exported and not dunder and unread(mod, d):
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
        "a": (
            "def used():\n    return 1\n\ndef selfish(n):\n    return selfish(n - 1)\n\nclass Shown:\n    pass\n"
            "def __getattr__(name):\n    raise AttributeError(name)\n"
        ),
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


def _fresh(code: str) -> dict:
    """The JSON that `code` prints, run in a new interpreter that finds
    the package sources first and writes no bytecode."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_bare_import_loads_no_submodule():
    got = _fresh(
        "import json, sys\n"
        "import lielab\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('lielab.'))\n"
        "table = lielab.catalog.EnumTable.__module__\n"
        "print(json.dumps({'loaded': loaded, 'table': table, 'cli': lielab.cli.__name__}))\n"
    )
    assert got == {"loaded": [], "table": "lielab.catalog", "cli": "lielab.cli"}


def test_cli_import_loads_no_dataclasses_or_inspect():
    got = _fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import lielab.cli\n"
        "print(json.dumps(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))\n"
    )
    assert got == []


def test_every_export_is_its_home_object():
    for name in lielab.__all__:
        home = importlib.import_module(f"lielab.{lielab._HOME[name]}")
        assert getattr(lielab, name) is getattr(home, name), name
        # kept in the package namespace after the first use
        assert vars(lielab)[name] is getattr(home, name), name


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from lielab import *", namespace)
    assert set(lielab.__all__) <= set(namespace)
    assert set(lielab.__all__) <= set(dir(lielab))
    assert {"catalog", "cli", "__version__"} <= set(dir(lielab))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lielab.no_such_name
    assert not hasattr(lielab, "no_such_name")
    with pytest.raises(ImportError):
        exec("from lielab import no_such_name", {})


class TestRecords:
    """The slotted classes that replaced dataclasses keep their
    constructors, checks, equality and repr."""

    def test_verdict_equality(self):
        v = lielab.Verdict.certified("formal-rank", rank=1)
        assert v == lielab.Verdict(lielab.CERTIFIED, "formal-rank", None, {"rank": 1})
        assert v != lielab.Verdict.certified("formal-rank", rank=2)
        assert v != lielab.Verdict.inconclusive(rank=1)
        assert v != (lielab.CERTIFIED, "formal-rank", None, {"rank": 1})
        with pytest.raises(TypeError):
            hash(v)

    def test_verdict_defaults_and_repr(self):
        a, b = lielab.Verdict(lielab.INCONCLUSIVE), lielab.Verdict(lielab.INCONCLUSIVE)
        assert a.evidence == {} and a.evidence is not b.evidence
        assert repr(lielab.Verdict.refuted([1, 2])) == (
            "Verdict(status='refuted', certificate=None, witness=(1, 2), evidence={})"
        )

    def test_verdict_checks(self):
        with pytest.raises(ValueError, match="bad verdict status"):
            lielab.Verdict("maybe")
        with pytest.raises(ValueError, match="witness"):
            lielab.Verdict(lielab.REFUTED)

    def test_commutator_witness_recheck(self):
        L = lielab.sl(lielab.QQ, 2)
        e, h, f = (L.basis_vector(i) for i in range(3))
        w = lielab.CommutatorWitness(L, h, e, f, "given")
        assert (w.z, w.y, w.provenance) == (e, f, "given")
        with pytest.raises(ValueError, match="witness recheck failed"):
            lielab.CommutatorWitness(L, h, f, e, "forged")
        with pytest.raises(AttributeError):
            w.z = f

    def test_structure_report_keys_and_check(self):
        d = lielab.sl(lielab.QQ, 2).structure_report().to_json_dict()
        assert list(d) == [
            "dim", "abelian", "nilpotent", "solvable", "nilpotency_class", "derived_length",
            "center_dim", "commutant_dim", "killing_rank", "radical_dim", "semisimple",
        ]
        assert (d["dim"], d["semisimple"]) == (3, True)
        with pytest.raises(lielab.StructureError, match="abelian but not nilpotent"):
            lielab.StructureReport(1, True, False, True, None, None, 1, 0, 0, None, None)

    def test_enum_table_positional(self):
        F3 = lielab.GF(3)
        t = lielab.catalog.EnumTable(2, F3, (F3.zero, F3.one), True)
        assert t == lielab.catalog.EnumTable(2, F3, (F3.zero, F3.one), True)
        assert t.algebra().dim == 2
