"""The oracle itself: what it imports, answers known from the literature,
and mutations planted in its source that those answers must catch."""
import ast
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import oracle

SOURCE = Path(oracle.__file__).read_text()

# the coefficients of [b_i, b_j] for i < j in order: sl2 in the basis
# e, h, f ([e, h] = -2e, [e, f] = h, [h, f] = -2f), and the Heisenberg
# algebra of dimension 3 ([x, y] = z)
SL2 = [-2, 0, 0, 0, 1, 0, 0, 0, -2]
HEISENBERG1 = [0, 0, 1, 0, 0, 0, 0, 0, 0]
# su2 as the trace-zero quaternions: [i, j] = 2k, [i, k] = -2j, [j, k] = 2i
SU2Q = [0, 0, 2, 0, -2, 0, 2, 0, 0]
# the companion matrix of t^3 - 2t + 5
COMPANION = [[0, 0, -5], [1, 0, 2], [0, 1, 0]]

KNOWN = {
    # every derivation of sl2 is inner
    "der-sl2": (3, True),
    "h2-heisenberg1": 2,
    # psl3 over F_3 is a Hamiltonian algebra: Der 14 and H^2 7, not 8 and 1
    "der-psl3f3": 14,
    "h2-psl3f3": 7,
    "charpoly-companion": (5, -2, 0, 1),
    # ad e is nilpotent on sl2, ad h has the eigenvalues 2, 0, -2
    "nu-sl2": (3, 1),
    # ad x has the eigenvalues 0 and +-2i|x| on su2, so a_1(x) = 4|x|^2
    "a1-su2q": ((4, 4, 4), True, True),
}


def known_answers(o):
    """Each entry of KNOWN as the oracle module o computes it."""
    sl2, heisenberg1, psl3 = o.from_coefficients(0, 3, SL2), o.from_coefficients(0, 3, HEISENBERG1), o.psl3_mod3()
    ads = [[x for row in o.ad(sl2, b) for x in row] for b in o.identity(0, 3)]
    der = o.der(sl2)
    return {
        "der-sl2": (len(der), der == o.span(0, 9, ads)),
        "h2-heisenberg1": len(o.cocycles(heisenberg1)) - len(o.coboundaries(heisenberg1)),
        "der-psl3f3": len(o.der(psl3)),
        "h2-psl3f3": len(o.cocycles(psl3)) - len(o.coboundaries(psl3)),
        "charpoly-companion": o.char_poly(0, COMPANION),
        "nu-sl2": (o.nu(sl2, (1, 0, 0)), o.nu(sl2, (0, 1, 0))),
        "a1-su2q": o.definite_a1(o.from_coefficients(0, 3, SU2Q)),
    }


def test_imports_only_the_standard_library():
    modules = set()
    for node in ast.walk(ast.parse(SOURCE)):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            modules.add(node.module.split(".")[0])
    assert modules and modules <= set(sys.stdlib_module_names), modules - set(sys.stdlib_module_names)
    assert "lielab" not in modules


# The references that pin internal contracts, each named in the docstring of
# test_residue_kernel.py, with the local ref_scan through which
# test_exhaustive_deciders_match_the_point_walk reads ref_scan_exhaustive.
# Every other check reads the oracle, so a replaced body kept as a reference,
# named ref_* or reference_*, shows up here.
CONTRACTS = {
    "test_residue_kernel.py": {
        "ref_enum_algebra",
        "ref_map_equations",
        "ref_equation_row",
        "ref_centroid_rows",
        "ref_scan_exhaustive",
        "test_exhaustive_deciders_match_the_point_walk.ref_scan",
    },
}


def references(source):
    """The qualified name of every function named ref_* or reference_* in source."""
    found = set()

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(child, ast.ClassDef) and child.name.startswith(("ref_", "reference_")):
                    found.add(prefix + child.name)
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(source), "")
    return found


def test_the_references_are_the_documented_contracts():
    tests = Path(__file__).resolve().parent
    found = {path.name: references(path.read_text()) for path in sorted(tests.rglob("*.py"))}
    assert {name: refs for name, refs in found.items() if refs} == CONTRACTS
    doc = ast.get_docstring(ast.parse((tests / "test_residue_kernel.py").read_text()))
    assert all(name.rsplit(".", 1)[-1] in doc for name in CONTRACTS["test_residue_kernel.py"])


def test_reference_scan_sees_nested_definitions():
    source = "class T:\n    def ref_a(self):\n        def ref_b():\n            pass\n\ndef f():\n    async def ref_c():\n        pass\n"
    assert references(source) == {"T.ref_a", "T.ref_a.ref_b", "f.ref_c"}
    assert references("def reference_a():\n    pass\ndef refer():\n    pass\n") == {"reference_a"}


@pytest.mark.parametrize("name", sorted(KNOWN))
def test_known_answer(name):
    assert known_answers(oracle)[name] == KNOWN[name]


def test_scalars_read_from_any_form():
    assert oracle.scalar(0, "-3/6") == Fraction(-1, 2) == oracle.scalar(0, Fraction(-1, 2))
    assert oracle.scalar(5, "-1") == 4 == oracle.scalar(5, Fraction(-1, 1)) == oracle.scalar(5, 9)
    assert oracle.scalar(7, Fraction(1, 2)) == 4


MUTATIONS = {
    # the pivot entries of each null-space vector get the wrong sign
    "pivot-sign": ("            v[c] = _red(p, -row[f])\n", "            v[c] = _red(p, row[f])\n"),
    # the Leibniz rule without its [b_i, phi b_j] term
    "leibniz-term": ("        + [(s * n + j, -c[i][s][r]) for s in range(n) if c[i][s][r]]\n", ""),
    # the cocycle condition without w([b_k, b_i], b_j)
    "cocycle-term": (
        "            for x, y, z in ((i, j, k), (j, k, i), (k, i, j))\n            for m, cm in enumerate(c[x][y])\n",
        "            for x, y, z in ((i, j, k), (j, k, i))\n            for m, cm in enumerate(c[x][y])\n",
    ),
}


def _mutant(old, new):
    assert SOURCE.count(old) == 1, old
    module = types.ModuleType("oracle_mutant")
    exec(compile(SOURCE.replace(old, new), "oracle_mutant", "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_planted_mutation_is_caught(name):
    assert known_answers(_mutant(*MUTATIONS[name])) != KNOWN
