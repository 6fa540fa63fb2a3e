"""The cases the suite draws from, built in one place: the benchmark's
input tables, the named cases, the valid dimension-3 censuses, scalar
strategies, fresh copies of a table, and the oracle's answers as lielab
objects.

Every builder returns new algebras on each call, so no cached answer
carries over from one test file, or one test, to the next.
"""
import json
from fractions import Fraction
from functools import lru_cache
from operator import mul
from pathlib import Path

import pytest
from hypothesis import strategies as st

from lielab.algebra import LieAlgebra
from lielab.budgets import EXHAUSTIVE_CAP
from lielab.catalog import abelian, enumerate_tables, gl, heisenberg, pgl, psl, r2, sl, strict_upper, su2q
from lielab.fields import GF, QQ
from lielab.linalg import Matrix, Subspace

import oracle

FIELDS = [QQ, GF(2), GF(3), GF(5), GF(7), GF(2147483647)]

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
INPUT_PATHS = sorted(INPUTS.glob("*.json"))


# -- tables --------------------------------------------------------------------


def input_table(name):
    """The benchmark table ``perfbench/inputs/<name>.json``."""
    return LieAlgebra.from_json_dict(json.loads((INPUTS / f"{name}.json").read_text()))


def input_tables():
    """(name, L) for every benchmark table, by file name."""
    return [(path.stem, input_table(path.stem)) for path in INPUT_PATHS]


def canonical_instances():
    """The fixed cross-field instance list of the invariant sweeps and the
    golden ``analyze`` digests, in their order."""
    F3, F5 = GF(3), GF(5)
    return [
        ("abelian3@Q", abelian(QQ, 3)),
        ("heisenberg1@Q", heisenberg(QQ, 1)),
        ("heisenberg2@Q", heisenberg(QQ, 2)),
        ("r2@Q", r2(QQ)),
        ("r2@F3", r2(F3)),
        ("sl2@Q", sl(QQ, 2)),
        ("sl2@F5", sl(F5, 2)),
        ("gl2@Q", gl(QQ, 2)),
        ("su2q", su2q()),
        ("strict_upper4@Q", strict_upper(QQ, 4)),
        ("psl3@F3", psl(F3, 3)),
        ("pgl3@F3", pgl(F3, 3)),
    ]


def named_cases():
    """The canonical instances, then the benchmark tables; a table named
    like a canonical instance is named by its file (``su2q.json``)."""
    canonical = canonical_instances()
    taken = {name for name, _ in canonical}
    return canonical + [(f"{name}.json" if name in taken else name, L) for name, L in input_tables()]


def fp_cases(named):
    """The cases over F_p whose p^dim points the exhaustive scans may walk."""
    return [(name, L) for name, L in named if L.field.kind == "Fp" and L.field.p**L.dim <= EXHAUSTIVE_CAP]


def q_cases(named):
    return [(name, L) for name, L in named if L.field.kind == "Q"]


def params(named):
    """(name, L) pairs as pytest parameters named by the case."""
    return [pytest.param(name, L, id=name) for name, L in named]


@lru_cache(maxsize=None)
def census_tables(dim, field):
    """The Jacobi-valid tables of dimension dim over field, enumerated once."""
    return tuple(t for t in enumerate_tables(dim, field) if t.jacobi_ok)


def census(dim, field):
    """The algebras of the valid tables, built anew on each call."""
    return [t.algebra() for t in census_tables(dim, field)]


def fresh(source):
    """A new algebra on the table of a LieAlgebra or an EnumTable, so no
    cached answer carries over."""
    if isinstance(source, LieAlgebra):
        # a copy of a LieAlgebra satisfies Jacobi: the sweep would only repeat
        return LieAlgebra(source.field, source.labels, source.table, _validated=True)
    return source.algebra()


def rescaled(L, scales):
    """L in the basis b_i / s_i: c_ij^k becomes c_ij^k s_k / (s_i s_j), so
    integer constants turn into fractions."""
    table = {
        (i, j): {k: c * scales[k] / (scales[i] * scales[j]) for k, c in coeffs.items()}
        for (i, j), coeffs in L.table.items()
    }
    return LieAlgebra(L.field, L.labels, table)


# -- scalars and vectors -----------------------------------------------------------


def scalars(field):
    """Small signed fractions over Q; residues, small ones often, over F_p."""
    if field.kind == "Q":
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    small = st.integers(0, min(field.p - 1, 3))
    return st.one_of(small, st.integers(0, field.p - 1)).map(field.of)


def qvec(*cs):
    return tuple(QQ.of(c) for c in cs)


# -- the oracle's answers as lielab objects ------------------------------------------
#
# The oracle answers in ints mod p and Fractions.  These build lielab objects
# from its answers with the constructors alone, with no elimination, so that
# == compares the field, the shape or ambient and every scalar, over F_p its
# prime too.


def oracle_of(L):
    """L as the oracle reads it: from its JSON document."""
    return oracle.read(L.to_json_dict())


def fvec(field, v):
    return tuple(map(field.of, v))


def frows(field, rows):
    return tuple(fvec(field, r) for r in rows)


def space(field, n, rows):
    """The oracle's reduced echelon rows as a Subspace of field^n."""
    return Subspace(field, n, rows, tuple(next(j for j, c in enumerate(r) if c) for r in rows))


def form_value(form, x, y):
    """x^T G y for the BilinearForm with Gram matrix G."""
    return sum(map(mul, x, form.gram.apply(y)), form.algebra.field.zero)


def fsquare(field, rows):
    return Matrix(field, rows, ncols=len(rows))
