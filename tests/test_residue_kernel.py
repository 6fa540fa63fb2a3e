"""Three references that pin internal contracts with no mathematical
counterpart, and the tests that read them.  Every other contract of the
exact kernel and the structure layer is checked against ``oracle`` in its
own layer's test file.

``ref_scan_exhaustive`` is the walk order and ``scanned`` count of the
exhaustive scan; ``test_exhaustive_deciders_match_the_point_walk`` reads it
through its local ``ref_scan``.  ``ref_enum_algebra`` is the coefficient
layout of ``EnumTable.algebra``.  ``ref_centroid_rows``, with its helpers
``ref_map_equations`` and ``ref_equation_row``, is today's ``centroid``
system, which leaves out [b_i, phi b_i] = 0 (the strict xfail in
``test_algebra.py``), while the oracle's commutant checks the system
``is_simple`` solves.  ``test_oracle.py`` checks that these are the only
``ref_*`` definitions of the suite.
"""
from itertools import product

import pytest

from lielab import LieAlgebra, is_anisotropic, is_nilpotent_free, is_regular_algebra, regularity
from lielab.algebra import _commutant_equations, _map_solutions, centroid, cocycle_space, derivation_algebra
from lielab.budgets import EXHAUSTIVE_CAP, BudgetExceeded
from lielab.fields import GF
from lielab.linalg import Matrix
from lielab.regularity import _rank_by_scan
from lielab.verdict import Verdict

import cases
import oracle

# -- the stored rows against the table they came from -------------------------------


def ref_enum_algebra(t):
    """The dict rebuild EnumTable.algebra made before it passed each pair's
    slice of the flat coefficients: {(i, j): {k: c}} of the nonzero c."""
    table = {}
    pos = 0
    for i in range(t.dim):
        for j in range(i + 1, t.dim):
            entry = {}
            for k in range(t.dim):
                c = t.coeffs[pos]
                pos += 1
                if c:
                    entry[k] = c
            if entry:
                table[(i, j)] = entry
    return LieAlgebra(t.field, tuple(f"b{s + 1}" for s in range(t.dim)), table, _validated=True)


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=["F2", "F3"])
def test_census_algebra_matches_the_dict_rebuild(field):
    """Every valid dimension-3 table: EnumTable.algebra against the dict
    rebuild it replaced."""
    tables = cases.census_tables(3, field)
    assert len(tables) == {2: 120, 3: 1431}[field.p]
    for t in tables:
        L, ref = t.algebra(), ref_enum_algebra(t)
        assert L._rows == ref._rows and L.canonical_json() == ref.canonical_json()


# -- equation systems against the oracle's dense rows --------------------------------


def ref_map_equations(L):
    """The equation parts in field scalars, (offset, [(key, c), ...]) with
    coefficient c on the unknown offset + key: the r-th coordinates of
    phi[b_i, b_j], [phi b_i, b_j] and [b_i, phi b_j], unknown phi[r][k] at
    r * n + k."""
    n = L.dim
    bra = [[L.basis_bracket(s, j) for j in range(n)] for s in range(n)]
    left = [[[(s * n, bra[s][j][r]) for s in range(n) if bra[s][j][r]] for r in range(n)] for j in range(n)]
    right = [[[(s * n, bra[i][s][r]) for s in range(n) if bra[i][s][r]] for r in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            image = tuple(L.table.get((i, j), {}).items())
            for r in range(n):
                yield (r * n, image), (i, left[j][r]), (j, right[i][r])


def ref_equation_row(field, n, image, *brackets):
    """Dense row of image minus the bracket parts, over the n * n unknowns."""
    row = [field.zero] * (n * n)
    offset, part = image
    for key, c in part:
        row[offset + key] = row[offset + key] + c
    for offset, part in brackets:
        for key, c in part:
            row[offset + key] = row[offset + key] - c
    return tuple(row)


def ref_centroid_rows(L):
    """Today's centroid system: phi[b_i, b_j] = [phi b_i, b_j] and
    phi[b_i, b_j] = [b_i, phi b_j] for i < j, with no row for
    [b_i, phi b_i] = 0."""
    return [
        ref_equation_row(L.field, L.dim, image, part)
        for image, left, right in ref_map_equations(L)
        for part in (left, right)
    ]


# The canonical instances and the 1 431 Jacobi-valid dimension-3 tables
# over F_3 (the case None) are solved by the oracle's elimination; the
# larger benchmark tables (225 unknowns for Der(sl4)) by Matrix.kernel,
# which test_linalg.py holds to the oracle.
EQUATION_CASES = (
    [(name, L, True) for name, L in cases.canonical_instances()]
    + [(name, cases.input_table(name), False) for name in ("sl4q", "gl3f5", "heisenberg2q")]
    + [("census3@F3", None, True)]
)


def _dense_solutions(field, rows, ncols, by_reference):
    rows = list(dict.fromkeys(tuple(row) for row in rows if any(row)))
    if by_reference:
        return cases.frows(field, oracle.kernel(field.char, rows, ncols))
    return Matrix(field, rows, ncols=ncols).kernel().rows


@pytest.mark.parametrize("name,L,by_reference", EQUATION_CASES, ids=[c[0] for c in EQUATION_CASES])
def test_equation_systems_match_dense_rows(name, L, by_reference):
    """Der, the centroid, the commutant that ``is_simple`` solves and Z^2
    from the sparse rows are the solution spaces of the dense rows: the
    same canonical echelon basis."""

    def flat(mats):
        return tuple(tuple(c for row in mat.rows for c in row) for mat in mats)

    if L is None:
        algebras = cases.census(3, GF(3))
        assert len(algebras) == 1431
    else:
        algebras = [L]
    for L in algebras:
        n, field, A = L.dim, L.field, cases.oracle_of(L)
        assert flat(derivation_algebra(L)[1]) == _dense_solutions(field, oracle.der_equations(A), n * n, by_reference)
        assert flat(centroid(L)) == _dense_solutions(field, ref_centroid_rows(L), n * n, by_reference)
        commutant = _map_solutions(field, n, _commutant_equations(L), 1)
        assert flat(commutant) == _dense_solutions(field, oracle.commutant_equations(A), n * n, by_reference)
        cocycles = _dense_solutions(field, oracle.cocycle_equations(A), n * (n - 1) // 2, by_reference)
        assert cocycle_space(L).rows == cocycles


# -- the exhaustive F_p walks against the point walks --------------------------------


def ref_scan_exhaustive(L, fails, **known):
    """The exhaustive branch of regularity._scan that walked every nonzero
    point of F_p^n in itertools.product order and counted each one."""
    total = L.field.p**L.dim
    if total > EXHAUSTIVE_CAP:
        raise BudgetExceeded(f"{total} vectors exceed the cap {EXHAUSTIVE_CAP}")
    known["total_nonzero"] = total - 1
    scanned = 0
    for x in product(tuple(L.field.elements()), repeat=L.dim):
        if not any(x):
            continue
        scanned += 1
        if fails(x):
            return Verdict.refuted(x, scanned=scanned, **known)
    return Verdict.certified("exhaustive", scanned=scanned, **known)


DECIDERS = (is_regular_algebra, is_anisotropic, is_nilpotent_free)

FP_CASES = [(f"census{dim}@F{p}", cases.census_tables(dim, GF(p))) for dim, p in ((3, 2), (3, 3), (2, 5))]
FP_CASES += [(name, [L]) for name, L in cases.fp_cases(cases.named_cases())]


def _exhaustive_answers(source):
    L = cases.fresh(source)
    answers = [decide(L, mode="exhaustive") for decide in DECIDERS]
    return answers, [_rank_by_scan(L, lower) for lower in (0, 1)]


@pytest.mark.parametrize("name,sources", FP_CASES, ids=[c[0] for c in FP_CASES])
def test_exhaustive_deciders_match_the_point_walk(name, sources, monkeypatch):
    """The three exhaustive deciders give the verdicts of the walk of every
    nonzero point (status, witness and every evidence key, ``scanned``
    included), and the rank scan the least nu of every point."""
    if name.startswith("census3"):
        assert len(sources) == {"census3@F2": 120, "census3@F3": 1431}[name]
    scan = regularity._scan

    def ref_scan(L, mode, seed, fails, **known):
        if mode == "exhaustive":
            return ref_scan_exhaustive(L, fails, **known)
        return scan(L, mode, seed, fails, **known)

    for source in sources:
        got = _exhaustive_answers(source)
        with monkeypatch.context() as patch:
            patch.setattr(regularity, "_scan", ref_scan)
            patch.setattr(regularity, "_rank_by_scan", lambda L, lower=1: oracle.pointwise_rank(cases.oracle_of(L), lower))
            want = _exhaustive_answers(source)
        assert got == want, source
        assert [list(v.evidence) for v in got[0]] == [list(v.evidence) for v in want[0]]
