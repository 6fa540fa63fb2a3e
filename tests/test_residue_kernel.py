"""The exact kernel and the structure layer against ``oracle``, which
computes each object from its definition, over Q and F_p.

Three references pin internal contracts with no mathematical counterpart:
``ref_scan_exhaustive``, the walk order and ``scanned`` count of the
exhaustive scan; ``ref_enum_algebra``, the coefficient layout of
``EnumTable.algebra``; ``ref_centroid_rows``, today's ``centroid`` system,
which leaves out [b_i, phi b_i] = 0 (the strict xfail in
``test_algebra.py``), while the oracle's commutant checks the system
``is_simple`` solves.
"""
import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lielab import (
    LieAlgebra,
    abelian,
    gl,
    heisenberg,
    is_anisotropic,
    is_nilpotent_free,
    is_regular_algebra,
    pgl,
    r2,
    regularity,
    sl,
    strict_upper,
    su2q,
    zero_multiplicity,
)
from lielab.algebra import (
    BilinearForm,
    StructureError,
    _ad_envelope_is_full,
    _commutant_equations,
    _jacobi_defects,
    _map_solutions,
    _projective_points,
    _refuted_by_ideal,
    centroid,
    cocycle_space,
    derivation_algebra,
    direct_sum,
    quotient_with_projection,
)
from lielab.budgets import EXHAUSTIVE_CAP, SYMBOLIC_DIM, BudgetExceeded
from lielab.catalog import canonical_instances, enumerate_tables
from lielab.fields import GF, QQ, MultiPoly, UniPoly
from lielab.linalg import _Echelon, Matrix, Subspace, vec_add
from lielab.regularity import (
    _ideal_actions,
    _rank_by_scan,
    char_poly_factorization,
    fitting_set,
    linear_family_char_coeffs,
    relative_rank,
)
from lielab.verdict import RecheckFailed, Verdict

import oracle

FIELDS = [QQ, GF(2), GF(3), GF(5), GF(7), GF(2147483647)]


INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


def oracle_of(L):
    """L as the oracle reads it: from its JSON document."""
    return oracle.read(L.to_json_dict())


# The oracle's answers, ints mod p and Fractions, as lielab objects built by
# the constructors alone, with no elimination, so that == compares the field,
# the shape or ambient and every scalar, over F_p its prime too.


def fvec(field, v):
    return tuple(map(field.of, v))


def frows(field, rows):
    return tuple(fvec(field, r) for r in rows)


def space(field, n, rows):
    """The oracle's reduced echelon rows as a Subspace of field^n."""
    return Subspace(field, n, rows, tuple(next(j for j, c in enumerate(r) if c) for r in rows))


def fsquare(field, rows):
    return Matrix(field, rows, ncols=len(rows))


def _input_table(name):
    return LieAlgebra.from_json_dict(json.loads((INPUTS / f"{name}.json").read_text()))


NAMED_CASES = [(name, L) for name, L in canonical_instances()] + [
    (path.stem, _input_table(path.stem)) for path in sorted(INPUTS.glob("*.json"))
]


# -- strategies --------------------------------------------------------------


def scalars(field):
    """Small signed fractions over Q; residues, small ones often, over F_p."""
    if field.kind == "Q":
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    small = st.integers(0, min(field.p - 1, 3))
    return st.one_of(small, st.integers(0, field.p - 1)).map(field.of)


@st.composite
def matrices(draw, square=False):
    """(field, rows, ncols): full-rank-ish or forced rank-deficient,
    including the empty shapes 0x0, m x 0 and 0 x n; when not square, also
    sparse and wide like the equation systems (up to 12 x 24, at most three
    nonzeros in a fresh row, some rows sums of two earlier ones)."""
    field = draw(st.sampled_from(FIELDS))
    entry = scalars(field)
    if not square and draw(st.booleans()):
        n = draw(st.integers(1, 24))
        rows = []
        for _ in range(draw(st.integers(1, 12))):
            if len(rows) > 1 and draw(st.integers(0, 3)) == 0:
                a, b = draw(st.lists(st.sampled_from(range(len(rows))), min_size=2, max_size=2))
                rows.append(vec_add(rows[a], rows[b]))
                continue
            row = [field.zero] * n
            for col in draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)):
                row[col] = field.of(draw(entry))
            rows.append(tuple(row))
        return field, rows, n
    m = draw(st.integers(0, 6))
    n = m if square else draw(st.integers(0, 6))
    if draw(st.booleans()) and m and n:
        # rank at most k: every row a combination of k base rows
        k = draw(st.integers(0, min(m, n) - 1))
        base = [[draw(entry) for _ in range(n)] for _ in range(k)]
        coef = [[draw(entry) for _ in range(k)] for _ in range(m)]
        rows = [[sum(c * b[j] for c, b in zip(cr, base)) for j in range(n)] for cr in coef]
    else:
        rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    return field, [tuple(field.of(c) for c in row) for row in rows], n


# -- kernel against the oracle ---------------------------------------------------


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_rref_matches_reference(case):
    field, rows, n = case
    want, pivots = oracle.rref(field.char, rows, n)
    assert Matrix(field, rows, ncols=n).rref() == (frows(field, want), pivots)


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_kernel_matches_reference(case):
    field, rows, n = case
    mat = Matrix(field, rows, ncols=n)
    ker = mat.kernel()
    assert ker == space(field, n, oracle.kernel(field.char, rows, n))
    assert ker.dim + mat.rank() == n


@given(matrices(), st.data())
@settings(max_examples=120, deadline=None)
def test_solve_matches_reference(case, data):
    field, rows, n = case
    m = len(rows)
    if data.draw(st.booleans()):
        # a consistent right-hand side: the image of a random x
        x = [data.draw(scalars(field)) for _ in range(n)]
        b = tuple(map(field.of, oracle.apply(field.char, rows, x)))
    else:
        b = tuple(data.draw(scalars(field)) for _ in range(m))
    got = Matrix(field, rows, ncols=n).solve(b)
    want = oracle.solve(field.char, rows, n, b)
    assert got == (None if want is None else fvec(field, want))
    if got is not None:
        assert fvec(field, oracle.apply(field.char, rows, got)) == tuple(b)


@given(matrices(square=True))
@settings(max_examples=120, deadline=None)
def test_char_poly_matches_reference(case):
    field, rows, n = case
    assert Matrix(field, rows, ncols=n).char_poly() == UniPoly(field, oracle.char_poly(field.char, rows))


@given(matrices(square=True))
@settings(max_examples=100, deadline=None)
def test_min_poly_matches_reference(case):
    field, rows, n = case
    assert Matrix(field, rows, ncols=n).min_poly() == UniPoly(field, oracle.min_poly(field.char, rows))


def _diag(entries):
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


def _jordan(sizes):
    """Nilpotent Jordan blocks of the given sizes, as one matrix."""
    n = sum(sizes)
    rows = [[0] * n for _ in range(n)]
    start = 0
    for size in sizes:
        for i in range(start, start + size - 1):
            rows[i][i + 1] = 1
        start += size
    return rows


# matrices with a known minimal polynomial, most of them derogatory (degree
# below n), which random matrices almost never are
KNOWN_MIN_POLYS = {
    "empty": (QQ, [], UniPoly.one(QQ)),
    "zero-q": (QQ, [[0] * 3 for _ in range(3)], UniPoly(QQ, [0, 1])),
    "zero-f5": (GF(5), [[0] * 2 for _ in range(2)], UniPoly(GF(5), [0, 1])),
    "scalar-f7": (GF(7), _diag([3] * 4), UniPoly(GF(7), [-3, 1])),
    "diag-1-1-2-q": (QQ, _diag([1, 1, 2]), UniPoly(QQ, [2, -3, 1])),
    "diag-0-1-2-f3": (GF(3), _diag([0, 1, 2]), UniPoly(GF(3), [0, -1, 0, 1])),
    "jordan-3-1-q": (QQ, _jordan([3, 1]), UniPoly(QQ, [0, 0, 0, 1])),
    "jordan-3-1-f2": (GF(2), _jordan([3, 1]), UniPoly(GF(2), [0, 0, 0, 1])),
    # eigenvalues 0, +-1, +-2: t(t^2 - 1)(t^2 - 4), over F_5 t^5 - t
    "ad-h1-sl3-q": (QQ, sl(QQ, 3).ad_basis(3).rows, UniPoly(QQ, [0, 4, 0, -5, 0, 1])),
    "ad-h1-sl3-f5": (GF(5), sl(GF(5), 3).ad_basis(3).rows, UniPoly(GF(5), [0, -1, 0, 0, 0, 1])),
    "blocks-q": (
        QQ,
        [
            [Fraction(1, 2), Fraction(2, 3), 0, 0, 0],
            [Fraction(-3, 4), Fraction(5, 2), 0, 0, 0],
            [0, 0, Fraction(1, 2), Fraction(2, 3), 0],
            [0, 0, Fraction(-3, 4), Fraction(5, 2), 0],
            [0, 0, 0, 0, Fraction(1, 2)],
        ],
        # (t^2 - 3t + 7/4)(t - 1/2): 1/2 is no root of the block's factor
        UniPoly(QQ, [Fraction(-7, 8), Fraction(13, 4), Fraction(-7, 2), 1]),
    ),
}


@pytest.mark.parametrize("name", sorted(KNOWN_MIN_POLYS))
def test_min_poly_of_known_matrices(name):
    field, rows, want = KNOWN_MIN_POLYS[name]
    rows = [tuple(field.of(c) for c in row) for row in rows]
    got = Matrix(field, rows, ncols=len(rows)).min_poly()
    assert got == UniPoly(field, oracle.min_poly(field.char, rows))
    assert got == want


@st.composite
def products(draw):
    """(field, a, b, k, n, v): a is m x k, b is k x n and v has length k,
    every size 0..5, so rectangular and empty shapes come up."""
    field = draw(st.sampled_from(FIELDS))
    entry = scalars(field)
    m, k, n = (draw(st.integers(0, 5)) for _ in range(3))
    a = [tuple(field.of(draw(entry)) for _ in range(k)) for _ in range(m)]
    b = [tuple(field.of(draw(entry)) for _ in range(n)) for _ in range(k)]
    v = tuple(field.of(draw(entry)) for _ in range(k))
    return field, a, b, k, n, v


def _in_field(field, rows):
    return all(field.contains(c) for row in rows for c in row)


@given(products())
@settings(max_examples=150, deadline=None)
def test_product_and_apply_match_reference(case):
    field, a, b, k, n, v = case
    ma = Matrix(field, a, ncols=k)
    prod = ma * Matrix(field, b, ncols=n)
    assert (prod.m, prod.n) == (len(a), n)
    assert prod == Matrix(field, oracle.matmul(field.char, a, b, n), ncols=n)
    assert _in_field(field, prod.rows)
    got = ma.apply(v)
    assert got == fvec(field, oracle.apply(field.char, a, v))
    assert _in_field(field, [got])


@given(matrices(square=True), st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_power_matches_reference(case, e):
    field, rows, n = case
    got = Matrix(field, rows, ncols=n) ** e
    assert got == fsquare(field, oracle.power(field.char, rows, e))
    assert _in_field(field, got.rows)


def test_empty_shapes():
    for field in FIELDS:
        for m, n in ((0, 0), (3, 0), (0, 4)):
            mat = Matrix(field, [()] * m, ncols=n)
            assert mat.rref() == ((), ())
            assert mat.kernel().dim == n
            assert mat.solve((field.zero,) * m) == (field.zero,) * n
        assert Matrix(field, [], ncols=0).char_poly() == UniPoly.one(field)


# -- residue zero multiplicity against the char poly ------------------------------


def _first_nonzero(poly):
    return next(i for i, c in enumerate(poly.coeffs) if c)


def test_zero_multiplicity_sl2_f5_every_point():
    F5 = GF(5)
    L = sl(F5, 2)
    A = oracle_of(L)
    for x in product(tuple(F5.elements()), repeat=L.dim):
        nu = zero_multiplicity(L, x)
        assert nu == _first_nonzero(L.ad(x).char_poly())
        assert nu == oracle.nu(A, x)


def test_zero_multiplicity_pgl3_f3_every_point():
    F3 = GF(3)
    L = pgl(F3, 3)
    A = oracle_of(L)
    elements = tuple(F3.elements())
    for idx, x in enumerate(product(elements, repeat=L.dim)):
        nu = zero_multiplicity(L, x)
        assert nu == _first_nonzero(L.ad(x).char_poly()), x
        if idx % 97 == 0:
            assert nu == oracle.nu(A, x), x


# -- sparse table against the oracle ---------------------------------------------


TABLE_CASES = [
    sl(QQ, 3),
    gl(QQ, 2),
    heisenberg(QQ, 2),
    su2q(),
    pgl(GF(3), 3),
    gl(GF(5), 2),
    strict_upper(GF(2), 4),
]


@st.composite
def tables(draw):
    """A catalog table, as it is or with up to three entries changed, which
    mostly breaks Jacobi."""
    L = draw(st.sampled_from(TABLE_CASES))
    table = {key: dict(coeffs) for key, coeffs in L.table.items()}
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, L.dim - 2))
        j = draw(st.integers(i + 1, L.dim - 1))
        table.setdefault((i, j), {})[draw(st.integers(0, L.dim - 1))] = draw(scalars(L.field))
    return LieAlgebra.unchecked(L.field, L.labels, table)


@given(tables(), st.data())
@settings(max_examples=80, deadline=None)
def test_sparse_primitives_match_dense_loops(L, data):
    """Every Jacobi triple with its defect vector, and bracket and ad at
    random elements, equal the oracle's."""
    A = oracle_of(L)
    assert L.jacobi_violations() == [(t, fvec(L.field, d)) for t, d in oracle.jacobi_defects(A)]
    x, y = (tuple(data.draw(scalars(L.field)) for _ in range(L.dim)) for _ in range(2))
    assert L.bracket(x, y) == fvec(L.field, oracle.bracket(A, x, y))
    assert L.ad(x) == Matrix(L.field, oracle.ad(A, x), ncols=L.dim)


def _with_changed_constant(L, value):
    table = {key: dict(coeffs) for key, coeffs in L.table.items()}
    key = sorted(table)[3]
    k = min(table[key])
    table[key][k] = table[key][k] + value
    return LieAlgebra.unchecked(L.field, L.labels, table)


def _kernel_triples(field, n, rows):
    """The triples and defects with the type of each entry."""
    return [(t, d, [type(x) for x in d]) for t, d in _jacobi_defects(field, n, rows)]


def _kernel_type(x):
    """The type of x as a kernel scalar: Fraction where not integral, else int."""
    return Fraction if isinstance(x, Fraction) and x.denominator > 1 else int


def test_jacobi_defects_of_broken_tables():
    """One changed structure constant over Q and over F_5: the full
    violation lists, triples and defects, equal the oracle's, and the
    defects in kernel scalars equal the oracle's, entry types included.
    sl3 over Q in a rescaled basis has Fraction structure constants, and
    some entry of a nonzero defect sums terms with a Fraction factor to an
    integer, which the kernel gets as a Fraction of denominator 1.  sl3
    over F_3 has defect sums that are nonzero multiples of 3 before
    reduction and so no violation."""
    sl3_fractions = _rescaled(sl(QQ, 3), [Fraction(1, 2), 3, Fraction(2, 3), 5, Fraction(1, 3), Fraction(3, 2), 4, Fraction(7, 2)])
    cases = (
        (sl(QQ, 3), Fraction(1, 2)),
        (gl(GF(5), 3), GF(5).of(3)),
        (sl3_fractions, Fraction(1, 3)),
        (sl(GF(3), 3), GF(3).of(1)),
    )
    for L, value in cases:
        broken = _with_changed_constant(L, value)
        bad = broken.jacobi_violations()
        assert bad and bad == [(t, fvec(L.field, d)) for t, d in oracle.jacobi_defects(oracle_of(broken))]
        assert L.jacobi_violations() == oracle.jacobi_defects(oracle_of(L)) == []
        for A in (L, broken):
            want = [(t, list(d), [_kernel_type(x) for x in d]) for t, d in oracle.jacobi_defects(oracle_of(A))]
            assert _kernel_triples(A.field, A.dim, A._rows) == want
    # the cases are what the docstring says
    B = oracle_of(_with_changed_constant(sl3_fractions, Fraction(1, 3)))
    cyclic = [((i, j, k), (j, k, i), (k, i, j)) for (i, j, k), _ in oracle.jacobi_defects(B)]
    terms = [[(B.c[a][b][m], B.c[m][c][l]) for a, b, c in t for m in range(B.n)] for t in cyclic for l in range(B.n)]
    terms = [[(x, y) for x, y in ts if x and y] for ts in terms]
    assert any(Fraction in map(_kernel_type, sum(ts, ())) and sum(x * y for x, y in ts).denominator == 1 for ts in terms)
    # sl3 over F_3 read over the integers: residues for i < j, as stored
    A3 = oracle_of(sl(GF(3), 3))
    sums = [d for _, d in oracle.jacobi_defects(oracle.from_coefficients(0, 8, [x for i, j in oracle.pairs(8) for x in A3.c[i][j]]))]
    assert any(any(d) for d in sums) and all(x % 3 == 0 for d in sums for x in d)


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
    return LieAlgebra.unchecked(t.field, tuple(f"b{s + 1}" for s in range(t.dim)), table)


def _assert_stored_rows(L):
    """The rows are antisymmetric with an empty diagonal, no empty cell,
    no zero and no repeated component in a cell, and canonical kernel
    scalars above the diagonal; the table view rebuilds the same rows."""
    rows, to_k = L._rows, L.field._to_k
    assert len(rows) == L.dim
    for i, row in enumerate(rows):
        assert i not in row
        for j, cell in row.items():
            ks, cs = [k for k, _ in cell], [c for _, c in cell]
            assert cell and len(set(ks)) == len(ks) and all(to_k(cs))
            mirror = rows[j][i]
            assert [k for k, _ in mirror] == ks
            assert to_k([c for _, c in mirror]) == to_k([-c for c in cs])
            if i < j:
                assert to_k(cs) == cs
    assert LieAlgebra(L.field, L.labels, L.table)._rows == rows


@pytest.mark.parametrize("name,L", NAMED_CASES, ids=[c[0] for c in NAMED_CASES])
def test_stored_rows(name, L):
    _assert_stored_rows(L)


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=["F2", "F3"])
def test_stored_rows_of_the_census(field):
    """Every valid dimension-3 table: the rows, and EnumTable.algebra
    against the dict rebuild it replaced."""
    valid = 0
    for t in enumerate_tables(3, field):
        if t.jacobi_ok:
            valid += 1
            L, ref = t.algebra(), ref_enum_algebra(t)
            assert L._rows == ref._rows and L.canonical_json() == ref.canonical_json()
            _assert_stored_rows(L)
    assert valid == {2: 120, 3: 1431}[field.p]


# -- ideal and subalgebra closures against the fixed points ------------------------


def _vectors(L, data, count):
    """Up to count vectors of small integers, residues over F_p."""
    lo, hi = (0, L.field.p - 1) if L.field.kind == "Fp" else (-3, 3)
    return data.draw(st.lists(st.lists(st.integers(lo, hi), min_size=L.dim, max_size=L.dim), max_size=count))


IDEAL_CASES = [
    pgl(GF(3), 3),
    gl(GF(5), 2),
    strict_upper(GF(2), 4),
    heisenberg(QQ, 2),
    strict_upper(QQ, 4),
    gl(QQ, 2),
]


@given(st.sampled_from(IDEAL_CASES), st.data())
@settings(max_examples=60, deadline=None)
def test_ideal_generated_matches_fixed_point(L, data):
    """Same canonical echelon rows, so the worklist basis is fully reduced."""
    vectors = _vectors(L, data, 2)
    assert L.ideal_generated(vectors) == space(L.field, L.dim, oracle.ideal(oracle_of(L), vectors))


@given(st.sampled_from(IDEAL_CASES), st.data())
@settings(max_examples=60, deadline=None)
def test_is_ideal_matches_the_field_scalar_loop(L, data):
    """On the span of random vectors, mostly not an ideal, and on the ideal
    they generate."""
    vectors = _vectors(L, data, 3)
    span = Subspace.from_vectors(L.field, L.dim, [L.coerce_vector(v) for v in vectors])
    A = oracle_of(L)
    assert L.is_ideal(span) == oracle.is_ideal(A, span.rows)
    ideal = L.ideal_generated(vectors)
    assert L.is_ideal(ideal) and oracle.is_ideal(A, ideal.rows)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
def test_is_ideal_reads_every_row(field):
    """The Borel span {e, h} of sl2: [b_i, e] lies in it for every b_i, but
    [f, h] = 2f does not, so only its second echelon row refutes it."""
    L = sl(field, 2)
    e, h, f = (L.basis_vector(L.labels.index(name)) for name in ("e", "h", "f"))
    borel = Subspace.from_vectors(field, 3, [e, h])
    assert L.is_subalgebra(borel)
    assert not L.is_ideal(borel) and not oracle.is_ideal(oracle_of(L), borel.rows)
    assert L.is_ideal(L.ideal_generated([h])) and L.ideal_generated([h]).is_full()


def test_is_ideal_refuses_a_subspace_of_another_algebra():
    """Over another field, or of another ambient dimension, also when the
    subspace has no rows to bracket."""
    L = sl(QQ, 2)
    for space in (Subspace.full_space(GF(5), 3), Subspace.zero_space(GF(5), 3)):
        with pytest.raises(TypeError):
            L.is_ideal(space)
    for space in (Subspace.full_space(QQ, 4), Subspace.full_space(QQ, 2), Subspace.zero_space(QQ, 4)):
        with pytest.raises(ValueError):
            L.is_ideal(space)


@given(st.sampled_from(IDEAL_CASES), st.data())
@settings(max_examples=60, deadline=None)
def test_subalgebra_generated_matches_fixed_point(L, data):
    vectors = _vectors(L, data, 3)
    assert L.subalgebra_generated(vectors) == space(L.field, L.dim, oracle.subalgebra(oracle_of(L), vectors))


def test_subalgebra_generated_brackets_with_every_row():
    """H2, E12 and E21 generate a 4-dimensional subalgebra of sl3 only
    through [E12, E21] = H1, a bracket of the second and third vectors."""
    L = sl(QQ, 3)
    seeds = [L.basis_vector(L.labels.index(name)) for name in ("H2", "E12", "E21")]
    got = L.subalgebra_generated(seeds)
    assert got == space(L.field, L.dim, oracle.subalgebra(oracle_of(L), seeds)) and got.dim == 4


# -- the ideal and quotient actions against the oracle ----------------------------


def _first_summand(L):
    return Subspace.from_vectors(L.field, L.dim, [L.basis_vector(i) for i in range(L.dim // 2)])


ACTION_CASES = {
    "r2-q-line-y": (lambda: r2(QQ), lambda L: Subspace.from_vectors(QQ, 2, [L.basis_vector(1)])),
    "sl2+sl2-q-summand": (lambda: direct_sum(sl(QQ, 2), sl(QQ, 2)), _first_summand),
    "r2-f3-commutant": (lambda: r2(GF(3)), LieAlgebra.commutant),
    "gl2-q-commutant": (lambda: gl(QQ, 2), LieAlgebra.commutant),
    "heisenberg2-q-center": (lambda: heisenberg(QQ, 2), LieAlgebra.center),
    "gl3-f5-center": (lambda: gl(GF(5), 3), LieAlgebra.center),
}


def _action_case(name):
    build, ideal_of = ACTION_CASES[name]
    L = build()
    return L, ideal_of(L)


def _oracle_actions(L, ideal):
    """The oracle's inner and outer action matrices of every basis vector."""
    A = oracle_of(L)
    actions = [oracle.ideal_actions(A, ideal.rows, b) for b in oracle.identity(A.p, A.n)]
    return [inner for inner, _ in actions], [outer for _, outer in actions]


@pytest.mark.parametrize("name", sorted(ACTION_CASES))
def test_quotient_action_matches_coset_loop(name):
    L, ideal = _action_case(name)
    assert 0 < ideal.dim < L.dim
    inner, outer = _oracle_actions(L, ideal)
    quot, project = quotient_with_projection(L, ideal)
    assert [quot.ad(project(L.basis_vector(m))) for m in range(L.dim)] == [fsquare(L.field, m) for m in outer]
    if L.dim <= SYMBOLIC_DIM:
        coeffs = [oracle.linear_family_char_coeffs(L.field.char, m, L.dim) for m in (inner, outer)]
        want = tuple(next(k for k, a in enumerate(c) if a) for c in coeffs)
        assert relative_rank(L, ideal) == want
    else:
        with pytest.raises(BudgetExceeded):
            relative_rank(L, ideal)
    for x in [L.basis_vector(i) for i in range(L.dim)] + [tuple(L.field.of(i + 1) for i in range(L.dim))]:
        chi_i, chi_q, chi_l = char_poly_factorization(L, ideal, x)
        assert chi_q == UniPoly(L.field, oracle.char_poly(L.field.char, oracle.combine(L.field.char, outer, x)))
        assert chi_i * chi_q == chi_l


@pytest.mark.parametrize("name", sorted(ACTION_CASES))
def test_ideal_actions_match_the_per_basis_matrices(name):
    """The matrices themselves, not only their characteristic polynomials,
    which a transposed restriction would keep."""
    L, ideal = _action_case(name)
    inner, outer = _oracle_actions(L, ideal)
    for m in range(L.dim):
        assert _ideal_actions(L, ideal, L.basis_vector(m)) == (fsquare(L.field, inner[m]), fsquare(L.field, outer[m]))


ACTION_ALGEBRAS = {name: _action_case(name) for name in sorted(ACTION_CASES)}
ACTION_MATRICES = {name: _oracle_actions(*case) for name, case in ACTION_ALGEBRAS.items()}


@given(st.sampled_from(sorted(ACTION_ALGEBRAS)), st.data())
@settings(max_examples=60, deadline=None)
def test_char_poly_factorization_matches_the_combined_matrices(name, data):
    L, ideal = ACTION_ALGEBRAS[name]
    p = L.field.char
    x = tuple(L.field.of(c) for c in data.draw(st.lists(st.integers(-5, 5), min_size=L.dim, max_size=L.dim)))
    want = tuple(oracle.char_poly(p, oracle.combine(p, mats, x)) for mats in ACTION_MATRICES[name])
    want += (oracle.char_poly(p, oracle.ad(oracle_of(L), x)),)
    assert char_poly_factorization(L, ideal, x) == tuple(UniPoly(L.field, c) for c in want)


# -- the End(L) envelope and the closure contract ----------------------------------


def _sl2_sum(field, copies):
    L = sl(field, 2)
    for _ in range(copies - 1):
        L = direct_sum(L, sl(field, 2))
    return L


def test_ad_envelope_matches_the_loop():
    """On the canonical instances, the F_p benchmark inputs, sl4 over F_3,
    F_5 and F_7 and sums of two and three sl2 over F_3 and F_7."""
    cases = [(name, L) for name, L in canonical_instances()]
    cases += [(path.stem, _input_table(path.stem)) for path in sorted(INPUTS.glob("*.json")) if path.stem[-1] != "q"]
    cases += [(f"sl4@F{p}", sl(GF(p), 4)) for p in (3, 5, 7)]
    cases += [(f"sl2^{k}@F{p}", _sl2_sum(GF(p), k)) for k in (2, 3) for p in (3, 7)]
    got = {name: _ad_envelope_is_full(L) for name, L in cases}
    assert got == {name: oracle.envelope_is_full(oracle_of(L)) for name, L in cases}
    assert set(got.values()) == {True, False}


@given(st.sampled_from([QQ, GF(2), GF(5)]), st.data())
@settings(max_examples=80, deadline=None)
def test_close_is_the_fixed_point_of_its_maps(field, data):
    """close gives the least span that holds the seeds and is closed under
    the maps, and a seed set that fills the space asks for no images."""
    n = data.draw(st.integers(1, 5))
    entries = st.integers(0, field.p - 1) if field.kind == "Fp" else st.integers(-2, 2)
    vectors = st.lists(entries, min_size=n, max_size=n)
    maps = [Matrix(field, rows) for rows in data.draw(st.lists(st.lists(vectors, min_size=n, max_size=n), max_size=2))]
    seeds = data.draw(st.lists(vectors, max_size=3))
    calls = []

    def images(v):
        calls.append(v)
        return (field._to_k(m._apply_k(v)) for m in maps)

    got = _Echelon(field, n).close([field._to_k(v) for v in seeds], images).subspace()
    assert got == space(field, n, oracle.close(field.char, n, [m.rows for m in maps], seeds))
    assert all(got.contains(m.apply(r)) for m in maps for r in got.rows)
    calls.clear()
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    assert _Echelon(field, n).close(unit, images).full and calls == []


# -- rechecks on the refutations of the line scan and of the nilpotent-free scan ----


def test_line_scan_refutation_is_rechecked(monkeypatch):
    """A line scan that takes a line of simple sl2/F5 for a proper ideal."""
    from lielab import algebra

    real = LieAlgebra.ideal_generated
    lies = []

    def lying(L, vectors):
        if not lies:
            lies.append(vectors)
            return Subspace.from_vectors(L.field, L.dim, [])
        return real(L, vectors)

    monkeypatch.setattr(algebra, "_ad_envelope_is_full", lambda L: False)
    monkeypatch.setattr(LieAlgebra, "ideal_generated", lying)
    with pytest.raises(RecheckFailed, match="proper nonzero ideal"):
        algebra.is_simple(sl(GF(5), 2))
    assert lies


def test_proper_ideal_refutation_is_rechecked_independently(monkeypatch):
    """A closure that returns the line of e in sl2/Q: proper, nonzero and
    holding the witness, but not an ideal ([f, e] = -h leaves it)."""
    L = sl(QQ, 2)
    e = L.basis_vector(L.labels.index("e"))
    line = Subspace.from_vectors(L.field, L.dim, [e])
    assert not L.is_ideal(line)
    monkeypatch.setattr(LieAlgebra, "ideal_generated", lambda L, vectors: line)
    with pytest.raises(RecheckFailed, match="must be an ideal"):
        _refuted_by_ideal(L, e)


@pytest.mark.parametrize(
    "L,witness_of,message",
    [
        (sl(QQ, 2), lambda L: L.basis_vector(1), "is not t"),
        (gl(QQ, 2), lambda L: L.center().rows[0], "ad x is zero"),
    ],
    ids=["not-nilpotent", "central"],
)
def test_nilpotent_free_refutation_is_rechecked(monkeypatch, L, witness_of, message):
    """A scan that returns a forged witness: one whose ad is not nilpotent,
    and one that is central."""
    witness = witness_of(L)
    monkeypatch.setattr(regularity, "_scan", lambda L, mode, seed, fails, **known: Verdict.refuted(witness))
    with pytest.raises(RecheckFailed, match=message):
        is_nilpotent_free(L)


_FORGED_REFUTATIONS = """
import sys
assert False, "this check needs python -O, which strips asserts"
import lielab
from lielab import algebra, regularity
from lielab.catalog import gl, sl
from lielab.fields import GF, QQ
from lielab.linalg import Subspace
from lielab.verdict import Verdict

raised = []
try:
    L = gl(QQ, 2)
    regularity._scan = lambda L, mode, seed, fails, **known: Verdict.refuted(L.center().rows[0])
    regularity.is_nilpotent_free(L)
except lielab.RecheckFailed as exc:
    raised.append(str(exc))
algebra._ad_envelope_is_full = lambda L: False
algebra.LieAlgebra.ideal_generated = lambda L, vectors: Subspace.from_vectors(L.field, L.dim, [])
try:
    algebra.is_simple(sl(GF(5), 2))
except lielab.RecheckFailed as exc:
    raised.append(str(exc))
L = sl(QQ, 2)
e = L.basis_vector(0)
algebra.LieAlgebra.ideal_generated = lambda L, vectors: Subspace.from_vectors(L.field, L.dim, [e])
try:
    algebra._refuted_by_ideal(L, e)
except lielab.RecheckFailed as exc:
    raised.append(str(exc))
print(raised)
sys.exit(0 if len(raised) == 3 else 1)
"""


def test_forged_refutations_raise_under_python_O():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _FORGED_REFUTATIONS], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


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
# which the tests above hold to the oracle.
EQUATION_CASES = (
    [(name, L, True) for name, L in canonical_instances()]
    + [(name, _input_table(name), False) for name in ("sl4q", "gl3f5", "heisenberg2q")]
    + [("census3@F3", None, True)]
)


def _dense_solutions(field, rows, ncols, by_reference):
    rows = list(dict.fromkeys(tuple(row) for row in rows if any(row)))
    if by_reference:
        return frows(field, oracle.kernel(field.char, rows, ncols))
    return Matrix(field, rows, ncols=ncols).kernel().rows


@pytest.mark.parametrize("name,L,by_reference", EQUATION_CASES, ids=[c[0] for c in EQUATION_CASES])
def test_equation_systems_match_dense_rows(name, L, by_reference):
    """Der, the centroid, the commutant that ``is_simple`` solves and Z^2
    from the sparse rows are the solution spaces of the dense rows: the
    same canonical echelon basis."""

    def flat(mats):
        return tuple(tuple(c for row in mat.rows for c in row) for mat in mats)

    if L is None:
        algebras = [t.algebra() for t in enumerate_tables(3, GF(3)) if t.jacobi_ok]
        assert len(algebras) == 1431
    else:
        algebras = [L]
    for L in algebras:
        n, field, A = L.dim, L.field, oracle_of(L)
        assert flat(derivation_algebra(L)[1]) == _dense_solutions(field, oracle.der_equations(A), n * n, by_reference)
        assert flat(centroid(L)) == _dense_solutions(field, ref_centroid_rows(L), n * n, by_reference)
        commutant = _map_solutions(field, n, _commutant_equations(L), 1)
        assert flat(commutant) == _dense_solutions(field, oracle.commutant_equations(A), n * n, by_reference)
        cocycles = _dense_solutions(field, oracle.cocycle_equations(A), n * (n - 1) // 2, by_reference)
        assert cocycle_space(L).rows == cocycles


# -- structure layer against the oracle ------------------------------------------------


def _rescaled(L, scales):
    """L in the basis b_i / s_i: c_ij^k becomes c_ij^k s_k / (s_i s_j), so
    integer constants turn into fractions."""
    table = {
        (i, j): {k: c * scales[k] / (scales[i] * scales[j]) for k, c in coeffs.items()}
        for (i, j), coeffs in L.table.items()
    }
    return LieAlgebra(L.field, L.labels, table)


def _assert_structure_layer(L):
    A = oracle_of(L)
    field, n = L.field, L.dim
    gram = L.killing_form().gram
    assert gram == fsquare(field, oracle.killing(A))
    assert L.killing_form().invariant == oracle.is_invariant(A, gram.rows)
    assert L.lower_central_series() == [space(field, n, s) for s in oracle.lower_central_series(A)]
    assert L.derived_series() == [space(field, n, s) for s in oracle.derived_series(A)]
    D, mats = derivation_algebra(L)
    want = oracle.structure_constants(A.p, n, [m.rows for m in mats])
    assert D.table == {key: dict(zip(cs, fvec(field, cs.values()))) for key, cs in want.items()}
    if n <= 8:
        ads = [L.ad_basis(i) for i in range(n)]
        want = oracle.linear_family_char_coeffs(A.p, [a.rows for a in ads], n)
        assert linear_family_char_coeffs(field, ads, n) == [MultiPoly(field, n, t) for t in want]


def sparse_vectors(field, n):
    """Vectors with about half their coordinates zero."""
    return st.lists(st.one_of(st.just(field.zero), scalars(field)), min_size=n, max_size=n).map(tuple)


@given(tables(), st.data())
@settings(max_examples=40, deadline=None)
def test_structure_layer_matches_reference(L, data):
    """Killing Gram, invariance, both series, Der structure constants and
    the symbolic coefficients of the ad family equal the oracle's on
    catalog tables and on tables with up to three constants changed, and
    so do the sparse bracket and bracket span on sparse vectors."""
    _assert_structure_layer(L)
    A = oracle_of(L)
    x, y = (data.draw(sparse_vectors(L.field, L.dim)) for _ in range(2))
    assert L.bracket(x, y) == fvec(L.field, oracle.bracket(A, x, y))
    a, b = (
        Subspace.from_vectors(L.field, L.dim, data.draw(st.lists(sparse_vectors(L.field, L.dim), max_size=3)))
        for _ in range(2)
    )
    assert L.bracket_span(a, b) == space(L.field, L.dim, oracle.bracket_span(A, a.rows, b.rows))


STRUCTURE_CASES = [(name, L) for name, L in canonical_instances()] + [
    ("zero@Q", LieAlgebra(QQ, [], {})),
    ("zero@F3", LieAlgebra(GF(3), [], {})),
    ("abelian3@F5", abelian(GF(5), 3)),
    ("strict_upper4@F2", strict_upper(GF(2), 4)),
    ("sl3@Q-rescaled", _rescaled(sl(QQ, 3), [Fraction(s) for s in (1, 2, "1/3", 3, "2/5", 1, 7, "1/2")])),
    (
        "heisenberg2@Q-rescaled",
        _rescaled(heisenberg(QQ, 2), [Fraction(s) for s in ("1/2", 3, "2/3", 5, "1/7")]),
    ),
]


@pytest.mark.parametrize("name,L", STRUCTURE_CASES, ids=[c[0] for c in STRUCTURE_CASES])
def test_structure_layer_on_fixed_cases(name, L):
    """Dimension 0, abelian, nilpotent and ℚ tables with non-integer constants
    (which exercise the denominator clearing) beside the canonical instances."""
    _assert_structure_layer(L)


@st.composite
def families(draw):
    """(field, mats, nvars): nvars square matrices of one size d, including
    d = 0 and nvars = 0, with fractional entries over Q."""
    field = draw(st.sampled_from(FIELDS))
    nvars = draw(st.integers(0, 3))
    d = draw(st.integers(0, 4)) if nvars else 0
    entry = st.one_of(st.just(field.zero), scalars(field))
    mats = [Matrix(field, [[draw(entry) for _ in range(d)] for _ in range(d)], ncols=d) for _ in range(nvars)]
    return field, mats, nvars


@given(families())
@settings(max_examples=100, deadline=None)
def test_linear_family_char_coeffs_matches_reference(case):
    field, mats, nvars = case
    want = oracle.linear_family_char_coeffs(field.char, [m.rows for m in mats], nvars)
    assert linear_family_char_coeffs(field, mats, nvars) == [MultiPoly(field, nvars, t) for t in want]


def test_identity_form_on_sl2_is_not_invariant():
    for field in (QQ, GF(5)):
        L = sl(field, 2)
        form = BilinearForm(L, Matrix.identity(field, 3))
        assert form.invariant is False
        assert oracle.is_invariant(oracle_of(L), form.gram.rows) is False
        assert L.killing_form().invariant is True


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


@pytest.mark.parametrize("dim,p", [(0, 3), (1, 5), (2, 5), (2, 7), (3, 2), (3, 3)])
def test_enumeration_flags_match_the_per_table_loop(dim, p):
    got = [(t.coeffs, t.jacobi_ok) for t in enumerate_tables(dim, GF(p))]
    assert got == list(oracle.census_flags(p, dim))


DECIDERS = (is_regular_algebra, is_anisotropic, is_nilpotent_free)


def _fp_cases():
    cases = []
    for dim, p in ((3, 2), (3, 3), (2, 5)):
        cases.append((f"census{dim}@F{p}", [t for t in enumerate_tables(dim, GF(p)) if t.jacobi_ok]))
    named = [(name, L) for name, L in canonical_instances()]
    named += [(path.stem, _input_table(path.stem)) for path in sorted(INPUTS.glob("*.json"))]
    for name, L in named:
        if L.field.kind == "Fp" and L.field.p**L.dim <= EXHAUSTIVE_CAP:
            cases.append((name, [L]))
    return cases


FP_CASES = _fp_cases()


def _fresh(source):
    """A new algebra on the same table, so no cached rank carries over."""
    if isinstance(source, LieAlgebra):
        return LieAlgebra.unchecked(source.field, source.labels, source.table)
    return source.algebra()


def _exhaustive_answers(source):
    L = _fresh(source)
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
            patch.setattr(regularity, "_rank_by_scan", lambda L, lower=1: oracle.pointwise_rank(oracle_of(L), lower))
            want = _exhaustive_answers(source)
        assert got == want, source
        assert [list(v.evidence) for v in got[0]] == [list(v.evidence) for v in want[0]]


# -- the census's kernel-scalar shortcuts against the oracle -------------------------


def _decomposition(dec):
    return dec.null, dec.one, dec.nu


def _oracle_decomposition(L, A, xs):
    null, one, nu = oracle.fitting(A, xs)
    return space(L.field, L.dim, null), space(L.field, L.dim, one), nu


def _seeded_points(L, count, seed=24):
    """Nonzero points with coordinates in -2..2, the same on every run."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        x = tuple(L.field.of(rng.randint(-2, 2)) for _ in range(L.dim))
        if any(x):
            points.append(x)
    return points


def test_zero_multiplicity_on_every_line_of_the_census():
    F3 = GF(3)
    lines = list(_projective_points(F3, 3))
    valid = 0
    for t in enumerate_tables(3, F3):
        if t.jacobi_ok:
            valid += 1
            L = t.algebra()
            A = oracle_of(L)
            assert [zero_multiplicity(L, x) for x in lines] == [oracle.nu(A, x) for x in lines], t.coeffs
    assert valid == 1431


@pytest.mark.parametrize("name,L", NAMED_CASES, ids=[c[0] for c in NAMED_CASES])
def test_zero_multiplicity_at_seeded_points(name, L):
    A = oracle_of(L)
    for x in [L.basis_vector(i) for i in range(L.dim)] + _seeded_points(L, 4):
        assert zero_multiplicity(L, x) == oracle.nu(A, x), x


def test_fitting_of_every_census_witness():
    """All 1 404 refuted dimension-3 tables over F3; every witness has nu = 3,
    so the kernel and image of each (ad x)^3 skip elimination."""
    F3 = GF(3)
    witnesses = 0
    for t in enumerate_tables(3, F3):
        if not t.jacobi_ok:
            continue
        L = t.algebra()
        verdict = is_regular_algebra(L, mode="exhaustive")
        if verdict.is_refuted:
            witnesses += 1
            got = fitting_set(L, [verdict.witness])
            assert got.nu == 3
            assert _decomposition(got) == _oracle_decomposition(L, oracle_of(L), [verdict.witness]), t.coeffs
    assert witnesses == 1404


def _nilpotent_basis_vectors(L):
    return [v for v in map(L.basis_vector, range(L.dim)) if (L.ad(v) ** L.dim).is_zero()]


@pytest.mark.parametrize("name,L", NAMED_CASES, ids=[c[0] for c in NAMED_CASES])
def test_fitting_of_ad_nilpotent_basis_vectors(name, L):
    """Each basis vector with a nilpotent ad alone, and, in a nilpotent
    algebra, the whole basis as one family."""
    A = oracle_of(L)
    vectors = _nilpotent_basis_vectors(L)
    for v in vectors:
        assert _decomposition(fitting_set(L, [v])) == _oracle_decomposition(L, A, [v]), v
    if len(vectors) == L.dim:
        assert _decomposition(fitting_set(L, vectors)) == _oracle_decomposition(L, A, vectors)


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "F3", "F5"])
def test_fitting_of_a_family_with_one_nilpotent_member(field):
    """x central in the Heisenberg summand (ad x = 0) and y the x of r2
    ([x, y] = y), which commute: one power is zero and the other is not."""
    L = direct_sum(heisenberg(field, 1), r2(field))
    x = L.basis_vector(L.labels.index("z.1"))
    y = L.basis_vector(L.labels.index("x.2"))
    assert (L.ad(x) ** L.dim).is_zero() and not (L.ad(y) ** L.dim).is_zero()
    for family in ([x, y], [y, x]):
        got = fitting_set(L, family)
        assert _decomposition(got) == _oracle_decomposition(L, oracle_of(L), family)
        assert got.nu == L.dim - 1


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
def test_fitting_set_refuses_a_family_that_is_not_almost_commuting(field):
    """(ad h)^3 e = 8e in sl2, so {e, h} is not almost commuting."""
    L = sl(field, 2)
    family = [L.basis_vector(L.labels.index(name)) for name in ("e", "h")]
    with pytest.raises(StructureError, match="not almost commuting"):
        fitting_set(L, family)
    assert oracle.fitting(oracle_of(L), family) is None


@st.composite
def powers_case(draw):
    """(field, rows, n): a square matrix, half the time nilpotent (strictly
    upper triangular, then its rows and columns permuted)."""
    field, rows, n = draw(matrices(square=True))
    if n and draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        upper = [[rows[i][j] if i < j else field.zero for j in range(n)] for i in range(n)]
        rows = [tuple(upper[perm[i]][perm[j]] for j in range(n)) for i in range(n)]
    return field, rows, n


@given(powers_case())
@settings(max_examples=100, deadline=None)
def test_power_matches_repeated_products(case):
    field, rows, n = case
    mat = Matrix(field, rows, ncols=n)
    want = Matrix.identity(field, n)
    for k in range(2 * n + 1):
        got = mat**k
        assert got == want == fsquare(field, oracle.power(field.char, rows, k)), k
        assert _in_field(field, got.rows)
        want = want * mat


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_kernel_and_image_match_elimination(case):
    """On random matrices and on the zero matrix of the same shape."""
    field, rows, n = case
    for mat in (Matrix(field, rows, ncols=n), Matrix(field, [[0] * n for _ in rows], ncols=n)):
        assert mat.kernel() == space(field, n, oracle.kernel(field.char, mat.rows, n))
        assert mat.image() == space(field, mat.m, oracle.image(field.char, mat.rows, n))
        assert mat.kernel().ambient == mat.n and mat.image().ambient == mat.m


@pytest.mark.parametrize("name,L", NAMED_CASES, ids=[c[0] for c in NAMED_CASES])
def test_ad_basis_is_ad_of_the_basis_vector(name, L):
    A = oracle_of(L)
    for i in range(L.dim):
        got = L.ad_basis(i)
        assert got == L.ad(L.basis_vector(i)) == fsquare(L.field, oracle.ad(A, L.basis_vector(i)))
        assert L.ad_basis(i) is got
