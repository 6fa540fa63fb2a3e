"""The shared exact kernel against the scalar loops it replaced, over Q
and F_p.

The reference functions below are the elimination and Hessenberg loops
that ran on field scalars (Fp objects, Fractions) before elimination moved
to one echelon kernel on residues mod p and Fractions.  They stay here,
and only here, as an independent oracle: every echelon form, kernel,
solution and characteristic or minimal polynomial from the kernel must
equal theirs exactly, over Q and over F_p.  The dense Jacobi loop and the
dense bracket and ad loops that the sparse table replaced, the fixed-point
ideal closure that the worklist closure replaced, and the dense equation
rows of the derivation, centroid and 2-cocycle systems that the sparse
rows replaced, are kept the same way.  So are the structure-layer bodies
that ran on Matrix products and MultiPoly arithmetic before the sparse
bracket, the Killing form and the integer symbolic expansion: the Killing
Gram by traces of products, the invariance test by G A + A^T G, the
series from [L, L] by bracket spans, the MultiPoly minor expansion and
the Der structure constants from dense commutators.  The dense product,
``apply`` and matrix powers, one body for both fields, are checked against
the field-scalar triple loop ``ref_matmul``.  The dict rebuild that
``EnumTable.algebra`` made before it handed the constructor each pair's
slice of coefficients is kept as the oracle for the stored rows.  The
Krylov-chain minimal polynomial with its ``poly_lcm``, which one echelon
of flattened powers replaced, and the coset-coordinate loop that built
the quotient action of ``ideal_action_matrices`` before it read ``ad``
in the quotient algebra, are kept the same way.  So are the lemma-4
bodies that ``_ideal_actions`` replaced, ``ideal_action_matrices`` with
the per-sample sum ``_combine``, and the two closures that
``_Echelon.close`` replaced, the End(L) envelope loop and the
fixed-point ``subalgebra_generated``; and so is the body of
``_jacobi_defects`` that brought every triple's defect to kernel scalars
before testing it.  The exhaustive F_p walks that visited every point are
kept too: the enumerator's loop that ran Jacobi on every table, the
exhaustive branch of ``_scan`` that tried and counted every nonzero point,
and ``_rank_by_scan`` over all of F_p^n; the line walks that replaced
them must give the same flags, verdicts and ranks.  Last, the bodies the
census's kernel-scalar shortcuts replaced: ``zero_multiplicity`` through
the UniPoly of field scalars, ``fitting_set`` that eliminated the zero
power too (``Matrix.kernel`` and ``Matrix.image`` with no zero test),
``Matrix.__pow__`` with no zero test, and ``ad_basis`` through ``ad`` of
the field-scalar basis vector.
"""
import json
import random
from fractions import Fraction
from itertools import combinations, product
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
    _jacobi_defects,
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
from lielab.fields import GF, QQ, MultiPoly, UniPoly, poly_gcd
from lielab.linalg import _Echelon, Matrix, Subspace, vec_add
from lielab.regularity import (
    FittingDecomposition,
    _assert_fitting,
    _ideal_actions,
    _least_nonzero,
    _rank_by_scan,
    char_poly_factorization,
    fitting_set,
    linear_family_char_coeffs,
    relative_rank,
)
from lielab.verdict import RecheckFailed, Verdict

FIELDS = [QQ, GF(2), GF(3), GF(5), GF(7), GF(2147483647)]


# -- reference: the field-scalar loops ------------------------------------


def ref_rref(field, rows, ncols):
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.one / rows[r][c]
        if inv != field.one:
            rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def ref_kernel(field, rows, ncols):
    """Canonical echelon rows of the null space."""
    erows, pivots = ref_rref(field, rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [field.zero] * ncols
        v[f] = field.one
        for r, p in enumerate(pivots):
            v[p] = -erows[r][f]
        basis.append(v)
    return ref_rref(field, basis, ncols)[0]


def ref_solve(field, rows, ncols, b):
    aug = [tuple(row) + (bb,) for row, bb in zip(rows, b)]
    erows, pivots = ref_rref(field, aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for r, p in enumerate(pivots):
        x[p] = erows[r][ncols]
    return tuple(x)


def ref_char_poly(field, rows):
    n = len(rows)
    h = [list(row) for row in rows]
    for c in range(n - 2):
        pivot_row = None
        for r in range(c + 1, n):
            if h[r][c]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != c + 1:
            h[c + 1], h[pivot_row] = h[pivot_row], h[c + 1]
            for row in h:
                row[c + 1], row[pivot_row] = row[pivot_row], row[c + 1]
        piv = h[c + 1][c]
        for r in range(c + 2, n):
            if h[r][c]:
                f = h[r][c] / piv
                hr, hc1 = h[r], h[c + 1]
                for j in range(n):
                    hr[j] = hr[j] - f * hc1[j]
                for row in h:
                    row[c + 1] = row[c + 1] + f * row[r]
    t = UniPoly.t(field)
    polys = [UniPoly.one(field)]
    for m in range(1, n + 1):
        p = (t - UniPoly(field, [h[m - 1][m - 1]])) * polys[m - 1]
        prod = field.one
        for i in range(1, m):
            prod = prod * h[m - i][m - i - 1]
            coeff = h[m - 1 - i][m - 1]
            if coeff and prod:
                p = p - polys[m - 1 - i].scale(coeff * prod)
        polys.append(p)
    return polys[n]


def ref_apply(field, rows, v):
    out = []
    for row in rows:
        acc = field.zero
        for a, x in zip(row, v):
            acc = acc + a * x
        out.append(acc)
    return tuple(out)


def ref_matmul(field, a, b, ncols):
    """Rows of a * b, b with ncols columns, by the field-scalar triple loop."""
    return tuple(
        tuple(sum((x * brow[j] for x, brow in zip(row, b)), field.zero) for j in range(ncols))
        for row in a
    )


def poly_lcm(a, b):
    """Monic lcm of two polynomials, for the Krylov reference below."""
    if a.is_zero() or b.is_zero():
        return UniPoly.zero(a.field)
    return ((a * b).divmod(poly_gcd(a, b))[0]).monic()


def ref_min_poly(field, rows):
    """The lcm of the minimal polynomials of the Krylov chains spun off
    the standard basis, each read from a solve against the chain so far."""
    n = len(rows)
    acc = UniPoly.one(field)
    for s in range(n):
        if acc.degree == n:
            break
        v = tuple(field.one if i == s else field.zero for i in range(n))
        chain = [v]
        w = ref_apply(field, rows, v)
        while True:
            cols = [[col[i] for col in chain] for i in range(n)]
            sol = ref_solve(field, cols, len(chain), w)
            if sol is not None:
                local = UniPoly(field, [-c for c in sol] + [field.one])
                break
            chain.append(w)
            w = ref_apply(field, rows, w)
        acc = poly_lcm(acc, local)
    return acc


def ref_bracket(L, x, y):
    """[x, y] from the table with field-scalar arithmetic."""
    out = [L.field.zero] * L.dim
    for (i, j), coeffs in L.table.items():
        f = x[i] * y[j] - x[j] * y[i]
        if f:
            for k, c in coeffs.items():
                out[k] = out[k] + f * c
    return tuple(out)


def ref_ad(L, x):
    """Rows of ad x from the table with field-scalar arithmetic."""
    n = L.dim
    rows = [[L.field.zero] * n for _ in range(n)]
    for (i, j), coeffs in L.table.items():
        for k, c in coeffs.items():
            rows[k][j] = rows[k][j] + x[i] * c
            rows[k][i] = rows[k][i] - x[j] * c
    return rows


def ref_jacobi_violations(L):
    """The dense Jacobi loop: cyclic sums of brackets of basis vectors."""
    bad = []
    for i, j, k in combinations(range(L.dim), 3):
        defect = vec_add(
            vec_add(
                ref_bracket(L, L.basis_bracket(i, j), L.basis_vector(k)),
                ref_bracket(L, L.basis_bracket(j, k), L.basis_vector(i)),
            ),
            ref_bracket(L, L.basis_bracket(k, i), L.basis_vector(j)),
        )
        if any(defect):
            bad.append(((i, j, k), defect))
    return bad


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


# -- kernel against reference ----------------------------------------------------


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_rref_matches_reference(case):
    field, rows, n = case
    assert Matrix(field, rows, ncols=n).rref() == ref_rref(field, rows, n)


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_kernel_matches_reference(case):
    field, rows, n = case
    mat = Matrix(field, rows, ncols=n)
    ker = mat.kernel()
    assert ker.rows == ref_kernel(field, rows, n)
    assert ker.dim + mat.rank() == n


@given(matrices(), st.data())
@settings(max_examples=120, deadline=None)
def test_solve_matches_reference(case, data):
    field, rows, n = case
    m = len(rows)
    if data.draw(st.booleans()):
        # a consistent right-hand side: the image of a random x
        x = [data.draw(scalars(field)) for _ in range(n)]
        b = ref_apply(field, rows, x)
    else:
        b = tuple(data.draw(scalars(field)) for _ in range(m))
    got = Matrix(field, rows, ncols=n).solve(b)
    assert got == ref_solve(field, rows, n, b)
    if got is not None:
        assert ref_apply(field, rows, got) == tuple(b)


@given(matrices(square=True))
@settings(max_examples=120, deadline=None)
def test_char_poly_matches_reference(case):
    field, rows, n = case
    assert Matrix(field, rows, ncols=n).char_poly() == ref_char_poly(field, rows)


@given(matrices(square=True))
@settings(max_examples=100, deadline=None)
def test_min_poly_matches_reference(case):
    field, rows, n = case
    assert Matrix(field, rows, ncols=n).min_poly() == ref_min_poly(field, rows)


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
    assert got == ref_min_poly(field, rows)
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
    assert prod.rows == ref_matmul(field, a, b, n)
    assert _in_field(field, prod.rows)
    got = ma.apply(v)
    assert got == ref_apply(field, a, v)
    assert _in_field(field, [got])


@given(matrices(square=True), st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_power_matches_reference(case, e):
    field, rows, n = case
    want = tuple(tuple(field.of(int(i == j)) for j in range(n)) for i in range(n))
    for _ in range(e):
        want = ref_matmul(field, want, rows, n)
    got = Matrix(field, rows, ncols=n) ** e
    assert got.rows == want
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
    for x in product(tuple(F5.elements()), repeat=L.dim):
        nu = zero_multiplicity(L, x)
        assert nu == _first_nonzero(L.ad(x).char_poly())
        assert nu == _first_nonzero(ref_char_poly(F5, ref_ad(L, x)))


def test_zero_multiplicity_pgl3_f3_every_point():
    F3 = GF(3)
    L = pgl(F3, 3)
    elements = tuple(F3.elements())
    for idx, x in enumerate(product(elements, repeat=L.dim)):
        nu = zero_multiplicity(L, x)
        assert nu == _first_nonzero(L.ad(x).char_poly()), x
        if idx % 97 == 0:
            assert nu == _first_nonzero(ref_char_poly(F3, ref_ad(L, x))), x



# -- sparse table against the dense loops ------------------------------------------


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
    random elements, equal the dense field-scalar loops."""
    assert L.jacobi_violations() == ref_jacobi_violations(L)
    x, y = (tuple(data.draw(scalars(L.field)) for _ in range(L.dim)) for _ in range(2))
    assert L.bracket(x, y) == ref_bracket(L, x, y)
    assert L.ad(x) == Matrix(L.field, ref_ad(L, x), ncols=L.dim)


def ref_jacobi_sums(n, rows):
    """The defect sums of every basis triple over Lie rows, as computed
    before any normalization."""
    for i, j, k in combinations(range(n), 3):
        defect = [0] * n
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, cm in rows[a].get(b, ()):
                for l, cl in rows[m].get(c, ()):
                    defect[l] += cm * cl
        yield (i, j, k), defect


def ref_jacobi_defects(field, n, rows):
    """The body of _jacobi_defects that brought every triple's defect to
    kernel scalars before testing it."""
    zero = field._k_zero
    for i, j, k in combinations(range(n), 3):
        defect = [zero] * n
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, cm in rows[a].get(b, ()):
                for l, cl in rows[m].get(c, ()):
                    defect[l] += cm * cl
        defect = field._to_k(defect)
        if any(defect):
            yield (i, j, k), defect


def _with_changed_constant(L, value):
    table = {key: dict(coeffs) for key, coeffs in L.table.items()}
    key = sorted(table)[3]
    k = min(table[key])
    table[key][k] = table[key][k] + value
    return LieAlgebra.unchecked(L.field, L.labels, table)


def _kernel_triples(field, n, rows):
    """The triples and defects with the type of each entry."""
    return [(t, d, [type(x) for x in d]) for t, d in _jacobi_defects(field, n, rows)]


def test_jacobi_defects_of_broken_tables():
    """One changed structure constant over Q and over F_5: the full
    violation lists, triples and defects, equal the dense loop's, and the
    defects in kernel scalars equal those of the body that normalized
    every triple, entry types included.  sl3 over Q in a rescaled basis
    has Fraction structure constants, and some of its defect sums come
    out as Fractions of denominator 1.  sl3 over F_3 has defect sums that
    are nonzero multiples of 3 before reduction and so no violation."""
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
        assert bad and bad == ref_jacobi_violations(broken)
        assert L.jacobi_violations() == ref_jacobi_violations(L) == []
        for A in (L, broken):
            want = [(t, d, [type(x) for x in d]) for t, d in ref_jacobi_defects(A.field, A.dim, A._rows)]
            assert _kernel_triples(A.field, A.dim, A._rows) == want
    # the cases are what the docstring says
    sums = [d for _, d in ref_jacobi_sums(8, _with_changed_constant(sl3_fractions, Fraction(1, 3))._rows)]
    assert any(type(x) is Fraction and x.denominator == 1 for d in sums if any(d) for x in d)
    sums = [d for _, d in ref_jacobi_sums(8, sl(GF(3), 3)._rows)]
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


ROW_CASES = [(name, L) for name, L in canonical_instances()] + [
    (path.stem, LieAlgebra.from_json_dict(json.loads(path.read_text())))
    for path in sorted((Path(__file__).resolve().parent.parent / "perfbench" / "inputs").glob("*.json"))
]


@pytest.mark.parametrize("name,L", ROW_CASES, ids=[c[0] for c in ROW_CASES])
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


# -- worklist ideal closure against the fixed-point closure ------------------------


def _ideal_by_fixed_point(L, vectors):
    """The closure the worklist replaced: re-echelonize the span with every
    [b_i, u] until it stops growing."""
    span = Subspace.from_vectors(L.field, L.dim, [L.coerce_vector(v) for v in vectors])
    while True:
        grown = span
        for i in range(L.dim):
            imgs = [L.bracket(L.basis_vector(i), u) for u in span.rows]
            grown = grown.sum_with(Subspace.from_vectors(L.field, L.dim, imgs))
        if grown.dim == span.dim:
            return span
        span = grown


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
    """Same canonical echelon rows, so equality of Subspaces also checks
    that the worklist basis is fully reduced."""
    lo, hi = (0, L.field.p - 1) if L.field.kind == "Fp" else (-3, 3)
    vectors = data.draw(st.lists(st.lists(st.integers(lo, hi), min_size=L.dim, max_size=L.dim), max_size=2))
    assert L.ideal_generated(vectors) == _ideal_by_fixed_point(L, vectors)


def ref_is_ideal(L, space):
    """is_ideal through field scalars: each basis vector bracketed with
    each basis row of the space by ``bracket``."""
    return all(space.contains(L.bracket(L.basis_vector(i), u)) for i in range(L.dim) for u in space.rows)


@given(st.sampled_from(IDEAL_CASES), st.data())
@settings(max_examples=60, deadline=None)
def test_is_ideal_matches_the_field_scalar_loop(L, data):
    """On the span of random vectors, mostly not an ideal, and on the ideal
    they generate."""
    lo, hi = (0, L.field.p - 1) if L.field.kind == "Fp" else (-3, 3)
    vectors = data.draw(st.lists(st.lists(st.integers(lo, hi), min_size=L.dim, max_size=L.dim), max_size=3))
    span = Subspace.from_vectors(L.field, L.dim, [L.coerce_vector(v) for v in vectors])
    assert L.is_ideal(span) == ref_is_ideal(L, span)
    ideal = L.ideal_generated(vectors)
    assert L.is_ideal(ideal) and ref_is_ideal(L, ideal)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
def test_is_ideal_reads_every_row(field):
    """The Borel span {e, h} of sl2: [b_i, e] lies in it for every b_i, but
    [f, h] = 2f does not, so only its second echelon row refutes it."""
    L = sl(field, 2)
    e, h, f = (L.basis_vector(L.labels.index(name)) for name in ("e", "h", "f"))
    borel = Subspace.from_vectors(field, 3, [e, h])
    assert L.is_subalgebra(borel)
    assert not L.is_ideal(borel) and not ref_is_ideal(L, borel)
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


def ref_subalgebra_generated(L, vectors):
    """The closure ``_Echelon.close`` replaced: add [S, S] to the span S
    by ``bracket_span`` until it stops growing."""
    span = Subspace.from_vectors(L.field, L.dim, [L.coerce_vector(v) for v in vectors])
    while True:
        grown = span.sum_with(L.bracket_span(span, span))
        if grown.dim == span.dim:
            return span
        span = grown


@given(st.sampled_from(IDEAL_CASES), st.data())
@settings(max_examples=60, deadline=None)
def test_subalgebra_generated_matches_fixed_point(L, data):
    lo, hi = (0, L.field.p - 1) if L.field.kind == "Fp" else (-3, 3)
    vectors = data.draw(st.lists(st.lists(st.integers(lo, hi), min_size=L.dim, max_size=L.dim), max_size=3))
    assert L.subalgebra_generated(vectors) == ref_subalgebra_generated(L, vectors)


def test_subalgebra_generated_brackets_with_every_row():
    """H2, E12 and E21 generate a 4-dimensional subalgebra of sl3 only
    through [E12, E21] = H1, a bracket of the second and third vectors."""
    L = sl(QQ, 3)
    seeds = [L.basis_vector(L.labels.index(name)) for name in ("H2", "E12", "E21")]
    got = L.subalgebra_generated(seeds)
    assert got == ref_subalgebra_generated(L, seeds) and got.dim == 4


# -- the quotient action against the coset-coordinate loop ------------------------


def ref_outer_matrices(L, ideal):
    """The outer matrices of ``ideal_action_matrices`` as its coset loop
    built them: column s of the m-th is [b_m, b_c] for the s-th coset
    label c, reduced modulo the ideal and read at the coset labels."""
    reps = ideal.complement_indices()
    q = len(reps)
    out = []
    for m in range(L.dim):
        rows = [[L.field.zero] * q for _ in range(q)]
        for s, c in enumerate(reps):
            img = ideal.reduce(L.bracket(L.basis_vector(m), L.basis_vector(c)))
            for t, cc in enumerate(reps):
                rows[t][s] = img[cc]
        out.append(Matrix(L.field, rows, ncols=q))
    return out


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


def ref_ideal_action_matrices(L, ideal):
    """The per-basis matrices ``_ideal_actions`` replaced: ad b_m on the
    ideal (column s is [b_m, u_s] at the ideal's pivots) and ad of the
    coset of b_m in the quotient, for every m."""
    quot, project = quotient_with_projection(L, ideal)
    d = ideal.dim
    inner, outer = [], []
    for m in range(L.dim):
        bm = L.basis_vector(m)
        rows_in = [[L.field.zero] * d for _ in range(d)]
        for s, u in enumerate(ideal.rows):
            img = L.bracket(bm, u)
            assert ideal.contains(img)
            for t, p in enumerate(ideal.pivots):
                rows_in[t][s] = img[p]
        inner.append(Matrix(L.field, rows_in, ncols=d))
        outer.append(quot.ad(project(bm)))
    return inner, outer


def ref_combine(field, mats, x):
    """sum x_m mats[m], the per-sample sum ``char_poly_factorization`` made."""
    d = mats[0].n if mats else 0
    acc = Matrix.zeros(field, d, d)
    for c, m in zip(x, mats):
        if c:
            acc = acc + m.scale(c)
    return acc


def _action_case(name):
    build, ideal_of = ACTION_CASES[name]
    L = build()
    return L, ideal_of(L)


@pytest.mark.parametrize("name", sorted(ACTION_CASES))
def test_quotient_action_matches_coset_loop(name):
    L, ideal = _action_case(name)
    assert 0 < ideal.dim < L.dim
    inner, outer = ref_ideal_action_matrices(L, ideal)
    ref = ref_outer_matrices(L, ideal)
    assert outer == ref
    if L.dim <= SYMBOLIC_DIM:
        want = tuple(_least_nonzero(linear_family_char_coeffs(L.field, m, L.dim)) for m in (inner, ref))
        assert relative_rank(L, ideal) == want
    else:
        with pytest.raises(BudgetExceeded):
            relative_rank(L, ideal)
    for x in [L.basis_vector(i) for i in range(L.dim)] + [tuple(L.field.of(i + 1) for i in range(L.dim))]:
        quot = Matrix.zeros(L.field, ref[0].n, ref[0].n)
        for c, m in zip(x, ref):
            quot = quot + m.scale(c)
        chi_i, chi_q, chi_l = char_poly_factorization(L, ideal, x)
        assert chi_q == quot.char_poly()
        assert chi_i * chi_q == chi_l


@pytest.mark.parametrize("name", sorted(ACTION_CASES))
def test_ideal_actions_match_the_per_basis_matrices(name):
    """The matrices themselves, not only their characteristic polynomials,
    which a transposed restriction would keep."""
    L, ideal = _action_case(name)
    inner, outer = ref_ideal_action_matrices(L, ideal)
    for m in range(L.dim):
        assert _ideal_actions(L, ideal, L.basis_vector(m)) == (inner[m], outer[m])


ACTION_ALGEBRAS = {name: _action_case(name) for name in sorted(ACTION_CASES)}


@given(st.sampled_from(sorted(ACTION_ALGEBRAS)), st.data())
@settings(max_examples=60, deadline=None)
def test_char_poly_factorization_matches_the_combined_matrices(name, data):
    L, ideal = ACTION_ALGEBRAS[name]
    x = tuple(L.field.of(c) for c in data.draw(st.lists(st.integers(-5, 5), min_size=L.dim, max_size=L.dim)))
    inner, outer = ref_ideal_action_matrices(L, ideal)
    want = tuple(ref_combine(L.field, mats, x).char_poly() for mats in (inner, outer))
    want += (Matrix(L.field, ref_ad(L, x), ncols=L.dim).char_poly(),)
    assert char_poly_factorization(L, ideal, x) == want


# -- the End(L) envelope and the closure contract ----------------------------------


def ref_ad_envelope_is_full(L):
    """The envelope loop ``_Echelon.close`` replaced: each matrix that
    enlarges the span of the flattened matrices is multiplied on the left
    by every ad(b_i)."""
    n = L.dim
    ads = [L.ad_basis(i) for i in range(n)]
    ech = _Echelon(L.field, n * n)
    todo = []
    for m in [Matrix.identity(L.field, n)] + ads:
        if ech.add([x for row in m._k for x in row]) is not None:
            todo.append(m)
    while todo and not ech.full:
        m = todo.pop()
        for a in ads:
            am = a * m
            if ech.add([x for row in am._k for x in row]) is not None:
                todo.append(am)
    return ech.full


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
    assert got == {name: ref_ad_envelope_is_full(L) for name, L in cases}
    assert set(got.values()) == {True, False}


def _fixed_point(field, n, maps, seeds):
    span = Subspace.from_vectors(field, n, seeds)
    while True:
        grown = span.sum_with(Subspace.from_vectors(field, n, [m.apply(r) for m in maps for r in span.rows]))
        if grown.dim == span.dim:
            return span
        span = grown


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
    assert got == _fixed_point(field, n, maps, seeds)
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


# -- sparse equation rows against the dense builder --------------------------------


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


def ref_derivation_rows(L):
    return [ref_equation_row(L.field, L.dim, image, left, right) for image, left, right in ref_map_equations(L)]


def ref_centroid_rows(L):
    return [
        ref_equation_row(L.field, L.dim, image, part)
        for image, left, right in ref_map_equations(L)
        for part in (left, right)
    ]


def ref_cocycle_rows(L):
    """Dense rows of w([b_i, b_j], b_k) + cyclic over the unknowns w(b_m, b_k), m < k."""
    n = L.dim
    idx = {pair: slot for slot, pair in enumerate(combinations(range(n), 2))}

    def add_term(row, vec, k):
        for m, c in enumerate(vec):
            if not c or m == k:
                continue
            if m < k:
                row[idx[(m, k)]] = row[idx[(m, k)]] + c
            else:
                row[idx[(k, m)]] = row[idx[(k, m)]] - c

    rows = []
    for i, j, k in combinations(range(n), 3):
        row = [L.field.zero] * len(idx)
        add_term(row, L.basis_bracket(i, j), k)
        add_term(row, L.basis_bracket(j, k), i)
        add_term(row, L.basis_bracket(k, i), j)
        rows.append(tuple(row))
    return rows


def _input_table(name):
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / f"{name}.json"
    return LieAlgebra.from_json_dict(json.loads(path.read_text()))


# The canonical instances and the 1 431 Jacobi-valid dimension-3 tables
# over F_3 (the case None) are solved by the field-scalar reference
# elimination; the larger benchmark tables (225 unknowns for Der(sl4)) by
# the dense rows through Matrix.kernel, which the tests above hold to the
# reference.
EQUATION_CASES = (
    [(name, L, True) for name, L in canonical_instances()]
    + [(name, _input_table(name), False) for name in ("sl4q", "gl3f5", "heisenberg2q")]
    + [("census3@F3", None, True)]
)


def _dense_solutions(field, rows, ncols, by_reference):
    rows = list(dict.fromkeys(row for row in rows if any(row)))
    if by_reference:
        return ref_kernel(field, rows, ncols)
    return Matrix(field, rows, ncols=ncols).kernel().rows


@pytest.mark.parametrize("name,L,by_reference", EQUATION_CASES, ids=[c[0] for c in EQUATION_CASES])
def test_equation_systems_match_dense_rows(name, L, by_reference):
    """Der, the centroid and Z^2 from the sparse rows are the solution
    spaces of the dense rows: the same canonical echelon basis, so the
    same Subspace."""

    def flat(mats):
        return tuple(tuple(c for row in mat.rows for c in row) for mat in mats)

    if L is None:
        algebras = [t.algebra() for t in enumerate_tables(3, GF(3)) if t.jacobi_ok]
        assert len(algebras) == 1431
    else:
        algebras = [L]
    for L in algebras:
        n, field = L.dim, L.field
        assert flat(derivation_algebra(L)[1]) == _dense_solutions(field, ref_derivation_rows(L), n * n, by_reference)
        assert flat(centroid(L)) == _dense_solutions(field, ref_centroid_rows(L), n * n, by_reference)
        assert cocycle_space(L).rows == _dense_solutions(field, ref_cocycle_rows(L), n * (n - 1) // 2, by_reference)


# -- structure layer against the Matrix and MultiPoly bodies ------------------------


def ref_killing_gram(L):
    """K_ij = (ad_i * ad_j).trace() with Matrix products."""
    n = L.dim
    ads = [L.ad_basis(i) for i in range(n)]
    gram_rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j < i:
                row.append(gram_rows[j][i])
            else:
                row.append((ads[i] * ads[j]).trace())
        gram_rows.append(row)
    return Matrix(L.field, gram_rows, ncols=n)


def ref_invariant(L, g):
    """G A_j + A_j^T G = 0 for every A_j = ad(b_j), with Matrix products."""
    for j in range(L.dim):
        a = L.ad_basis(j)
        if not (g * a + a.transpose() * g).is_zero():
            return False
    return True


def ref_bracket_span(L, a, b):
    return Subspace.from_vectors(L.field, L.dim, [ref_bracket(L, u, v) for u in a.rows for v in b.rows])


def ref_series(L, step):
    """The series loop that took bracket_span(full, full) as its second term."""
    series = [Subspace.full_space(L.field, L.dim)]
    while True:
        nxt = step(series[-1])
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
        if nxt.is_zero():
            break
    return series


def ref_lower_central_series(L):
    full = Subspace.full_space(L.field, L.dim)
    return ref_series(L, lambda s: ref_bracket_span(L, full, s))


def ref_derived_series(L):
    return ref_series(L, lambda s: ref_bracket_span(L, s, s))


def ref_linear_family_char_coeffs(field, mats, nvars):
    """The minor expansion over MultiPoly entries with field-scalar coefficients."""
    d = mats[0].n if mats else 0
    nv = nvars + 1
    zero = MultiPoly.zero(field, nv)

    def entry(r, c):
        terms = {}
        for m, mat in enumerate(mats):
            coef = mat.rows[r][c]
            if coef:
                exps = [0] * nv
                exps[m] = 1
                terms[tuple(exps)] = -coef
        if r == c:
            exps = [0] * nv
            exps[nv - 1] = 1
            terms[tuple(exps)] = field.one
        return MultiPoly(field, nv, terms)

    entries = [[entry(r, c) for c in range(d)] for r in range(d)]
    minors = {0: MultiPoly.const(field, nv, 1)}
    for row in range(d):
        grown = {}
        for mask, det in minors.items():
            for col in range(d):
                bit = 1 << col
                if mask & bit:
                    continue
                e = entries[row][col]
                if e.is_zero():
                    continue
                pos = bin(mask & (bit - 1)).count("1")
                term = e * det
                if (row + pos) % 2:
                    term = -term
                key = mask | bit
                acc = grown.get(key)
                grown[key] = term if acc is None else acc + term
        minors = grown
        if not minors:
            minors = {0: zero}
            break
    full = minors.get((1 << d) - 1, MultiPoly.const(field, nv, 1) if d == 0 else zero)
    out_terms = [{} for _ in range(d + 1)]
    for exps, c in full.terms.items():
        out_terms[exps[-1]][exps[:-1]] = c
    return [MultiPoly(field, nvars, t) for t in out_terms]


def ref_der_table(L, mats):
    """Der structure constants from dense commutators and coords_of in the
    solution space spanned by mats."""
    n = L.dim
    kernel = Subspace.from_vectors(L.field, n * n, [[c for row in m.rows for c in row] for m in mats])
    table = {}
    for a, b in combinations(range(len(mats)), 2):
        comm = mats[a] * mats[b] - mats[b] * mats[a]
        got = kernel.coords_of([c for row in comm._k for c in row])
        if got is None:
            raise StructureError("commutator of derivations left the solution space")
        cs = {k: c for k, c in enumerate(got) if c}
        if cs:
            table[(a, b)] = cs
    return table


def _rescaled(L, scales):
    """L in the basis b_i / s_i: c_ij^k becomes c_ij^k s_k / (s_i s_j), so
    integer constants turn into fractions."""
    table = {
        (i, j): {k: c * scales[k] / (scales[i] * scales[j]) for k, c in coeffs.items()}
        for (i, j), coeffs in L.table.items()
    }
    return LieAlgebra(L.field, L.labels, table)


def _assert_structure_layer(L):
    gram = L.killing_form().gram
    assert gram == ref_killing_gram(L)
    assert L.killing_form().invariant == ref_invariant(L, gram)
    assert L.lower_central_series() == ref_lower_central_series(L)
    assert L.derived_series() == ref_derived_series(L)
    D, mats = derivation_algebra(L)
    assert D.table == ref_der_table(L, mats)
    if L.dim <= 8:
        ads = [L.ad_basis(i) for i in range(L.dim)]
        got = linear_family_char_coeffs(L.field, ads, L.dim)
        assert got == ref_linear_family_char_coeffs(L.field, ads, L.dim)


def sparse_vectors(field, n):
    """Vectors with about half their coordinates zero."""
    return st.lists(st.one_of(st.just(field.zero), scalars(field)), min_size=n, max_size=n).map(tuple)


@given(tables(), st.data())
@settings(max_examples=40, deadline=None)
def test_structure_layer_matches_reference(L, data):
    """Killing Gram, invariance, both series, Der structure constants and
    the symbolic coefficients of the ad family equal the Matrix and
    MultiPoly bodies on catalog tables and on tables with up to three
    constants changed, and the sparse bracket and bracket span equal the
    dense loop on sparse vectors."""
    _assert_structure_layer(L)
    x, y = (data.draw(sparse_vectors(L.field, L.dim)) for _ in range(2))
    assert L.bracket(x, y) == ref_bracket(L, x, y)
    a, b = (
        Subspace.from_vectors(L.field, L.dim, data.draw(st.lists(sparse_vectors(L.field, L.dim), max_size=3)))
        for _ in range(2)
    )
    assert L.bracket_span(a, b) == ref_bracket_span(L, a, b)


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
    assert linear_family_char_coeffs(field, mats, nvars) == ref_linear_family_char_coeffs(field, mats, nvars)


def test_identity_form_on_sl2_is_not_invariant():
    for field in (QQ, GF(5)):
        L = sl(field, 2)
        form = BilinearForm(L, Matrix.identity(field, 3))
        assert form.invariant is False
        assert ref_invariant(L, form.gram) is False
        assert L.killing_form().invariant is True


# -- the exhaustive F_p walks against the point walks they replaced -----------------


def ref_enumerate_flags(dim, field):
    """The flag loop of enumerate_tables before it read the last bracket
    affinely: every table's pair cells rewritten and Jacobi run on it.
    Yields (coefficients, flag)."""
    elements = tuple(field.of(r) for r in range(field.p))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    blocks = []
    for vec in product(elements, repeat=dim):
        coeffs = tuple((k, c) for k, c in enumerate(field._to_k(vec)) if c)
        blocks.append((vec, coeffs, tuple((k, -c) for k, c in coeffs)))
    rows = [{} for _ in range(dim)]
    for combo in product(blocks, repeat=len(pairs)):
        for (i, j), (_, coeffs, negated) in zip(pairs, combo):
            rows[i][j] = coeffs
            rows[j][i] = negated
        ok = next(_jacobi_defects(field, dim, rows), None) is None
        yield tuple(c for vec, _, _ in combo for c in vec), ok


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


def ref_rank_by_scan(L, lower=1):
    """regularity._rank_by_scan over every point of F_p^n."""
    n = L.dim
    total = L.field.p**n
    if total > EXHAUSTIVE_CAP:
        raise BudgetExceeded(f"rank scan needs {total} points, over the cap {EXHAUSTIVE_CAP}")
    best = n
    for pt in product(tuple(L.field.elements()), repeat=n):
        nu = zero_multiplicity(L, pt)
        if nu < best:
            best = nu
            if best <= lower:
                break
    return best


@pytest.mark.parametrize("dim,p", [(0, 3), (1, 5), (2, 5), (2, 7), (3, 2), (3, 3)])
def test_enumeration_flags_match_the_per_table_loop(dim, p):
    field = GF(p)
    got = [(t.coeffs, t.jacobi_ok) for t in enumerate_tables(dim, field)]
    assert got == list(ref_enumerate_flags(dim, field))


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


INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
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
            patch.setattr(regularity, "_rank_by_scan", ref_rank_by_scan)
            want = _exhaustive_answers(source)
        assert got == want, source
        assert [list(v.evidence) for v in got[0]] == [list(v.evidence) for v in want[0]]


# -- the census's kernel-scalar shortcuts against the bodies they replaced ----------


def ref_zero_multiplicity(L, x):
    """zero_multiplicity through the UniPoly of field scalars."""
    for i, c in enumerate(L.ad(x).char_poly().coeffs):
        if c:
            return i
    raise AssertionError("characteristic polynomial cannot be zero")


def ref_pow(mat, k):
    """Matrix.__pow__ by repeated squaring with no zero test."""
    acc = None
    base = mat
    while k:
        if k & 1:
            acc = base if acc is None else acc * base
        base = base * base if k > 1 else base
        k >>= 1
    return Matrix.identity(mat.field, mat.n) if acc is None else acc


def eliminated_kernel(mat):
    """Matrix.kernel with no zero test: the kernel of the echelon form."""
    return mat._echelon.kernel()


def eliminated_image(mat):
    """Matrix.image with no zero test: the span of the columns."""
    return Subspace._span_k(mat.field, mat.m, [[row[j] for row in mat._k] for j in range(mat.n)])


def ref_fitting_set(L, xs):
    """fitting_set with the kernel and image of every (ad x)^dim eliminated,
    zero or not."""
    vecs = [L.coerce_vector(x) for x in xs]
    powers = [ref_pow(L.ad(x), L.dim) for x in vecs]
    for p in powers:
        for y in vecs:
            if any(p.apply(y)):
                raise StructureError("set is not almost commuting")
    null, one = eliminated_kernel(powers[0]), eliminated_image(powers[0])
    for p in powers[1:]:
        null = null.intersect(eliminated_kernel(p))
        one = one.sum_with(eliminated_image(p))
    dec = FittingDecomposition(null, one, tuple(vecs))
    _assert_fitting(L, dec, powers)
    return dec


def _decomposition(dec):
    return dec.null, dec.one, dec.nu


NAMED_CASES = [(name, L) for name, L in canonical_instances()] + [
    (path.stem, _input_table(path.stem)) for path in sorted(INPUTS.glob("*.json"))
]


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
            assert [zero_multiplicity(L, x) for x in lines] == [ref_zero_multiplicity(L, x) for x in lines], t.coeffs
    assert valid == 1431


@pytest.mark.parametrize("name,L", NAMED_CASES, ids=[c[0] for c in NAMED_CASES])
def test_zero_multiplicity_at_seeded_points(name, L):
    for x in [L.basis_vector(i) for i in range(L.dim)] + _seeded_points(L, 4):
        assert zero_multiplicity(L, x) == ref_zero_multiplicity(L, x), x


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
            assert _decomposition(got) == _decomposition(ref_fitting_set(L, [verdict.witness])), t.coeffs
    assert witnesses == 1404


def _nilpotent_basis_vectors(L):
    return [v for v in map(L.basis_vector, range(L.dim)) if (L.ad(v) ** L.dim).is_zero()]


@pytest.mark.parametrize("name,L", NAMED_CASES, ids=[c[0] for c in NAMED_CASES])
def test_fitting_of_ad_nilpotent_basis_vectors(name, L):
    """Each basis vector with a nilpotent ad alone, and, in a nilpotent
    algebra, the whole basis as one family."""
    vectors = _nilpotent_basis_vectors(L)
    for v in vectors:
        assert _decomposition(fitting_set(L, [v])) == _decomposition(ref_fitting_set(L, [v])), v
    if len(vectors) == L.dim:
        assert _decomposition(fitting_set(L, vectors)) == _decomposition(ref_fitting_set(L, vectors))


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
        assert _decomposition(got) == _decomposition(ref_fitting_set(L, family))
        assert got.nu == L.dim - 1


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
def test_fitting_set_refuses_a_family_that_is_not_almost_commuting(field):
    """(ad h)^3 e = 8e in sl2, so {e, h} is not almost commuting."""
    L = sl(field, 2)
    family = [L.basis_vector(L.labels.index(name)) for name in ("e", "h")]
    for fit in (fitting_set, ref_fitting_set):
        with pytest.raises(StructureError, match="not almost commuting"):
            fit(L, family)


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
        assert got == want == ref_pow(mat, k), k
        assert _in_field(field, got.rows)
        want = want * mat


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_kernel_and_image_match_elimination(case):
    """On random matrices and on the zero matrix of the same shape."""
    field, rows, n = case
    for mat in (Matrix(field, rows, ncols=n), Matrix(field, [[0] * n for _ in rows], ncols=n)):
        assert mat.kernel() == eliminated_kernel(mat) and mat.image() == eliminated_image(mat)
        assert mat.kernel().ambient == mat.n and mat.image().ambient == mat.m


@pytest.mark.parametrize("name,L", NAMED_CASES, ids=[c[0] for c in NAMED_CASES])
def test_ad_basis_is_ad_of_the_basis_vector(name, L):
    for i in range(L.dim):
        got = L.ad_basis(i)
        assert got == L.ad(L.basis_vector(i)) and got.rows == tuple(map(tuple, ref_ad(L, L.basis_vector(i))))
        assert L.ad_basis(i) is got
