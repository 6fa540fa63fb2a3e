"""Exact linear algebra: matrices, polynomial invariants, subspaces; the
kernel's answers against ``oracle``, over Q and F_p."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lielab.catalog import sl
from lielab.fields import GF, QQ, Fp, UniPoly
from lielab.linalg import (
    _Echelon,
    Matrix,
    Subspace,
    diagonalize_quadratic,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
)

import oracle
from cases import FIELDS, frows, fsquare, fvec, scalars, space

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def qmat(rows):
    return Matrix(QQ, [[QQ.of(c) for c in row] for row in rows], ncols=len(rows[0]) if rows else 0)


def horner(a, p):
    """p(a) for a square matrix a."""
    n = a.n
    acc = Matrix.zeros(a.field, n, n)
    for c in reversed(p.coeffs):
        acc = acc * a + Matrix.identity(a.field, n).scale(c)
    return acc


def transpose(a):
    """a^T: the matrix whose columns are the rows of a."""
    return Matrix.from_columns(a.field, a.rows, nrows=a.n)


def rref(mat):
    """The reduced echelon form of mat in field scalars: (rows, pivots)."""
    rows, pivots = mat._rref
    return tuple(mat.field._from_k(r) for r in rows), pivots


def value(poly, t):
    """poly(t) by Horner's rule."""
    acc = poly.field.zero
    for c in reversed(poly.coeffs):
        acc = acc * poly.field.of(t) + c
    return acc


def sq_strategy(field, n, lo=-4, hi=4):
    if field is QQ:
        scalar = st.integers(lo, hi).map(QQ.of)
    else:
        scalar = st.integers(0, field.p - 1).map(field.of)
    row = st.tuples(*([scalar] * n))
    return st.tuples(*([row] * n)).map(lambda rows: Matrix(field, rows, ncols=n))


def assert_canonical_kernel_scalars(values):
    """Over Q a kernel scalar is an int, or a Fraction of denominator > 1."""
    for x in values:
        assert type(x) is int or (type(x) is Fraction and x.denominator > 1), repr(x)


# ints, integral Fractions and non-integral ones, with pivots +-1, +-2, 1/3
q_entry = st.one_of(
    st.sampled_from([0, 0, 1, -1, 2, -2]),
    st.integers(-3, 3),
    st.integers(-3, 3).map(Fraction),
    st.sampled_from([Fraction(1, 3), Fraction(-1, 3), Fraction(2, 3), Fraction(-5, 2), Fraction(7, 6)]),
)


@st.composite
def q_rows(draw, m=None, n=None):
    """Up to 6 x 6 rows, with a dependent row now and then so that ranks
    below full show up."""
    m = draw(st.integers(1, 6)) if m is None else m
    n = draw(st.integers(1, 6)) if n is None else n
    rows = [[draw(q_entry) for _ in range(n)] for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        f = draw(st.sampled_from([1, -2, Fraction(1, 3)]))
        rows[i] = [x + f * y for x, y in zip(rows[i], rows[j])] if i != j else [0] * n
    return rows


@st.composite
def _field_matrices(draw, field, square):
    """(rows, ncols) in field scalars: full-rank-ish or forced
    rank-deficient, including the empty shapes 0x0, m x 0 and 0 x n; when
    not square, also sparse and wide like the equation systems (up to
    12 x 24, at most three nonzeros in a fresh row, some rows sums of two
    earlier ones)."""
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
        return rows, n
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
    return [tuple(field.of(c) for c in row) for row in rows], n


@st.composite
def matrices(draw, field, square=False):
    """(rows, ncols) over field, the matrices of every kernel test against
    the oracle: over Q two times in three rows of q_entry as a caller may
    pass them, else those of _field_matrices; when square, a quarter of
    these nilpotent (strictly upper triangular, then its rows and columns
    permuted)."""
    if field is QQ and draw(st.integers(0, 2)) < 2:
        n = draw(st.integers(1, 6))
        return draw(q_rows(m=n if square else None, n=n)), n
    rows, n = draw(_field_matrices(field, square))
    if square and n and draw(st.integers(0, 3)) == 0:
        perm = draw(st.permutations(range(n)))
        upper = [[rows[i][j] if i < j else field.zero for j in range(n)] for i in range(n)]
        rows = [tuple(upper[perm[i]][perm[j]] for j in range(n)) for i in range(n)]
    return rows, n


# Each kernel test against the oracle runs once per field, so that a failure
# names its field.
per_field = pytest.mark.parametrize("field", FIELDS, ids=str)


def share(total, field):
    """A field's examples of a sweep of total, its share when one sweep drew
    the field: 3/8 for Q (rows of q_entry and field scalars), 1/8 for each
    F_p.  The shares of the six fields add up to total or more."""
    return -(-total * (3 if field is QQ else 1) // 8)


def entries(field):
    """Field scalars: over Q both the small fractions and q_entry."""
    if field is QQ:
        return st.one_of(scalars(QQ), q_entry.map(QQ.of))
    return scalars(field)


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


class TestMatrixBasics:
    @given(a=sq_strategy(F5, 3), b=sq_strategy(F5, 3), c=sq_strategy(F5, 3))
    @settings(max_examples=40)
    def test_product_axioms(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert transpose(a * b) == transpose(b) * transpose(a)

    @given(a=sq_strategy(QQ, 3))
    @settings(max_examples=30)
    def test_trace_of_commutator_vanishes(self, a):
        b = qmat([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert (a * b - b * a).trace() == QQ.zero

    def test_from_columns_round_trip(self):
        m = qmat([[1, 2], [3, 4], [5, 6]])
        rebuilt = Matrix.from_columns(QQ, [tuple(map(QQ.of, col)) for col in ((1, 3, 5), (2, 4, 6))], nrows=3)
        assert rebuilt == m

    def test_apply_matches_product(self):
        m = qmat([[1, 2], [3, 4]])
        v = (QQ.of(5), QQ.of(-1))
        assert m.apply(v) == (QQ.of(3), QQ.of(11))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            qmat([[1, 2]]) * qmat([[1, 2]])


class TestOneConstructor:
    """Matrix and Subspace each have one public constructor.  It takes field
    scalars or kernel scalars (ints need not be reduced), stores kernel rows
    only and refuses a scalar of another field.  Producers inside the kernel
    use ``_of_k``, which over F_p stores their reduced residue tuples as
    they are."""

    @pytest.mark.parametrize(
        "field,entry",
        [(QQ, 1.5), (QQ, Fp(1, 5)), (F5, Fp(1, 7)), (F5, Fraction(1, 2)), (F5, 1.0)],
        ids=["float-in-Q", "F5-in-Q", "F7-in-F5", "Fraction-in-F5", "float-in-F5"],
    )
    def test_foreign_scalar_refused(self, field, entry):
        with pytest.raises(TypeError):
            Matrix(field, [[field.one, entry]])
        with pytest.raises(TypeError):
            Subspace(field, 2, [[field.one, entry]], (0,))

    def test_ragged_rows_refused(self):
        with pytest.raises(ValueError):
            Matrix(F5, [[1, 2], [3]])
        with pytest.raises(ValueError):
            Matrix(QQ, [[1, 2]], ncols=3)

    @pytest.mark.parametrize("field", [QQ, F2, F5], ids=str)
    @given(data=st.data())
    @settings(max_examples=30)
    def test_field_and_kernel_scalars_agree(self, field, data):
        m, n = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        ints = [[data.draw(st.integers(-12, 12)) for _ in range(n)] for _ in range(m)]
        from_ints = Matrix(field, ints, ncols=n)
        from_field = Matrix(field, [[field.of(c) for c in row] for row in ints], ncols=n)
        assert from_ints == from_field and hash(from_ints) == hash(from_field)
        assert (from_ints.m, from_ints.n) == (m, n)
        assert all(field.contains(c) for row in from_ints.rows for c in row)
        assert from_ints.rows == tuple(tuple(field.of(c) for c in row) for row in ints)
        # the stored rows are kernel scalars: ints over Q for these integral
        # entries, residues over F_p
        for row in from_ints._k:
            for x in row:
                assert type(x) is int and (field is QQ or 0 <= x < field.p)

    @pytest.mark.parametrize("field", [QQ, F5], ids=str)
    def test_subspace_from_field_and_kernel_scalars(self, field):
        ints = [[1, 0, 7, -3], [0, 1, -1, 10]]
        from_ints = Subspace(field, 4, ints, (0, 1))
        from_field = Subspace(field, 4, [[field.of(c) for c in row] for row in ints], (0, 1))
        assert from_ints == from_field and hash(from_ints) == hash(from_field)
        assert from_ints == Subspace.from_vectors(field, 4, ints)
        assert all(field.contains(c) for row in from_ints.rows for c in row)
        assert from_ints.rows == tuple(tuple(field.of(c) for c in row) for row in ints)


def _assert_stored_as_constructed(built, rebuilt):
    assert built == rebuilt and hash(built) == hash(rebuilt) and built._k == rebuilt._k
    assert type(built._k) is tuple and all(type(row) is tuple for row in built._k)
    if built.field is QQ:
        assert_canonical_kernel_scalars(x for row in built._k for x in row)
    else:
        assert all(type(x) is int and 0 <= x < built.field.p for row in built._k for x in row)


@pytest.mark.parametrize("field", [QQ, F2, F5], ids=str)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_kernel_producers_store_what_the_constructor_makes(field, data):
    """The product, the span of vectors (through ``_Echelon.subspace``) and
    the kernel store what the public constructor makes of the same rows;
    over Q with ints where integral, as the Fractions of q_entry exercise."""
    n = data.draw(st.integers(1, 4))
    entry = q_entry if field is QQ else st.integers(-12, 12)
    a, b = ([[data.draw(entry) for _ in range(n)] for _ in range(n)] for _ in range(2))
    prod = Matrix(field, a, n) * Matrix(field, b, n)
    _assert_stored_as_constructed(prod, Matrix(field, prod._k, n))
    for space in (Subspace._span_k(field, n, a), Matrix(field, a, n).kernel()):
        _assert_stored_as_constructed(space, Subspace(field, n, space._k, space.pivots))


# -- the kernel against the oracle ---------------------------------------------------


@per_field
def test_rref_rank_kernel_image_match_the_oracle(field):
    """On each matrix and on the zero matrix of its shape: the reduced
    echelon form and rank; the kernel, one vector per free column, each
    killed by the matrix; the image, the span of the columns; all in the
    oracle's canonical echelon basis.  Over Q every stored scalar is a
    canonical kernel scalar, and the rows inside the elimination may hold a
    Fraction of denominator 1, never a float."""

    @given(matrices(field))
    @settings(max_examples=share(480, field), deadline=None)
    def check(case):
        rows, n = case
        p, m = field.char, len(rows)
        for mat in (Matrix(field, rows, ncols=n), Matrix(field, [[0] * n for _ in rows], ncols=n)):
            want, pivots = oracle.rref(p, mat.rows, n)
            assert rref(mat) == (frows(field, want), pivots)
            assert mat.rank() == len(pivots)
            ker, image = mat.kernel(), mat.image()
            ker_rows = oracle.kernel(p, mat.rows, n)
            assert ker == space(field, n, ker_rows)
            ker_ref, ker_pivots = oracle.rref(p, ker_rows, n)
            assert (ker.rows, ker.pivots) == (frows(field, ker_ref), ker_pivots)
            assert ker.dim + mat.rank() == n and ker.ambient == n
            assert all(not any(oracle.apply(p, mat.rows, v)) for v in ker.rows)
            assert all(vec_is_zero(mat.apply(v)) for v in ker.rows)
            assert image == space(field, m, oracle.image(p, mat.rows, n))
            columns, column_pivots = oracle.rref(p, [[row[j] for row in mat.rows] for j in range(n)], m)
            assert (image.rows, image.pivots) == (frows(field, columns), column_pivots)
            assert image.dim == mat.rank() and image.ambient == m
            if field is QQ:
                for k in (mat._k, ker._k, image._k):
                    assert_canonical_kernel_scalars(x for row in k for x in row)
            for row in mat._rref[0]:
                assert all(type(x) in (int, Fraction) for x in row)

    check()


@per_field
def test_solve_matches_the_oracle(field):
    """None when inconsistent, else the solution with every free unknown
    zero; a right-hand side in the image of a random x has one."""
    p, entry = field.char, entries(field)

    @given(matrices(field), st.data())
    @settings(max_examples=share(220, field), deadline=None)
    def check(case, data):
        rows, n = case
        consistent = data.draw(st.booleans())
        if consistent:
            b = fvec(field, oracle.apply(p, rows, [data.draw(entry) for _ in range(n)]))
        else:
            b = tuple(data.draw(entry) for _ in rows)
        mat = Matrix(field, rows, ncols=n)
        got = mat.solve(b)
        want = oracle.solve(p, rows, n, b)
        assert got == (None if want is None else fvec(field, want))
        assert got is not None or not consistent
        if got is not None:
            assert fvec(field, oracle.apply(p, rows, got)) == b and mat.apply(got) == b
            assert field is not QQ or all(type(c) is Fraction for c in got)

    check()


def test_empty_shapes():
    for field in FIELDS:
        for m, n in ((0, 0), (3, 0), (0, 4)):
            mat = Matrix(field, [()] * m, ncols=n)
            assert rref(mat) == ((), ())
            assert mat.kernel().dim == n
            assert mat.solve((field.zero,) * m) == (field.zero,) * n
        assert Matrix(field, [], ncols=0).char_poly() == UniPoly.one(field)


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


@per_field
def test_power_matches_the_oracle_and_repeated_products(field):
    """A^k for k = 0..max(2n, 5): the product of k copies of A, starting
    from the identity, and the oracle's power, with entries in the field."""

    @given(matrices(field, square=True))
    @example(([[1, 1], [0, 1]], 2))
    @settings(max_examples=share(200, field), deadline=None)
    def check(case):
        rows, n = case
        mat = Matrix(field, rows, ncols=n)
        want = Matrix.identity(field, n)
        for k in range(max(2 * n, 5) + 1):
            got = mat**k
            assert got == want == fsquare(field, oracle.power(field.char, rows, k)), k
            assert _in_field(field, got.rows)
            want = want * mat

    check()


class TestRankSolveKernel:
    def test_solve_none_outside_image(self):
        a = qmat([[1, 0], [0, 0]])
        assert a.solve((QQ.zero, QQ.one)) is None


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


class TestCharAndMinPoly:
    @per_field
    def test_char_poly_matches_the_oracle(self, field):
        """The oracle's cofactor expansion, of degree n; and, since a monic
        polynomial of degree n is fixed by its values at n points, the
        oracle's det(tI - A) at t = 0..n-1.  Over Q every coefficient is a
        Fraction."""
        p = field.char

        @given(matrices(field, square=True))
        @settings(max_examples=share(200, field), deadline=None)
        def check(case):
            rows, n = case
            cp = Matrix(field, rows, ncols=n).char_poly()
            assert cp == UniPoly(field, oracle.char_poly(p, rows))
            assert cp.degree == n
            assert field is not QQ or all(type(c) is Fraction for c in cp.coeffs)
            a = oracle.matrix(p, rows)
            for t in range(n):
                shifted = [[(t if i == j else 0) - x for j, x in enumerate(row)] for i, row in enumerate(a)]
                assert value(cp, t) == field.of(oracle.det(p, shifted))

        check()

    @given(a=sq_strategy(QQ, 4, -3, 3))
    @settings(max_examples=15)
    def test_cayley_hamilton(self, a):
        assert horner(a, a.char_poly()).is_zero()

    @per_field
    def test_min_poly_matches_the_oracle(self, field):
        """The oracle's minimal polynomial, the first power of A that is a
        combination of the powers before it; so also monic, a divisor of
        the characteristic polynomial and zero at A."""

        @given(matrices(field, square=True))
        @settings(max_examples=share(130, field), deadline=None)
        def check(case):
            rows, n = case
            a = Matrix(field, rows, ncols=n)
            mp, cp = a.min_poly(), a.char_poly()
            assert mp == UniPoly(field, oracle.min_poly(field.char, rows))
            assert mp.leading() == field.one
            assert (cp % mp).is_zero()
            assert horner(a, mp).is_zero()

        check()

    @pytest.mark.parametrize("name", sorted(KNOWN_MIN_POLYS))
    def test_min_poly_of_known_matrices(self, name):
        field, rows, want = KNOWN_MIN_POLYS[name]
        rows = [tuple(field.of(c) for c in row) for row in rows]
        got = Matrix(field, rows, ncols=len(rows)).min_poly()
        assert got == UniPoly(field, oracle.min_poly(field.char, rows))
        assert got == want

    def test_min_poly_of_projection(self):
        proj = qmat([[1, 0], [0, 0]])
        t = UniPoly(QQ, (0, 1))
        assert proj.min_poly() == t * t - t  # t(t-1)

    def test_char_poly_constant_term_is_det_sign(self):
        a = qmat([[2, 1], [1, 1]])  # det 1
        cp = a.char_poly()
        assert cp.coeff(0) == QQ.of(1)  # (-1)^2 det


class TestQuadraticDiagonalization:
    def test_identity_form(self):
        assert diagonalize_quadratic(Matrix.identity(QQ, 3)) == (QQ.one,) * 3

    def test_signs_are_congruence_invariant(self):
        # x*y hyperbolic plane: signature (+,-)
        g = qmat([[0, 1], [1, 0]])
        d = diagonalize_quadratic(g)
        signs = sorted(1 if c > 0 else -1 if c < 0 else 0 for c in d)
        assert signs == [-1, 1]

    @given(a=sq_strategy(QQ, 3, -3, 3))
    @settings(max_examples=30)
    def test_rank_preserved(self, a):
        g = a + transpose(a)  # symmetric
        d = diagonalize_quadratic(g)
        assert sum(1 for c in d if c) == g.rank()

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            diagonalize_quadratic(qmat([[0, 1], [0, 0]]))

    def test_rejects_prime_field(self):
        with pytest.raises(ValueError):
            diagonalize_quadratic(Matrix.identity(F5, 2))


small_vecs = st.lists(
    st.tuples(*([st.integers(0, 4).map(F5.of)] * 4)), min_size=0, max_size=4
)


class TestSubspace:
    @given(us=small_vecs, vs=small_vecs)
    @settings(max_examples=60)
    def test_dimension_formula(self, us, vs):
        u = Subspace.from_vectors(F5, 4, us)
        v = Subspace.from_vectors(F5, 4, vs)
        s = u.sum_with(v)
        i = u.intersect(v)
        assert s.dim + i.dim == u.dim + v.dim
        assert s.contains_subspace(u) and s.contains_subspace(v)
        assert u.contains_subspace(i) and v.contains_subspace(i)

    @given(us=small_vecs)
    @settings(max_examples=60)
    def test_membership_and_coords(self, us):
        u = Subspace.from_vectors(F5, 4, us)
        for b in u.rows:
            assert u.contains(b)
            coords = u.coords_of(b)
            assert coords is not None
            # coords recombine to the vector
            acc = (F5.zero,) * 4
            for c, row in zip(coords, u.rows):
                acc = vec_add(acc, vec_scale(row, c))
            assert acc == b

    def test_reduce_is_canonical_rep(self):
        u = Subspace.from_vectors(QQ, 3, [(QQ.one, QQ.zero, QQ.zero)])
        v = (QQ.of(5), QQ.of(2), QQ.of(3))
        r = u.reduce(v)
        assert u.contains(vec_sub(v, r))
        assert u.reduce(r) == r

    def test_zero_and_full(self):
        z = Subspace.zero_space(QQ, 3)
        f = Subspace.full_space(QQ, 3)
        assert z.dim == 0 and z.is_zero()
        assert f.dim == 3 and f.is_full()
        assert f.contains_subspace(z)

    def test_canonical_equality(self):
        a = Subspace.from_vectors(QQ, 2, [(QQ.of(2), QQ.of(4))])
        b = Subspace.from_vectors(QQ, 2, [(QQ.of(1), QQ.of(2))])
        assert a == b
        assert hash(a) == hash(b)

    def test_complement_indices(self):
        u = Subspace.from_vectors(QQ, 3, [(QQ.one, QQ.zero, QQ.one)])
        comp = u.complement_indices()
        assert len(comp) == 2
        assert set(comp) | set(u.pivots) == {0, 1, 2} or len(set(comp)) == 2


class TestRationalKernelOracle:
    """Intersections over Q against the oracle's Fraction elimination, which
    knows nothing of kernel scalars, on rows that mix ints, integral
    Fractions and non-integral Fractions."""

    @given(us=q_rows(n=5), vs=q_rows(n=5))
    @settings(max_examples=50, deadline=None)
    def test_intersect(self, us, vs):
        u = Subspace.from_vectors(QQ, 5, us)
        v = Subspace.from_vectors(QQ, 5, vs)
        both = u.intersect(v)
        rank = lambda rows: len(oracle.rref(0, rows, 5)[1])
        assert both.dim == rank(us) + rank(vs) - rank(us + vs)
        assert (both.rows, both.pivots) == oracle.rref(0, both.rows, 5)
        for w in both.rows:
            assert rank(us + [w]) == rank(us) and rank(vs + [w]) == rank(vs)
        assert_canonical_kernel_scalars(x for row in both._k for x in row)


class TestEchelonFloor:
    """An elimination told the dimension of a subspace K that solves every
    row (rows in kernel scalars) stops reading rows once its rank is
    ambient - dim K, and its echelon rows and kernel are those of the full
    solve."""

    @given(data=st.data(), field=st.sampled_from([QQ, F5]))
    @settings(max_examples=80, deadline=None)
    def test_floor_keeps_the_full_solve(self, data, field):
        n = 6
        entry = q_entry if field is QQ else st.integers(0, 4)
        known = Subspace.from_vectors(field, n, [
            [field.of(data.draw(entry)) for _ in range(n)] for _ in range(data.draw(st.integers(0, 3)))
        ])
        # the rows vanishing on K, combined at random
        annihilator = Matrix(field, known.rows, n).kernel().rows if known.dim else Subspace.full_space(field, n).rows
        rows = []
        for _ in range(data.draw(st.integers(0, 9))):
            row = [field.zero] * n
            for vec in annihilator:
                row = vec_add(row, vec_scale(vec, field.of(data.draw(entry))))
            rows.append(field._to_k(row))
        rest = iter(rows)
        got = _Echelon(field, n, rest, known.dim)
        read = len(rows) - len(list(rest))
        full = _Echelon(field, n, rows)
        assert got.echelon() == full.echelon()
        assert got.kernel() == full.kernel()
        room = n - known.dim
        rank = lambda k: Matrix(field, rows[:k], n).rank()
        if len(full.rows) == room:
            # it stops at the row that brings the rank to the room left
            assert rank(read) == room and (read == 0 or rank(read - 1) < room)
            assert got.kernel() == known
        else:
            assert read == len(rows)


class TestKernelIdentities:
    """Three answers given without elimination: the kernel of no rows, a
    sum with the zero space and membership of the full space.  Each keeps
    the checks of the general path."""

    @pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
    def test_kernel_of_no_rows_is_the_full_space(self, field):
        for n in range(5):
            got = _Echelon(field, n).kernel()
            assert got == Subspace.full_space(field, n)
            assert got._k == Subspace._span_k(field, n, Subspace.full_space(field, n)._k)._k
            assert Matrix.zeros(field, 2, n).kernel() == got

    def test_full_space_membership_keeps_its_checks(self):
        full = Subspace.full_space(F5, 3)
        assert full.contains((F5.of(1), F5.of(2), F5.of(4)))
        assert full.contains((0, 7, -1))
        assert full.reduce((F5.of(3), F5.of(1), F5.of(2))) == (F5.zero,) * 3
        with pytest.raises(TypeError):
            full.contains((GF(7).of(1), F5.zero, F5.zero))
        with pytest.raises(ValueError):
            full.contains((F5.one, F5.zero))
        with pytest.raises(ValueError):
            Subspace.full_space(QQ, 2).contains((QQ.one,) * 3)
        with pytest.raises(TypeError):
            Subspace.full_space(QQ, 1).contains((0.5,))

    def test_sum_with_the_zero_space_keeps_its_checks(self):
        zero, full = Subspace.zero_space(F5, 3), Subspace.full_space(F5, 3)
        with pytest.raises(TypeError):
            zero.sum_with(Subspace.full_space(F5, 2))
        with pytest.raises(TypeError):
            Subspace.zero_space(F5, 2).sum_with(full)
        with pytest.raises(TypeError):
            zero.sum_with(Subspace.zero_space(QQ, 3))
        with pytest.raises(TypeError):
            Subspace.zero_space(QQ, 3).sum_with(zero)

    @given(data=st.data(), field=st.sampled_from([QQ, F5]))
    @settings(max_examples=80, deadline=None)
    def test_sum_with_equals_the_span_of_both(self, data, field):
        n = data.draw(st.integers(0, 4))
        entry = q_entry if field is QQ else st.integers(0, 4)

        def subspace():
            count = data.draw(st.integers(0, 3))
            return Subspace.from_vectors(field, n, [[field.of(data.draw(entry)) for _ in range(n)] for _ in range(count)])

        for u, v in ((subspace(), subspace()), (subspace(), Subspace.zero_space(field, n))):
            for a, b in ((u, v), (v, u)):
                assert a.sum_with(b) == Subspace._span_k(field, n, a._k + b._k)


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


class TestSharedFullSpace:
    """``Subspace.full_space`` hands out one instance per (field, ambient):
    shared, it must read as the span of the unit vectors however it was
    used before."""

    FIELDS = [QQ, F3, F5]

    @staticmethod
    def _units(field, n):
        return [[field.of(int(i == j)) for j in range(n)] for i in range(n)]

    @pytest.mark.parametrize("field", FIELDS, ids=["Q", "F3", "F5"])
    def test_one_instance_equal_to_the_span_of_the_units(self, field):
        for n in range(5):
            full = Subspace.full_space(field, n)
            assert Subspace.full_space(field, n) is full
            assert full == Subspace.from_vectors(field, n, self._units(field, n))
            assert full.pivots == tuple(range(n)) and full.is_full()

    @pytest.mark.parametrize("field", FIELDS, ids=["Q", "F3", "F5"])
    def test_use_leaves_later_answers_unchanged(self, field):
        for n in range(5):
            fresh = Subspace.from_vectors(field, n, self._units(field, n))
            line = Subspace.from_vectors(field, n, [[field.of(j + 1) for j in range(n)]])
            probe = tuple(field.of(2 * j + 1) for j in range(n))
            full = Subspace.full_space(field, n)
            for _ in range(2):
                assert full.rows == fresh.rows
                assert full._pivot_rows == fresh._pivot_rows
                assert full.sum_with(line) == fresh.sum_with(line)
                assert line.sum_with(full) == fresh
                assert full.intersect(line) == line and line.intersect(full) == line
                assert full.intersect(full) == fresh
                assert full.contains(probe) and full.reduce(probe) == (field.zero,) * n
                assert full.coords_of(probe) == probe
                assert full.complement_indices() == ()
            again = Subspace.full_space(field, n)
            assert again is full
            assert (again._k, again.pivots, again.rows) == (fresh._k, fresh.pivots, fresh.rows)
            assert Matrix.zeros(field, 1, n).kernel() is again

    def test_fields_do_not_share(self):
        for n in range(5):
            spaces = [Subspace.full_space(field, n) for field in self.FIELDS]
            assert len({id(s) for s in spaces}) == 3
            assert [s.field for s in spaces] == self.FIELDS
            assert len({s.ambient for s in spaces}) == 1
