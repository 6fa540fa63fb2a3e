"""Exact linear algebra: matrices, polynomial invariants, subspaces."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def sq_strategy(field, n, lo=-4, hi=4):
    if field is QQ:
        scalar = st.integers(lo, hi).map(QQ.of)
    else:
        scalar = st.integers(0, field.p - 1).map(field.of)
    row = st.tuples(*([scalar] * n))
    return st.tuples(*([row] * n)).map(lambda rows: Matrix(field, rows, ncols=n))


class TestMatrixBasics:
    @given(a=sq_strategy(F5, 3), b=sq_strategy(F5, 3), c=sq_strategy(F5, 3))
    @settings(max_examples=40)
    def test_product_axioms(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a * b).transpose() == b.transpose() * a.transpose()

    @given(a=sq_strategy(QQ, 3))
    @settings(max_examples=30)
    def test_trace_of_commutator_vanishes(self, a):
        b = qmat([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert (a * b - b * a).trace() == QQ.zero

    def test_from_columns_round_trip(self):
        m = qmat([[1, 2], [3, 4], [5, 6]])
        rebuilt = Matrix.from_columns(QQ, m.columns(), nrows=3)
        assert rebuilt == m
        assert m.column(1) == (QQ.of(2), QQ.of(4), QQ.of(6))

    def test_pow(self):
        m = qmat([[1, 1], [0, 1]])
        assert (m ** 5).rows[0][1] == QQ.of(5)
        assert m ** 0 == Matrix.identity(QQ, 2)

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


class TestRankSolveKernel:
    @given(a=sq_strategy(F5, 4))
    @settings(max_examples=40)
    def test_rank_nullity(self, a):
        assert a.rank() + a.kernel().dim == 4
        assert a.image().dim == a.rank()

    @given(a=sq_strategy(QQ, 3), v=st.tuples(*([st.integers(-4, 4).map(QQ.of)] * 3)))
    @settings(max_examples=40)
    def test_solve_postcondition(self, a, v):
        b = a.apply(v)
        x = a.solve(b)
        assert x is not None
        assert a.apply(x) == b

    def test_solve_none_outside_image(self):
        a = qmat([[1, 0], [0, 0]])
        assert a.solve((QQ.zero, QQ.one)) is None

    @given(a=sq_strategy(F5, 3))
    @settings(max_examples=40)
    def test_kernel_vectors_annihilate(self, a):
        for v in a.kernel().basis():
            assert vec_is_zero(a.apply(v))


class TestCharAndMinPoly:
    @given(a=sq_strategy(QQ, 3))
    @settings(max_examples=25)
    def test_char_poly_matches_cofactor_oracle(self, a):
        assert a.char_poly() == UniPoly(a.field, oracle.char_poly(a.field.char, a.rows))

    @given(a=sq_strategy(F5, 4))
    @settings(max_examples=15)
    def test_char_poly_matches_cofactor_oracle_f5(self, a):
        assert a.char_poly() == UniPoly(a.field, oracle.char_poly(a.field.char, a.rows))

    @given(a=sq_strategy(QQ, 4, -3, 3))
    @settings(max_examples=15)
    def test_cayley_hamilton(self, a):
        assert horner(a, a.char_poly()).is_zero()

    @given(a=sq_strategy(F5, 3))
    @settings(max_examples=30)
    def test_min_poly_divides_char_poly(self, a):
        mp, cp = a.min_poly(), a.char_poly()
        assert (cp % mp).is_zero()
        assert horner(a, mp).is_zero()
        # minimality: no proper monic divisor of mp annihilates
        assert mp.leading() == F5.one

    def test_min_poly_of_projection(self):
        proj = qmat([[1, 0], [0, 0]])
        t = UniPoly.t(QQ)
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
        g = a + a.transpose()  # symmetric
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
        for b in u.basis():
            assert u.contains(b)
            coords = u.coords_of(b)
            assert coords is not None
            # coords recombine to the vector
            acc = (F5.zero,) * 4
            for c, row in zip(coords, u.basis()):
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


class TestRationalKernelOracle:
    """The kernel over Q against the oracle's Fraction elimination and
    cofactor determinant, which know nothing of kernel scalars, on matrices
    that mix ints, integral Fractions and non-integral Fractions."""

    @given(rows=q_rows())
    @settings(max_examples=60, deadline=None)
    def test_rref_rank_kernel_image(self, rows):
        m, n = len(rows), len(rows[0])
        a = Matrix(QQ, rows, n)
        ref, pivots = oracle.rref(0, rows, n)
        assert a.rref() == (ref, pivots)
        assert a.rank() == len(pivots)
        # the kernel: one vector per free column, in canonical form
        ker = a.kernel()
        assert (ker.rows, ker.pivots) == oracle.rref(0, oracle.kernel(0, rows, n), n)
        for v in ker.rows:
            assert oracle.apply(0, rows, v) == (0,) * m
        image = a.image()
        columns = [[row[j] for row in rows] for j in range(n)]
        assert (image.rows, image.pivots) == oracle.rref(0, columns, m)
        for k in (a._k, ker._k, image._k):
            assert_canonical_kernel_scalars(x for row in k for x in row)
        # rows inside the elimination may hold a Fraction of denominator 1,
        # never a float
        for row in a._rref[0]:
            assert all(type(x) in (int, Fraction) for x in row)

    @given(rows=q_rows(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_solve(self, rows, data):
        m, n = len(rows), len(rows[0])
        a = Matrix(QQ, rows, n)
        if data.draw(st.booleans()):
            b = oracle.apply(0, rows, [data.draw(q_entry) for _ in range(n)])
        else:
            b = tuple(Fraction(data.draw(q_entry)) for _ in range(m))
        # None when inconsistent, else free coordinates zero
        x = a.solve(b)
        assert x == oracle.solve(0, rows, n, b)
        if x is not None:
            assert oracle.apply(0, rows, x) == b
            assert all(type(c) is Fraction for c in x)

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

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_char_poly(self, data):
        n = data.draw(st.integers(1, 6))
        rows = data.draw(q_rows(m=n, n=n))
        cp = Matrix(QQ, rows, n).char_poly()
        assert cp.degree == n and all(type(c) is Fraction for c in cp.coeffs)
        # a monic polynomial of degree n is fixed by its values at n points
        for t in range(n):
            shifted = [[(t if i == j else 0) - Fraction(x) for j, x in enumerate(row)] for i, row in enumerate(rows)]
            assert cp.eval_scalar(t) == oracle.det(0, shifted)


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
