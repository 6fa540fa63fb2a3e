"""Exact linear algebra: matrices, polynomial invariants, subspaces."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lielab.fields import GF, QQ, UniPoly
from lielab.linalg import (
    Matrix,
    Subspace,
    diagonalize_quadratic,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
)

F2 = GF(2)
F5 = GF(5)


def qmat(rows):
    return Matrix(QQ, [[QQ.of(c) for c in row] for row in rows], ncols=len(rows[0]) if rows else 0)


def fmat(rows, field=F5):
    return Matrix(field, [[field.of(c) for c in row] for row in rows], ncols=len(rows[0]) if rows else 0)


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


def char_poly_by_cofactors(mat: Matrix) -> UniPoly:
    """Independent oracle: expand det(tI - A) over K[t] by the first column."""
    field = mat.field
    t = UniPoly.t(field)
    entries = [
        [
            (t if i == j else UniPoly.zero(field)) - UniPoly(field, [mat.rows[i][j]])
            for j in range(mat.n)
        ]
        for i in range(mat.n)
    ]

    def det(rows):
        size = len(rows)
        if size == 0:
            return UniPoly.one(field)
        if size == 1:
            return rows[0][0]
        total = UniPoly.zero(field)
        for i in range(size):
            minor = [r[1:] for k, r in enumerate(rows) if k != i]
            term = rows[i][0] * det(minor)
            total = total + term if i % 2 == 0 else total - term
        return total

    return det(entries)


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
        assert a.char_poly() == char_poly_by_cofactors(a)

    @given(a=sq_strategy(F5, 4))
    @settings(max_examples=15)
    def test_char_poly_matches_cofactor_oracle_f5(self, a):
        assert a.char_poly() == char_poly_by_cofactors(a)

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
