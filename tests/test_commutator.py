"""Expressing elements as single brackets, orthogonality of Fitting
components under invariant forms, and minimal counterexample scans."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lielab.algebra import StructureError
from lielab.catalog import QuaternionAlgebra, heisenberg, r2, sl, su2q
from lielab.commutator import (
    CommutatorWitness,
    commutator_search,
    fitting_orthogonality,
    is_minimal_non,
    orthogonal_complement,
    proper_subalgebras,
    quaternion_commutator,
    rank1_commutator,
    _count_subspaces,
    _subspaces,
)
from lielab.fields import GF, QQ
from lielab.linalg import Subspace, vec_is_zero, vec_sub
from lielab.regularity import zero_multiplicity

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)

sl2q = sl(QQ, 2)
SU = su2q()


def qvec(*cs):
    return tuple(QQ.of(c) for c in cs)


class TestRank1Commutator:
    def test_su2q_basis_target(self):
        k = SU.killing_form()
        w = rank1_commutator(SU, k, SU.basis_vector(0))
        assert SU.bracket(w.z, w.y) == SU.basis_vector(0)

    @given(x=st.tuples(*([st.integers(-5, 5).map(QQ.of)] * 3)))
    @settings(max_examples=40)
    def test_su2q_generic_targets(self, x):
        if vec_is_zero(x):
            return
        w = rank1_commutator(SU, SU.killing_form(), x)
        assert SU.bracket(w.z, w.y) == tuple(x)

    def test_sl2_target(self):
        k = sl2q.killing_form()
        h = sl2q.basis_vector(1)
        w = rank1_commutator(sl2q, k, h)
        assert sl2q.bracket(w.z, w.y) == h

    def test_witness_recheck_fires(self):
        with pytest.raises(ValueError):
            CommutatorWitness(SU, SU.basis_vector(0), SU.basis_vector(1), SU.basis_vector(1), "forged")

    def test_degenerate_form_rejected(self):
        H = heisenberg(QQ, 1)
        with pytest.raises(ValueError):
            rank1_commutator(H, H.killing_form(), H.basis_vector(2))

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            rank1_commutator(SU, SU.killing_form(), SU.zero_vector())


class TestQuaternionCommutator:
    def test_basis_target(self):
        Q = QuaternionAlgebra(QQ, QQ.of(-1), QQ.of(-1))
        x = qvec(0, 1, 0, 0)
        u, v = quaternion_commutator(Q, x)
        lhs = vec_sub(Q.multiply(u, v), Q.multiply(v, u))
        assert lhs == x

    @given(
        x=st.tuples(
            st.just(QQ.zero),
            st.integers(-5, 5).map(QQ.of),
            st.integers(-5, 5).map(QQ.of),
            st.integers(-5, 5).map(QQ.of),
        )
    )
    @settings(max_examples=40)
    def test_trace_zero_targets(self, x):
        if vec_is_zero(x):
            return
        Q = QuaternionAlgebra(QQ, QQ.of(-1), QQ.of(-1))
        u, v = quaternion_commutator(Q, x)
        assert vec_sub(Q.multiply(u, v), Q.multiply(v, u)) == tuple(x)

    def test_rejects_nonzero_trace(self):
        Q = QuaternionAlgebra(QQ, QQ.of(-1), QQ.of(-1))
        with pytest.raises(ValueError):
            quaternion_commutator(Q, qvec(1, 1, 0, 0))

    def test_rejects_split_algebra(self):
        Q = QuaternionAlgebra(QQ, QQ.of(4), QQ.of(-1))
        with pytest.raises(ValueError):
            quaternion_commutator(Q, qvec(0, 1, 0, 0))


class TestFittingOrthogonality:
    def test_sl2_semisimple_element(self):
        k = sl2q.killing_form()
        res = fitting_orthogonality(sl2q, k, [sl2q.basis_vector(1)])
        assert res.null_component.dim == 1
        assert res.one_component.dim == 2
        assert res.equal

    def test_su2q_each_basis_element(self):
        k = SU.killing_form()
        for i in range(3):
            res = fitting_orthogonality(SU, k, [SU.basis_vector(i)])
            assert res.equal

    def test_orthogonal_complement_dimension(self):
        k = sl2q.killing_form()
        line = Subspace.from_vectors(QQ, 3, [sl2q.basis_vector(1)])
        perp = orthogonal_complement(k, line)
        assert perp.dim == 2


class TestCommutatorSearch:
    def test_sl2_finds_h(self):
        w = commutator_search(sl2q, sl2q.basis_vector(1))
        assert w is not None
        assert sl2q.bracket(w.z, w.y) == sl2q.basis_vector(1)

    def test_zero_target_trivial_witness(self):
        w = commutator_search(sl2q, sl2q.zero_vector())
        assert w is not None
        assert vec_is_zero(w.z) and vec_is_zero(w.y)

    def test_outside_commutant_rejected(self):
        R = r2(QQ)
        with pytest.raises(ValueError):
            commutator_search(R, R.basis_vector(0))

    def test_f5_commutant_elements(self):
        L = sl(F5, 2)
        for i in range(3):
            w = commutator_search(L, L.basis_vector(i))
            assert w is not None


class TestSubspaceScan:
    def test_counts_match_enumeration(self):
        # Gaussian binomials [n over d]_p against the pivot and slot walk
        for field, top in ((F2, 5), (F3, 5), (F5, 4)):
            for n in range(top):
                for d in range(n + 1):
                    got = len(list(_subspaces(field, n, d)))
                    assert got == _count_subspaces(field.p, n, d)
        assert _count_subspaces(2, 3, 1) == 7
        assert _count_subspaces(3, 3, 1) == 13

    def test_enumerated_spaces_are_distinct_and_correct(self):
        seen = set()
        for s in _subspaces(F3, 3, 2):
            assert s.dim == 2
            seen.add(s)
        assert len(seen) == _count_subspaces(3, 3, 2)

    def test_proper_subalgebras_are_the_closed_proper_subspaces(self):
        L = heisenberg(F3, 1)
        found = list(proper_subalgebras(L))
        closed = [S for d in range(1, L.dim) for S in _subspaces(F3, L.dim, d) if L.is_subalgebra(S)]
        assert [S for S, _ in found] == closed
        for S, sub in found:
            assert sub.dim == S.dim < L.dim and sub.jacobi_violations() == []
            assert sub.basis_bracket(0, sub.dim - 1) == S.coords_of(L.bracket(S.rows[0], S.rows[-1]))
        # [L, L] is the line of z: all 13 lines of F_3^3 are closed, and of
        # the 13 planes the 4 that contain z
        assert len(found) == 13 + 4
        assert is_minimal_non(r2(F3), "regular").evidence["subalgebras_checked"] == len(list(proper_subalgebras(r2(F3))))


class TestMinimalNon:
    def test_r2_f3_minimal_non_regular(self):
        v = is_minimal_non(r2(F3), "regular")
        assert v.is_certified
        assert v.certificate == "exhaustive"

    def test_r2_f3_minimal_non_nilpotent(self):
        assert is_minimal_non(r2(F3), "nilpotent").is_certified

    def test_heisenberg_f2_fails_minimality_check(self):
        # the property holds on the whole algebra, so "minimal non" is refuted
        v = is_minimal_non(heisenberg(F2, 1), "regular")
        assert v.is_refuted
        assert v.evidence["reason"] == "property-holds-on-the-whole-algebra"

    def test_sl2_f3_has_bad_proper_subalgebra(self):
        v = is_minimal_non(sl(F3, 2), "regular")
        assert v.is_refuted
        assert v.evidence["reason"] == "proper-subalgebra-fails"

    def test_sl2_f5_not_minimal_non_abelian(self):
        v = is_minimal_non(sl(F5, 2), "abelian")
        assert v.is_refuted

    def test_rationals_rejected(self):
        with pytest.raises(ValueError):
            is_minimal_non(r2(QQ), "regular")

    def test_unknown_property(self):
        with pytest.raises(ValueError):
            is_minimal_non(r2(F3), "perfect")
