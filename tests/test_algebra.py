"""Structure-constant algebras: brackets, series, forms, derivations,
quotients, extensions, and second cohomology."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lielab.algebra import (
    AssocAlgebra,
    LieAlgebra,
    StructureError,
    canonical_dumps,
    central_extension,
    centroid,
    coboundary_space,
    cocycle_space,
    derivation_algebra,
    direct_sum,
    h2_trivial,
    is_cocycle,
    is_simple,
    quotient,
    quotient_with_projection,
    tensor_commutative,
)
from lielab.catalog import (
    QuaternionAlgebra,
    abelian,
    canonical_instances,
    heisenberg,
    make,
    on,
    psl,
    r2,
    sl,
    strict_upper,
    su2q,
)
from lielab.fields import GF, QQ
from lielab.linalg import Matrix, Subspace, vec_add, vec_is_zero, vec_scale

F3 = GF(3)
F5 = GF(5)


def qvec(*cs):
    return tuple(QQ.of(c) for c in cs)


def fvec(field, *cs):
    return tuple(field.of(c) for c in cs)


sl2q = sl(QQ, 2)  # basis e, h, f
h3 = heisenberg(QQ, 1)  # basis x, y, z with [x, y] = z

vec3_f5 = st.tuples(*([st.integers(0, 4).map(F5.of)] * 3))


class TestConstruction:
    def test_validation_rejects_jacobi_failure(self):
        # [a,b]=c, [a,c]=a, [b,c]=b has Jacobi defect 2c
        bad = {(0, 1): {2: QQ.one}, (0, 2): {0: QQ.one}, (1, 2): {1: QQ.one}}
        with pytest.raises(StructureError):
            LieAlgebra(QQ, ("a", "b", "c"), bad)
        # unchecked defers, violations surface on demand
        L = LieAlgebra.unchecked(QQ, ("a", "b", "c"), bad)
        assert L.jacobi_violations()

    def test_table_index_bounds(self):
        with pytest.raises(StructureError):
            LieAlgebra(QQ, ("a",), {(0, 1): {0: QQ.one}})

    def test_zero_coefficients_dropped(self):
        L = LieAlgebra(QQ, ("a", "b"), {(0, 1): {0: QQ.zero}})
        assert L.table == {}

    def test_scalars_coerced(self):
        L = LieAlgebra(QQ, ("x", "y"), {(0, 1): {1: 1}})
        assert L.bracket(L.basis_vector(0), L.basis_vector(1)) == L.basis_vector(1)


class TestBracket:
    @given(x=vec3_f5, y=vec3_f5, z=vec3_f5, s=st.integers(0, 4).map(F5.of))
    @settings(max_examples=60)
    def test_bilinear_antisymmetric_jacobi(self, x, y, z, s):
        L = sl(F5, 2)
        br = L.bracket
        assert br(x, y) == vec_scale(br(y, x), -L.field.one)
        assert br(vec_add(x, vec_scale(z, s)), y) == vec_add(
            br(x, y), vec_scale(br(z, y), s)
        )
        jac = vec_add(
            vec_add(br(x, br(y, z)), br(y, br(z, x))), br(z, br(x, y))
        )
        assert vec_is_zero(jac)

    def test_basis_bracket_agrees(self):
        for i in range(3):
            for j in range(3):
                assert sl2q.basis_bracket(i, j) == sl2q.bracket(
                    sl2q.basis_vector(i), sl2q.basis_vector(j)
                )

    def test_ad_matrix(self):
        e, h, f = (sl2q.basis_vector(i) for i in range(3))
        assert sl2q.ad(h).apply(e) == vec_scale(e, QQ.of(2))
        assert sl2q.ad(e).apply(f) == h

    def test_coerce_vector_length_check(self):
        with pytest.raises(ValueError):
            sl2q.bracket((QQ.one,), (QQ.one,))


class TestSubspaces:
    def test_center_and_commutant(self):
        assert h3.center().basis() == (h3.basis_vector(2),)
        assert h3.commutant().basis() == (h3.basis_vector(2),)
        assert sl2q.center().is_zero()
        assert sl2q.commutant().is_full()
        R = r2(QQ)
        assert R.commutant().basis() == (R.basis_vector(1),)

    def test_centralizer(self):
        e = sl2q.basis_vector(0)
        cent = sl2q.centralizer(e)
        assert cent.dim == 1 and cent.contains(e)

    def test_normalizer_of_borel(self):
        # span{e, h} is self-normalizing in sl2
        borel = Subspace.from_vectors(
            QQ, 3, [sl2q.basis_vector(0), sl2q.basis_vector(1)]
        )
        assert sl2q.normalizer(borel) == borel
        assert sl2q.is_subalgebra(borel)
        assert not sl2q.is_ideal(borel)

    def test_ideal_generated(self):
        # sl2 is simple: any nonzero element generates everything
        assert sl2q.ideal_generated([sl2q.basis_vector(0)]).is_full()
        # but e alone spans only itself as a subalgebra
        assert sl2q.subalgebra_generated([sl2q.basis_vector(0)]).dim == 1


class TestSeries:
    def test_heisenberg_is_two_step(self):
        lcs = h3.lower_central_series()
        assert [s.dim for s in lcs] == [3, 1, 0]
        rep = h3.structure_report()
        assert rep.nilpotent and rep.nilpotency_class == 2
        assert rep.solvable and rep.derived_length == 2

    def test_r2_solvable_not_nilpotent(self):
        rep = r2(QQ).structure_report()
        assert rep.solvable and not rep.nilpotent
        assert rep.derived_length == 2
        assert rep.nilpotency_class is None

    def test_strict_upper_class(self):
        U = strict_upper(QQ, 4)
        rep = U.structure_report()
        assert U.dim == 6
        assert rep.nilpotency_class == 3

    def test_sl2_report(self):
        rep = sl2q.structure_report()
        assert not rep.solvable and not rep.nilpotent
        assert rep.semisimple is True
        assert rep.killing_rank == 3
        assert rep.radical_dim == 0
        assert rep.center_dim == 0 and rep.commutant_dim == 3

    def test_report_json_is_canonical(self):
        d = sl2q.structure_report().to_json_dict()
        assert d["semisimple"] is True
        canonical_dumps(d)  # must serialize


class TestKillingForm:
    def test_sl2_gram(self):
        k = sl2q.killing_form()
        e, h, f = (sl2q.basis_vector(i) for i in range(3))
        assert k.evaluate(h, h) == QQ.of(8)
        assert k.evaluate(e, f) == QQ.of(4)
        assert k.evaluate(e, e) == QQ.zero
        assert k.evaluate(e, h) == QQ.zero

    def test_nilpotent_killing_vanishes(self):
        k = h3.killing_form()
        assert k.gram.is_zero()

    @given(x=vec3_f5, y=vec3_f5)
    @settings(max_examples=30)
    def test_killing_is_trace_form(self, x, y):
        L = sl(F5, 2)
        k = L.killing_form()
        assert k.evaluate(x, y) == (L.ad(x) * L.ad(y)).trace()

    def test_killing_orthogonal(self):
        full = Subspace.full_space(QQ, 3)
        assert sl2q.killing_form().orthogonal_of(full).is_zero()
        assert h3.killing_form().orthogonal_of(Subspace.full_space(QQ, 3)).is_full()


class TestDerivationsAndCentroid:
    def leibniz_holds(self, L, D):
        n = L.dim
        for i in range(n):
            for j in range(n):
                x, y = L.basis_vector(i), L.basis_vector(j)
                lhs = D.apply(L.bracket(x, y))
                rhs = vec_add(L.bracket(D.apply(x), y), L.bracket(x, D.apply(y)))
                if lhs != rhs:
                    return False
        return True

    def test_semisimple_derivations_are_inner(self):
        der, mats = derivation_algebra(sl2q)
        assert der.dim == 3
        assert all(self.leibniz_holds(sl2q, d) for d in mats)

    def test_heisenberg_derivations(self):
        der, mats = derivation_algebra(h3)
        assert der.dim == 6
        assert all(self.leibniz_holds(h3, d) for d in mats)

    def test_abelian_derivations_fill_gl(self):
        der, _ = derivation_algebra(abelian(F5, 2))
        assert der.dim == 4

    def test_zero_bracket_pairs_still_constrain(self):
        # On sl2 + (central line) a derivation must keep the line inside the
        # center; dropping the zero-bracket constraints would inflate this to 7.
        L = direct_sum(sl2q, abelian(QQ, 1))
        der, mats = derivation_algebra(L)
        assert der.dim == 4
        assert all(self.leibniz_holds(L, d) for d in mats)

    def test_centroid_scalars_only_when_simple(self):
        assert len(centroid(sl2q)) == 1
        assert len(centroid(psl(F3, 3))) == 1

    def test_centroid_of_sum_sees_both_blocks(self):
        L = direct_sum(sl2q, abelian(QQ, 1))
        mats = centroid(L)
        assert len(mats) == 2
        # every centroid map commutes with every bracket on basis pairs
        for phi in mats:
            for i in range(L.dim):
                for j in range(L.dim):
                    x, y = L.basis_vector(i), L.basis_vector(j)
                    assert phi.apply(L.bracket(x, y)) == L.bracket(phi.apply(x), y)
                    assert phi.apply(L.bracket(x, y)) == L.bracket(x, phi.apply(y))

    def test_heisenberg_centroid(self):
        assert len(centroid(h3)) == 5

    @pytest.mark.xfail(
        strict=True,
        reason="centroid imposes its equations only for pairs i < j, so it misses [phi b_i, b_i] = 0",
    )
    def test_centroid_maps_commute_with_every_ad(self):
        # expected size: the dimension of the commutant of ad L
        cases = [
            (r2(QQ), 1),
            (r2(F3), 1),
            (heisenberg(QQ, 1), 3),
            (heisenberg(QQ, 2), 5),
            (strict_upper(QQ, 4), 4),
        ]
        for L, commutant_dim in cases:
            mats = centroid(L)
            for phi in mats:
                for i in range(L.dim):
                    ad = L.ad_basis(i)
                    assert phi * ad == ad * phi, (L, i)
            assert len(mats) == commutant_dim, L


class TestSimplicity:
    def test_sl2_simple(self):
        assert is_simple(sl2q).is_certified

    def test_psl3_simple_exhaustive(self):
        v = is_simple(psl(F3, 3))
        assert v.is_certified

    def test_heisenberg_not_simple(self):
        v = is_simple(h3)
        assert v.is_refuted
        # witness generates a proper ideal
        ideal = h3.ideal_generated([v.witness])
        assert 0 < ideal.dim < 3

    def test_abelian_line_not_simple(self):
        assert is_simple(abelian(QQ, 1)).is_refuted


class TestQuotientsAndSums:
    def test_quotient_projection_is_homomorphism(self):
        S = sl(F3, 3)
        center_line = S.center()
        assert center_line.dim == 1  # char 3: identity is traceless
        P, proj = quotient_with_projection(S, center_line)
        assert P.dim == 7
        for i in range(S.dim):
            for j in range(S.dim):
                x, y = S.basis_vector(i), S.basis_vector(j)
                assert proj(S.bracket(x, y)) == P.bracket(proj(x), proj(y))

    def test_quotient_rejects_non_ideal(self):
        borel = Subspace.from_vectors(
            QQ, 3, [sl2q.basis_vector(0), sl2q.basis_vector(1)]
        )
        with pytest.raises(StructureError):
            quotient(sl2q, borel)

    def test_direct_sum_blocks(self):
        L = direct_sum(sl2q, h3)
        assert L.dim == 6
        assert L.center().dim == 1
        # cross brackets vanish
        x = L.basis_vector(0)
        y = L.basis_vector(4)
        assert vec_is_zero(L.bracket(x, y))

    def test_tensor_with_truncated_polynomials(self):
        A = on(F3, 1)  # K[x]/(x^3), dim 3
        L = tensor_commutative(sl(F3, 2), A)
        assert L.dim == 9
        rep = L.structure_report()
        assert not rep.solvable

    def test_tensor_rejects_noncommutative(self):
        Q = QuaternionAlgebra(QQ, QQ.of(-1), QQ.of(-1))
        with pytest.raises(StructureError):
            tensor_commutative(sl2q, Q.assoc)


class TestSerialization:
    def test_round_trip_catalog(self):
        for name, L in canonical_instances():
            data = L.to_json_dict()
            back = LieAlgebra.from_json_dict(data)
            assert back.canonical_json() == L.canonical_json(), name

    def test_canonical_json_sorted_and_stringy(self):
        s = su2q().canonical_json()
        assert '"2"' in s  # scalars serialized as strings
        assert s == canonical_dumps(su2q().to_json_dict())

    def test_from_json_validates(self):
        data = {
            "field": {"kind": "Q"},
            "dim": 3,
            "basis": ["a", "b", "c"],
            "brackets": [
                {"i": 0, "j": 1, "coeffs": {"2": "1"}},
                {"i": 0, "j": 2, "coeffs": {"0": "1"}},
                {"i": 1, "j": 2, "coeffs": {"1": "1"}},
            ],
        }
        with pytest.raises(StructureError):
            LieAlgebra.from_json_dict(data)
        lax = LieAlgebra.from_json_dict(data, validate=False)
        assert lax.jacobi_violations()


class TestCohomology:
    def test_dimensions_on_knowns(self):
        assert h2_trivial(sl2q)[0] == 0
        assert h2_trivial(h3)[0] == 2
        assert h2_trivial(r2(QQ))[0] == 0

    def test_cocycle_minus_coboundary_arithmetic(self):
        for L in (h3, r2(QQ), sl(F5, 2)):
            z2 = cocycle_space(L)
            b2 = coboundary_space(L)
            assert z2.contains_subspace(b2)
            assert h2_trivial(L)[0] == z2.dim - b2.dim

    def test_representatives_are_cocycles(self):
        _, reps = h2_trivial(h3)
        for rep in reps:
            assert is_cocycle(h3, rep)

    def test_central_extension_of_heisenberg(self):
        d, reps = h2_trivial(h3)
        E = central_extension(h3, reps[0])
        assert E.dim == 4
        assert E.jacobi_violations() == []
        # the added generator is central
        assert E.center().contains(E.basis_vector(3))

    def test_zero_cocycle_gives_split_extension(self):
        E = central_extension(sl2q, {})
        assert E.dim == 4
        assert E.center().dim == 1

    def test_extension_rejects_non_cocycle(self):
        # on h3 + central line, pairing the old center with the new line
        # violates the cocycle identity on the triple (x, y, w)
        L = direct_sum(h3, abelian(QQ, 1))
        omega = {(2, 3): QQ.one}
        assert not is_cocycle(L, omega)
        with pytest.raises(StructureError):
            central_extension(L, omega)


class TestAssocAlgebra:
    def test_quaternion_associativity_sampled(self):
        Q = QuaternionAlgebra(QQ, QQ.of(-1), QQ.of(-1))
        A = Q.assoc
        vs = [qvec(1, 2, 0, -1), qvec(0, 1, 1, 1), qvec(3, 0, -2, 5)]
        for x in vs:
            for y in vs:
                for z in vs:
                    assert A.multiply(A.multiply(x, y), z) == A.multiply(
                        x, A.multiply(y, z)
                    )

    def test_commutative_detection(self):
        assert on(F3, 1).is_commutative() if isinstance(on(F3, 1), AssocAlgebra) else True
        Q = QuaternionAlgebra(QQ, QQ.of(-1), QQ.of(-1))
        assert not Q.assoc.is_commutative()

    def test_assoc_json_round_trip(self):
        A = QuaternionAlgebra(GF(7), GF(7).of(-1), GF(7).of(-1)).assoc
        back = AssocAlgebra.from_json_dict(A.to_json_dict())
        assert back.canonical_json() == A.canonical_json()
