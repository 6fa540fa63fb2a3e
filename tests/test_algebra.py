"""Structure-constant algebras: brackets, series, forms, derivations,
quotients, extensions, and second cohomology; the structure layer's answers
against ``oracle``."""

import inspect
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

import lielab.algebra as algebra
from hypothesis import strategies as st

from lielab.algebra import (
    AssocAlgebra,
    BilinearForm,
    LieAlgebra,
    StructureError,
    StructureReport,
    _ad_envelope_is_full,
    _ad_rows,
    _coboundary_rows,
    _commutant_equations,
    _jacobi_defects,
    _map_solutions,
    _refuted_by_ideal,
    _int_monic_rational_root,
    _integral_monic,
    _monic_rational_irreducible,
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
    EnumTable,
    QuaternionAlgebra,
    abelian,
    canonical_instances,
    gl,
    heisenberg,
    make,
    on,
    pgl,
    psl,
    r2,
    sl,
    strict_upper,
    su2q,
)
from lielab.budgets import EXHAUSTIVE_CAP, SYMBOLIC_DIM
from lielab.fields import GF, QQ, Fp, MultiPoly, UniPoly
from lielab.linalg import _Echelon, Matrix, Subspace, vec_add, vec_is_zero, vec_scale
from lielab.regularity import linear_family_char_coeffs
from lielab.verdict import RecheckFailed

import oracle
from cases import (
    census,
    fresh,
    fsquare,
    fvec,
    input_table,
    input_tables,
    named_cases,
    oracle_of,
    params,
    qvec,
    rescaled,
    scalars,
    space,
)

F3 = GF(3)
F5 = GF(5)

INPUT_CASES = input_tables()

sl2q = sl(QQ, 2)  # basis e, h, f
h3 = heisenberg(QQ, 1)  # basis x, y, z with [x, y] = z

vec3_f5 = st.tuples(*([st.integers(0, 4).map(F5.of)] * 3))


class TestConstruction:
    def test_validation_rejects_jacobi_failure(self):
        # [a,b]=c, [a,c]=a, [b,c]=b has Jacobi defect 2c
        bad = {(0, 1): {2: QQ.one}, (0, 2): {0: QQ.one}, (1, 2): {1: QQ.one}}
        with pytest.raises(StructureError):
            LieAlgebra(QQ, ("a", "b", "c"), bad)
        # built past the sweep, the violations surface on demand
        L = LieAlgebra(QQ, ("a", "b", "c"), bad, _validated=True)
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


class TestEveryAlgebraSatisfiesJacobi:
    """The checked constructor is the only public way to a LieAlgebra, so
    every decision may assume Jacobi and none asks whether it holds."""

    def test_every_builder_refuses_a_table_breaking_jacobi(self):
        # sl3 over Q with [E12, E23] = 2 E13
        S = sl(QQ, 3)
        labels, table = S.labels, S.table
        table[(0, 2)] = {1: QQ.of(2)}
        L = LieAlgebra(QQ, labels, table, _validated=True)
        assert len(L.jacobi_violations()) == 5
        coeffs = tuple(c for i, j in itertools.combinations(range(8), 2) for c in L.basis_bracket(i, j))
        builders = {
            "constructor": lambda: LieAlgebra(QQ, labels, table),
            "from_json_dict": lambda: LieAlgebra.from_json_dict(L.to_json_dict()),
            "EnumTable.algebra": lambda: EnumTable(8, QQ, coeffs, False).algebra(),
            # a table wrongly flagged valid goes through the sweep too
            "EnumTable.algebra flagged": lambda: EnumTable(8, QQ, coeffs, True).algebra(),
            "quotient": lambda: quotient(L, Subspace.from_vectors(QQ, 8, [])),
            "direct_sum": lambda: direct_sum(abelian(QQ, 1), L),
        }
        for name, build in builders.items():
            with pytest.raises(StructureError, match="Jacobi fails"):
                build()
                pytest.fail(name)

    def test_no_unchecked_builder_and_no_jacobi_question(self):
        assert not hasattr(LieAlgebra, "unchecked")
        assert "validate" not in inspect.signature(LieAlgebra.from_json_dict).parameters
        source = Path(algebra.__file__).parent
        assert not [path.name for path in source.glob("*.py") if "_jacobi_holds" in path.read_text()]

    def test_a_report_is_read_from_an_algebra_only(self):
        assert list(inspect.signature(StructureReport).parameters) == ["L"]
        with pytest.raises(TypeError):
            StructureReport(1, True, False, True, None, None, 1, 0, 0, None, None)
        L = sl(QQ, 2)
        assert StructureReport(L) == fresh(L).structure_report()

    @pytest.mark.parametrize("build,der_dim", [(lambda: sl(QQ, 3), 8), (lambda: gl(QQ, 3), 9)], ids=["sl3@Q", "gl3@Q"])
    def test_decisions_never_sweep_jacobi(self, build, der_dim, monkeypatch):
        # both routes of Der and H^2, simplicity and the report read L's
        # table without testing it again
        L = build()
        calls = []
        check = LieAlgebra.jacobi_violations
        monkeypatch.setattr(LieAlgebra, "jacobi_violations", lambda self: calls.append(self) or check(self))
        assert derivation_algebra(L)[0].dim == der_dim
        assert h2_trivial(L) == (0, [])
        is_simple(L)
        L.structure_report().to_json_dict()
        assert calls == []


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


def _eager_report(L):
    """Every field of L's report, in the report's order, from the oracle's
    series, center and Killing form."""
    A, p, n = oracle_of(L), L.field.char, L.dim
    full = oracle.identity(p, n)
    lcs, ds = oracle.lower_central_series(A), oracle.derived_series(A)
    commutant = oracle.bracket_span(A, full, full)
    center = oracle.kernel(p, [row for b in full for row in oracle.ad(A, b)], n)
    gram = oracle.killing(A)
    killing_rank = oracle.rank(p, gram, n)
    return {
        "dim": n,
        "abelian": not commutant,
        "nilpotent": not lcs[-1],
        "solvable": not ds[-1],
        "nilpotency_class": None if lcs[-1] else len(lcs) - 1,
        "derived_length": None if ds[-1] else len(ds) - 1,
        "center_dim": len(center),
        "commutant_dim": len(commutant),
        "killing_rank": killing_rank,
        "radical_dim": None if p else len(oracle.kernel(p, [oracle.apply(p, gram, u) for u in commutant], n)),
        "semisimple": None if p else killing_rank == n,
    }


_REPORT_FIELDS = StructureReport.__slots__


class TestLazyReport:
    """Each field of structure_report is computed when first read, and
    equals the oracle's value in any read order."""

    @staticmethod
    def _check_orders(L, orders):
        want = _eager_report(L)
        shown = "StructureReport(" + ", ".join(f"{name}={value!r}" for name, value in want.items()) + ")"
        other = StructureReport(fresh(L))
        for order in orders:
            report = fresh(L).structure_report()
            for name in order:
                assert getattr(report, name) == want[name], (L, order, name)
            assert report == other and repr(report) == shown
            assert list(report.to_json_dict().items()) == list(want.items())

    @staticmethod
    def _orders(seed, shuffles):
        rng = random.Random(seed)
        orders = [_REPORT_FIELDS, _REPORT_FIELDS[::-1]]
        for _ in range(shuffles):
            order = list(_REPORT_FIELDS)
            rng.shuffle(order)
            orders.append(order)
        return orders

    @pytest.mark.parametrize("name,L", params(canonical_instances()))
    def test_canonical_instances(self, name, L):
        self._check_orders(L, self._orders(name, 4))

    @pytest.mark.parametrize("name,L", params([(n, L) for n, L in INPUT_CASES if L.dim <= SYMBOLIC_DIM]))
    def test_benchmark_inputs(self, name, L):
        self._check_orders(L, self._orders(name, 2))

    @pytest.mark.parametrize("field", [GF(2), F3], ids=["F2", "F3"])
    def test_dim3_census(self, field):
        valid = census(3, field)
        assert len(valid) == {2: 120, 3: 1431}[field.p]
        for t, L in enumerate(valid):
            self._check_orders(L, self._orders(t, 1))

    def test_nilpotent_alone_computes_neither_center_nor_killing_form(self):
        for L in (sl(QQ, 2), psl(F3, 3), strict_upper(QQ, 4), *census(3, F3)[:40]):
            L = fresh(L)
            L.structure_report().nilpotent
            assert "killing" not in L._cache and "center" not in L._cache

    def test_the_implications_are_checked_on_read(self):
        report = fresh(sl2q).structure_report()
        report.abelian = True  # a wrong value, to see the check fire
        with pytest.raises(StructureError, match="abelian but not nilpotent"):
            report.nilpotent
        report = fresh(sl2q).structure_report()
        report.nilpotent = True
        with pytest.raises(StructureError, match="nilpotent but not solvable"):
            report.solvable

    def test_report_is_kept(self):
        L = fresh(sl2q)
        assert L.structure_report() is L.structure_report()
        with pytest.raises(AttributeError):
            L.structure_report().no_such_field


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

    def test_invariance_is_checked_on_first_read_only(self, monkeypatch):
        """Der, H^2 and is_simple never read invariance; its first read checks it once."""
        calls = []
        check = BilinearForm._check_invariance
        monkeypatch.setattr(BilinearForm, "_check_invariance", lambda form: calls.append(form) or check(form))
        L = sl(QQ, 3)
        form = L.killing_form()
        derivation_algebra(L), h2_trivial(L), is_simple(L)
        assert calls == []
        assert form.invariant is True and form.invariant is True
        assert calls == [form]
        assert BilinearForm(L, Matrix.identity(QQ, 8)).invariant is False


class TestDerivationsAndCentroid:
    def leibniz_holds(self, L, D):
        """D[x, y] = [Dx, y] + [x, Dy] on every pair of basis vectors, in
        the oracle's arithmetic."""
        A, p = oracle_of(L), L.field.char
        basis = oracle.identity(p, L.dim)
        images = [oracle.apply(p, D.rows, b) for b in basis]
        for (x, dx), (y, dy) in itertools.product(zip(basis, images), repeat=2):
            lhs = oracle.apply(p, D.rows, oracle.bracket(A, x, y))
            rhs = oracle.vector(p, [u + v for u, v in zip(oracle.bracket(A, dx, y), oracle.bracket(A, x, dy))])
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

    @pytest.mark.parametrize("field", [QQ, F5, GF(7)], ids=["Q", "F5", "F7"])
    def test_sl4_has_one_path_over_both_fields(self, field):
        # dimension 15: (dim Der, dim H^2, dim centroid) as over Q, with no
        # dimension cap for a finite field
        L = sl(field, 4)
        assert (derivation_algebra(L)[0].dim, h2_trivial(L)[0], len(centroid(L))) == (15, 0, 1)

    @pytest.mark.parametrize("name,L", params([(n, L) for n, L in named_cases() if n != "sl5q"]))
    def test_every_returned_matrix_is_a_derivation(self, name, L):
        # from the definition, on each basis pair, whatever route solved it
        mats = derivation_algebra(L)[1]
        assert mats and all(self.leibniz_holds(L, d) for d in mats)

    def test_centroid_scalars_only_when_simple(self):
        assert len(centroid(sl2q)) == 1
        assert len(centroid(psl(F3, 3))) == 1

    def test_centroid_of_sum_sees_both_blocks(self):
        L = direct_sum(sl2q, abelian(QQ, 1))
        mats = centroid(L)
        assert len(mats) == 2
        # every centroid map commutes with every bracket on basis pairs, in
        # the oracle's arithmetic
        A, p = oracle_of(L), L.field.char
        basis = oracle.identity(p, L.dim)
        for phi in mats:
            for x, y in itertools.product(basis, repeat=2):
                image = oracle.apply(p, phi.rows, oracle.bracket(A, x, y))
                assert image == oracle.bracket(A, oracle.apply(p, phi.rows, x), y)
                assert image == oracle.bracket(A, x, oracle.apply(p, phi.rows, y))

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

    @staticmethod
    def _simple_by_lines(L):
        """The oracle's answer: L is perfect and nonzero, and the ideal
        generated by each line of F_p^n is all of L (lines listed here, not
        by lielab)."""
        A = oracle_of(L)
        n, p = A.n, A.p
        basis = oracle.identity(p, n)
        if n == 0 or len(oracle.bracket_span(A, basis, basis)) < n:
            return False
        for lead in range(n):
            for rest in itertools.product(range(p), repeat=n - lead - 1):
                if len(oracle.ideal(A, [(0,) * lead + (1,) + rest])) < n:
                    return False
        return True

    @pytest.mark.parametrize("field", [GF(2), F3], ids=["F2", "F3"])
    def test_dim3_census_agrees_with_the_line_oracle(self, field):
        simple = 0
        for L in census(3, field):
            v = is_simple(fresh(L))
            assert v.is_certified == self._simple_by_lines(L), L.table
            assert v.is_certified or v.is_refuted
            simple += v.is_certified
        assert simple > 0

    def test_finite_field_instances_agree_with_the_line_oracle(self):
        small = [
            (n, L) for n, L in canonical_instances() if L.field.kind == "Fp" and L.field.p**L.dim <= 3**8
        ]
        assert small
        for name, L in small:
            assert is_simple(fresh(L)).is_certified == self._simple_by_lines(L), name

    def test_full_envelope_certifies_every_line_at_once(self):
        v = is_simple(psl(F3, 3))
        assert v.certificate == "exhaustive"
        assert v.evidence == {"lines_decided": 1093, "envelope_dim": 49}

    def test_simple_without_full_envelope_falls_back_to_the_scan(self):
        # sl2 over F_9, seen as a 6-dimensional algebra over F_3: simple,
        # but the ad(b_i) commute with multiplication by t, so they
        # generate only an 18-dimensional algebra of F_3-linear maps
        t_squared_is_minus_one = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: -1}}
        F9 = AssocAlgebra(F3, ("1", "t"), t_squared_is_minus_one, (1, 0))
        L = tensor_commutative(sl(F3, 2), F9)
        assert not _ad_envelope_is_full(L)
        v = is_simple(L)
        assert v.is_certified and v.certificate == "exhaustive"
        assert v.evidence == {"lines_scanned": (3**6 - 1) // 2}
        assert self._simple_by_lines(L)

    def test_semisimple_sum_is_refuted_by_the_scan(self):
        # perfect, centerless, nondegenerate Killing form: only the line
        # scan finds the summand ideal
        L = direct_sum(sl(F3, 2), sl(F3, 2))
        assert L.center().is_zero() and L.killing_form().nondegenerate
        assert not _ad_envelope_is_full(L)
        v = is_simple(L)
        assert v.is_refuted and 0 < L.ideal_generated([v.witness]).dim < L.dim


def _quadratic_field(d):
    """Q(sqrt d) as a commutative algebra on the basis 1, s with s^2 = d."""
    return AssocAlgebra(QQ, ("1", "s"), {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: d}}, (1, 0))


def _biquadratic_field(d, e):
    """Q(sqrt d, sqrt e) on the basis 1, s, t, st with s^2 = d, t^2 = e."""
    units = ((0, 0), (1, 0), (0, 1), (1, 1))  # exponents of s and t
    table = {}
    for i, (a, b) in enumerate(units):
        for j, (c, f) in enumerate(units):
            scale = (d if a and c else 1) * (e if b and f else 1)
            table[(i, j)] = {units.index(((a + c) % 2, (b + f) % 2)): scale}
    return AssocAlgebra(QQ, ("1", "s", "t", "st"), table, (1, 0, 0, 0))


def _sl2_on_the_plane():
    """sl2 + Q^2, the semidirect product with the standard representation
    on v1, v2: perfect and centerless, with Killing radical Q^2."""
    table = {
        (0, 1): {2: 1},  # [e, f] = h
        (0, 2): {0: -2},  # [e, h] = -2e
        (1, 2): {1: 2},  # [f, h] = 2f
        (0, 4): {3: 1},  # e v2 = v1
        (1, 3): {4: 1},  # f v1 = v2
        (2, 3): {3: 1},  # h v1 = v1
        (2, 4): {4: -1},  # h v2 = -v2
    }
    return LieAlgebra(QQ, ("e", "f", "h", "v1", "v2"), table)


class TestSimplicityRoutes:
    """One case for each route of is_simple that the rest of the suite
    does not reach."""

    def test_sl2_over_a_quadratic_field_has_a_field_as_centroid(self):
        v = is_simple(tensor_commutative(sl(QQ, 2), _quadratic_field(2)))
        assert v.is_certified and v.certificate == "killing-centroid"
        assert v.evidence == {"centroid_dim": 2}

    def test_sl2_over_a_biquadratic_field_runs_the_quartic_test(self, monkeypatch):
        calls = []
        quartic = algebra._int_monic_quartic_splits
        monkeypatch.setattr(algebra, "_int_monic_quartic_splits", lambda ints: calls.append(ints) or quartic(ints))
        L = tensor_commutative(sl(QQ, 2), _biquadratic_field(2, 3))
        assert L.dim == 12
        v = is_simple(L)
        assert v.is_certified and v.certificate == "killing-centroid"
        assert v.evidence == {"centroid_dim": 4}
        assert calls

    def test_a_product_of_quadratic_fields_splits_without_a_rational_root(self):
        L = direct_sum(
            tensor_commutative(sl(QQ, 2), _quadratic_field(2)),
            tensor_commutative(sl(QQ, 2), _quadratic_field(3)),
        )
        v = is_simple(L)
        assert v.is_inconclusive
        assert v.evidence == {"reason": "centroid-splits", "centroid_dim": 4}

    def test_a_rational_centroid_eigenvalue_refutes_with_its_eigenspace(self):
        # the probe has minimal polynomial t^2 - 3t + 2: each summand is
        # an eigenspace, and ker(phi - 1) comes first
        L = direct_sum(sl(QQ, 2), sl(QQ, 2))
        v = is_simple(L)
        assert v.is_refuted
        assert v.evidence == {"reason": "proper-ideal", "ideal_dim": 3}
        assert L.ideal_generated([v.witness]).dim == 3

    def test_a_central_extension_is_refuted_through_its_center(self):
        P = psl(F3, 3)
        _, reps = h2_trivial(P)
        L = central_extension(P, reps[0])
        assert L.commutant().dim == L.dim and L.center().dim == 1
        v = is_simple(L)
        assert v.is_refuted
        assert v.evidence == {"reason": "proper-ideal", "ideal_dim": 1}
        assert L.center().contains(v.witness)

    def test_a_semidirect_product_is_refuted_through_its_killing_radical(self):
        L = _sl2_on_the_plane()
        assert L.commutant().dim == L.dim and L.center().is_zero()
        v = is_simple(L)
        assert v.is_refuted
        assert v.evidence == {"reason": "proper-ideal", "ideal_dim": 2}
        assert L.killing_form().gram.kernel().contains(v.witness)

    def test_past_the_cap_without_a_full_envelope_is_inconclusive(self):
        F7 = GF(7)
        L = direct_sum(direct_sum(sl(F7, 2), sl(F7, 2)), sl(F7, 2))
        assert not _ad_envelope_is_full(L)
        v = is_simple(L)
        assert v.is_inconclusive
        assert v.evidence == {"reason": "budget", "needed": 7**9, "cap": EXHAUSTIVE_CAP}

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_sl4_is_certified_past_the_cap_by_its_envelope(self, p):
        v = is_simple(sl(GF(p), 4))
        assert p**15 > EXHAUSTIVE_CAP
        assert v.is_certified and v.certificate == "exhaustive"
        assert v.evidence == {"lines_decided": (p**15 - 1) // (p - 1), "envelope_dim": 225}

    @pytest.mark.parametrize(
        "coeffs, want",
        [
            ((1, 0, 0, 0, 1), True),  # t^4 + 1
            ((1, 0, -10, 0, 1), True),  # t^4 - 10t^2 + 1, the minimal polynomial of sqrt2 + sqrt3
            ((4, 0, 0, 0, 1), False),  # t^4 + 4 = (t^2 + 2t + 2)(t^2 - 2t + 2)
            ((2, 0, 3, 0, 1), False),  # (t^2 + 1)(t^2 + 2)
            ((-2, 0, 1), True),  # t^2 - 2
            ((Fraction(-1, 4), 0, 1), False),  # t^2 - 1/4
            ((1, 0, 0, 0, 0, 1), None),  # degree 5
        ],
    )
    def test_monic_rational_irreducible(self, coeffs, want):
        assert _monic_rational_irreducible(UniPoly(QQ, coeffs)) is want

    @pytest.mark.parametrize(
        "coeffs, want",
        [
            ((2, 3, 1), -1),  # (t + 1)(t + 2)
            ((Fraction(-1, 2), Fraction(1, 2), 1), Fraction(1, 2)),  # (t + 1)(t - 1/2)
            ((Fraction(-1, 4), 0, 1), Fraction(1, 2)),  # t^2 - 1/4
            ((0, 0, 0, 1), 0),  # t^3
            ((-2, 0, 1), None),  # t^2 - 2
        ],
    )
    def test_rational_root_of_the_integral_monic(self, coeffs, want):
        m, ints = _integral_monic(UniPoly(QQ, coeffs))
        root = _int_monic_rational_root(ints)
        assert (None if root is None else Fraction(root, m)) == want


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


class TestCohomology:
    def test_dimensions_on_knowns(self):
        assert h2_trivial(sl2q)[0] == 0
        assert h2_trivial(h3)[0] == 2
        assert h2_trivial(r2(QQ))[0] == 0

    def test_cocycle_minus_coboundary_arithmetic(self):
        valid = census(3, F3)
        assert len(valid) == 1431
        instances = [L for _, L in canonical_instances()]
        for L in [h3, r2(QQ), sl(F5, 2)] + instances + valid:
            z2 = cocycle_space(L)
            b2 = coboundary_space(L)
            assert z2.contains_subspace(b2), L.table
            assert h2_trivial(L)[0] == z2.dim - b2.dim
            # d on C^1(L, K) is f -> -f([x, y]), whose kernel is the dual
            # of L / [L, L]
            assert b2.dim == L.commutant().dim

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


def _trace_zero(a, b):
    return QuaternionAlgebra(QQ, a, b).trace_zero()


# tables with a nondegenerate Killing form, where Der = ad L and H^2 = 0
KILLING_ROUTE = {
    "sl2@Q": lambda: sl(QQ, 2),
    "su2q": su2q,
    "sl3@Q": lambda: sl(QQ, 3),
    "sl4@Q": lambda: sl(QQ, 4),
    "sl2+sl2@Q": lambda: direct_sum(sl(QQ, 2), sl(QQ, 2)),
    "T(-1,3)@Q": lambda: _trace_zero(-1, 3),
    "T(2,5)@Q": lambda: _trace_zero(2, 5),
    "T(3,5)@Q": lambda: _trace_zero(3, 5),
    "sl2@F3": lambda: sl(F3, 2),
    "sl2@F5": lambda: sl(F5, 2),
    "sl3@F5": lambda: sl(F5, 3),
    "sl3@F7": lambda: sl(GF(7), 3),
    "sl4@F3": lambda: sl(F3, 4),
    "sl4@F5": lambda: sl(F5, 4),
}

# tables with a degenerate Killing form, with (dim Der, dim H^2) by the solver
SOLVER_ONLY = {
    "psl3@F3": (lambda: psl(F3, 3), (14, 7)),
    "sl3@F3": (lambda: sl(F3, 3), (8, 6)),
    "sl2@F2": (lambda: sl(GF(2), 2), (6, 2)),
    "pgl3@F3": (lambda: pgl(F3, 3), (8, 1)),
    "gl3@Q": (lambda: gl(QQ, 3), (9, 0)),
}


def _solved(L):
    """The derivation matrices, Z^2 and B^2 from the linear systems alone."""
    rows = _coboundary_rows(L, 1, [_ad_rows(L, i) for i in range(L.dim)])
    return _map_solutions(L.field, L.dim, rows), cocycle_space(L), coboundary_space(L)


def _no_system(L, *args):
    raise AssertionError("the Killing route built a linear system")


class TestKillingRoute:
    """derivation_algebra and h2_trivial read Der = ad L and H^2 = 0 off a
    nondegenerate Killing form; the linear systems are the reference."""

    @pytest.mark.parametrize("name", sorted(KILLING_ROUTE))
    def test_route_agrees_with_the_solver(self, name, monkeypatch):
        L = KILLING_ROUTE[name]()
        assert L.killing_form().nondegenerate
        mats, z2, b2 = _solved(L)
        with monkeypatch.context() as patch:
            # the route builds neither equation system
            patch.setattr(algebra, "_coboundary_rows", _no_system)
            patch.setattr(algebra, "cocycle_space", _no_system)
            der, got = derivation_algebra(L)
            assert h2_trivial(L) == (0, [])
        assert got == mats and der.dim == L.dim and z2 == b2
        # the structure constants of Der L match those built on the solver's basis
        monkeypatch.setattr(algebra, "_killing_route", lambda L: False)
        assert der.canonical_json() == derivation_algebra(L)[0].canonical_json()

    @pytest.mark.parametrize("name", sorted(SOLVER_ONLY))
    def test_degenerate_form_keeps_the_solver(self, name):
        build, (der_dim, h2_dim) = SOLVER_ONLY[name]
        L = build()
        assert not L.killing_form().nondegenerate
        mats, z2, b2 = _solved(L)
        der, got = derivation_algebra(L)
        assert got == mats and der.dim == der_dim
        assert h2_trivial(L)[0] == z2.dim - b2.dim == h2_dim


def _no_table(*args):
    raise AssertionError("the structure constants of Der L were built")


def _without_last_row(space):
    """The span of all but the last echelon row of a space."""
    return Subspace.from_vectors(space.field, space.ambient, space.rows[:-1])


class TestDerivationTableOnRead:
    """derivation_algebra solves Der L and returns its matrix basis; the
    structure constants of Der L, with the closure check and the Jacobi
    sweep, are built on the first read of its table."""

    @pytest.mark.parametrize(
        "build,route",
        [(lambda: sl(QQ, 4), True), (lambda: strict_upper(QQ, 5), False)],
        ids=["sl4@Q", "strict_upper5@Q"],
    )
    def test_dimension_and_basis_build_no_table(self, build, route, monkeypatch):
        L = build()
        assert algebra._killing_route(L) is route
        built = []
        table = algebra._derivation_table
        with monkeypatch.context() as patch:
            patch.setattr(algebra, "_derivation_table", _no_table)
            der, mats = derivation_algebra(L)
            assert der.dim == len(mats) == len(der.labels) and der.field == L.field
            assert der.labels[0] == "D0" and mats[0].n == L.dim
        monkeypatch.setattr(algebra, "_derivation_table", lambda *a: built.append(a) or table(*a))
        assert der.table == oracle.structure_constants(L.field.char, L.dim, [m.rows for m in mats]) == der.table
        assert len(built) == 1
        # the checked constructor swept the new table once
        sweeps = []
        monkeypatch.setattr(algebra, "_jacobi_defects", lambda *a: sweeps.append(a) or iter(()))
        assert derivation_algebra(fresh(L))[0].table == der.table and len(sweeps) == 1

    def test_a_space_not_closed_raises_on_read(self, monkeypatch):
        # sl3 has no subalgebra of dimension 7
        space = algebra._derivation_space
        monkeypatch.setattr(algebra, "_derivation_space", lambda L: _without_last_row(space(L)))
        der, mats = derivation_algebra(sl(QQ, 3))
        assert der.dim == len(mats) == 7
        for _ in range(2):
            with pytest.raises(StructureError, match="commutator of derivations left the solution space"):
                der.table

    def test_a_table_breaking_jacobi_raises_on_read(self, monkeypatch):
        table = algebra._derivation_table

        def doubled(*args):
            out = table(*args)
            first = min(out)
            out[first] = {k: 2 * c for k, c in out[first].items()}
            return out

        monkeypatch.setattr(algebra, "_derivation_table", doubled)
        der = derivation_algebra(sl(QQ, 3))[0]
        assert der.dim == 8
        with pytest.raises(StructureError, match="Jacobi fails"):
            der.table

    @pytest.mark.parametrize("build", [lambda: gl(QQ, 3), lambda: strict_upper(QQ, 5)], ids=["gl3@Q", "strict_upper5@Q"])
    def test_floored_solve_rechecks_ad(self, build, monkeypatch):
        # the coboundary rows without their ad terms leave ad L out of the
        # solutions that the floor took to hold it
        L = build()
        assert not algebra._killing_route(L)
        rows = algebra._coboundary_rows
        monkeypatch.setattr(
            algebra, "_coboundary_rows", lambda L, k, ads=None: rows(L, k, [[[] for _ in ad] for ad in ads])
        )
        with pytest.raises(RecheckFailed, match="ad b_i must solve the derivation equations"):
            derivation_algebra(L)

    def test_the_checks_survive_python_O(self):
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _DER_CHECKS_UNDER_O],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.splitlines() == [
            "raised: commutator of derivations left the solution space",
            "raised: ad b_i must solve the derivation equations",
        ]


_DER_CHECKS_UNDER_O = """
import sys
assert False, "this check needs python -O, which strips asserts"
import lielab.algebra as algebra
from lielab import RecheckFailed, StructureError
from lielab.catalog import gl, sl
from lielab.fields import QQ
from lielab.linalg import Subspace

space, rows = algebra._derivation_space, algebra._coboundary_rows


def not_closed():
    algebra._derivation_space = lambda L: Subspace.from_vectors(QQ, 64, space(L).rows[:-1])
    try:
        return algebra.derivation_algebra(sl(QQ, 3))[0].table
    finally:
        algebra._derivation_space = space


def no_ad_terms():
    algebra._coboundary_rows = lambda L, k, ads=None: rows(L, k, [[[] for _ in ad] for ad in ads])
    try:
        return algebra.derivation_algebra(gl(QQ, 3))
    finally:
        algebra._coboundary_rows = rows


for error, call in ((StructureError, not_closed), (RecheckFailed, no_ad_terms)):
    try:
        call()
    except error as exc:
        print("raised:", exc)
    else:
        print("no raise")
        sys.exit(1)
"""


def _commutant(L):
    """The maps commuting with every ad b_i, solved as is_simple solves them."""
    return _map_solutions(L.field, L.dim, _commutant_equations(L), 1)


class _NoFloor(_Echelon):
    """The elimination with its floor dropped: every row is read."""

    def __init__(self, field, ambient, vectors=(), floor=0):
        super().__init__(field, ambient, vectors)


class _FloorSpy(_Echelon):
    """Records (floor, rank, whether rows were left unread) of each
    elimination given a floor, in the list ``seen``."""

    seen: list = []

    def __init__(self, field, ambient, vectors=(), floor=0):
        rest = iter(vectors)
        super().__init__(field, ambient, rest, floor)
        if floor:
            self.seen.append((floor, len(self.rows), next(rest, None) is not None))


@pytest.fixture
def floor_spy(monkeypatch):
    seen = []
    monkeypatch.setattr(_FloorSpy, "seen", seen)
    monkeypatch.setattr(algebra, "_Echelon", _FloorSpy)
    return seen


def _floored_systems(L):
    """What each system solved with a floor gives, the Killing route off
    so that Der and Z^2 are solved on every table."""
    der, mats = derivation_algebra(L)
    b2 = coboundary_space(L)
    z2 = algebra._Echelon(L.field, b2.ambient, _coboundary_rows(L, 2), b2.dim).kernel()
    return {
        "centroid": centroid(L),
        "commutant": _commutant(L),
        "der": (mats, der.canonical_json()),
        "z2": z2,
        "h2": h2_trivial(L),
    }


_FLOOR_INPUTS = [(name, L) for name, L in INPUT_CASES if L.dim <= 15]
# the canonical instances and the benchmark tables up to dimension 15
_FLOOR_CASES = [(name, L) for name, L in named_cases() if L.dim <= 15]
_PERFECT = [
    (name, L)
    for name, L in _FLOOR_CASES
    + [
        ("sl2+sl2@Q", direct_sum(sl(QQ, 2), sl(QQ, 2))),
        ("sl2(Q(sqrt2))", tensor_commutative(sl(QQ, 2), _quadratic_field(2))),
    ]
    if L.commutant().dim == L.dim
]


class TestFloors:
    """A system solved with its floor (the dimension of solutions known in
    advance) gives the basis of the full solve; the full solve is the
    reference."""

    @staticmethod
    def _check(L, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(algebra, "_killing_route", lambda L: False)
            got = _floored_systems(fresh(L))
            patch.setattr(algebra, "_Echelon", _NoFloor)
            want = _floored_systems(fresh(L))
        assert got == want, L
        assert want["z2"] == cocycle_space(L)

    @pytest.mark.parametrize(
        "name,L",
        params(_FLOOR_CASES),
    )
    def test_floor_keeps_the_basis(self, name, L, monkeypatch):
        self._check(L, monkeypatch)

    def test_floor_keeps_the_basis_on_the_dim3_census(self, monkeypatch):
        valid = census(3, F3)
        assert len(valid) == 1431
        for L in valid:
            self._check(L, monkeypatch)

    @pytest.mark.parametrize(
        "name,run,floor,rank",
        [
            ("sl4q", is_simple, 1, 225 - 1),
            ("sl3q", is_simple, 1, 64 - 1),
            ("sl4q", centroid, 1, 225 - 1),
            # Der = ad L, of dimension 8 - dim Z = 8
            ("pgl3f3", derivation_algebra, 8, 64 - 8),
            # Z^2 = B^2, of dimension 8
            ("gl3q", h2_trivial, 8, 36 - 8),
            ("gl3f5", h2_trivial, 8, 36 - 8),
        ],
    )
    def test_floor_ends_the_solve_early(self, name, run, floor, rank, floor_spy):
        # the solve stops at rank ambient - floor with rows left unread
        run(fresh(dict(_FLOOR_INPUTS)[name]))
        assert floor_spy == [(floor, rank, True)]


class TestCommutant:
    """The commutant of ad L, which is_simple reads as the centroid."""

    def test_commutant_maps_commute_with_every_ad(self):
        # the cases of test_centroid_maps_commute_with_every_ad, where the
        # pair system of centroid is larger
        cases = [
            (r2(QQ), 1),
            (r2(F3), 1),
            (heisenberg(QQ, 1), 3),
            (heisenberg(QQ, 2), 5),
            (strict_upper(QQ, 4), 4),
        ]
        for L, commutant_dim in cases:
            mats = _commutant(L)
            assert len(mats) == commutant_dim, L
            for phi in mats:
                for i in range(L.dim):
                    ad = L.ad_basis(i)
                    assert phi * ad == ad * phi, (L, i)

    @pytest.mark.parametrize("name,L", params(_PERFECT))
    def test_commutant_is_the_centroid_of_a_perfect_algebra(self, name, L):
        assert _commutant(L) == centroid(L)

    def test_the_perfect_cases(self):
        assert sorted(n for n, _ in _PERFECT) == [
            "psl3@F3", "psl3f3", "sl2(Q(sqrt2))", "sl2+sl2@Q", "sl2@F5", "sl2@Q",
            "sl2f5", "sl3f3", "sl3q", "sl4q", "su2q", "su2q.json",
        ]

    def test_sl5_is_certified_by_its_centroid(self):
        L = input_table("sl5q")
        assert L.dim == 24
        v = is_simple(L)
        assert v.is_certified and v.certificate == "killing-centroid"
        assert v.evidence == {"centroid_dim": 1}


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


class TestForeignScalars:
    """Vectors and tables take their scalars through ``field.of`` too."""

    def test_lie_vector(self):
        L = sl(GF(5), 2)
        with pytest.raises(TypeError):
            L.coerce_vector((Fp(1, 7), 0, 0))
        with pytest.raises(TypeError):
            L.bracket((Fp(1, 7), 0, 0), (0, 1, 0))

    def test_lie_table(self):
        with pytest.raises(StructureError, match="not a"):
            LieAlgebra(QQ, ("x", "y"), {(0, 1): {1: 1.0}})

    def test_assoc_table_and_unit(self):
        with pytest.raises(StructureError, match="not a"):
            AssocAlgebra(QQ, ("1",), {(0, 0): {0: 1.0}}, (1,))
        with pytest.raises(StructureError, match="not a"):
            AssocAlgebra(GF(5), ("1",), {(0, 0): {0: Fp(1, 7)}}, (1,))
        with pytest.raises(TypeError):
            AssocAlgebra(QQ, ("1",), {(0, 0): {0: 1}}, (1.0,))

    @pytest.mark.parametrize(
        "table,match",
        [
            ({(0, 1): {"1": 1}}, "component '1'"),
            ({(0, 1): {1.0: 1}}, "component 1.0"),
            # True == 1, but the JSON writer would print it as "True"
            ({(0, 1): {True: 1}}, "component True"),
            ({("0", 1): {1: 1}}, r"pair \('0', 1\)"),
        ],
        ids=["str-component", "float-component", "bool-component", "str-pair"],
    )
    def test_lie_table_key_that_is_not_an_int(self, table, match):
        with pytest.raises(StructureError, match=match):
            LieAlgebra(QQ, ("x", "y"), table)

    def test_assoc_table_key_that_is_not_an_int(self):
        with pytest.raises(StructureError, match="component '0'"):
            AssocAlgebra(QQ, ("1",), {(0, 0): {"0": 1}}, (1,))
        with pytest.raises(StructureError, match=r"pair \(0, '0'\)"):
            AssocAlgebra(QQ, ("1",), {(0, "0"): {0: 1}}, (1,))

    def test_assoc_product(self):
        A = QuaternionAlgebra(QQ, QQ.of(-1), QQ.of(-1)).assoc
        with pytest.raises(TypeError):
            A.multiply((0.5, 0, 0, 0), (1, 0, 0, 0))


class TestTableView:
    """``table`` is built from the stored rows on each read: mutating a
    table it returned changes nothing the algebra answers."""

    def test_lie(self):
        L = sl(QQ, 2)
        x, y = (1, 2, 3), (-1, 0, 4)
        before = (L.table, L.canonical_json(), L.bracket(x, y), L.jacobi_violations())
        table = L.table
        table[(0, 1)][2] = 5
        table[(1, 2)] = {0: QQ.of(7)}
        del table[(0, 2)]
        assert (L.table, L.canonical_json(), L.bracket(x, y), L.jacobi_violations()) == before

    def test_assoc(self):
        A = QuaternionAlgebra(F5, 2, 3).assoc
        x, y = (1, 2, 3, 4), (0, 4, 0, 1)
        before = (A.table, A.canonical_json(), A.multiply(x, y))
        table = A.table
        table[(1, 1)][0] = F5.of(1)
        table[(0, 0)] = {}
        del table[(2, 3)]
        assert (A.table, A.canonical_json(), A.multiply(x, y)) == before


class TestAssocTable:
    """The associative table shares the Lie cleaner; the pair rule is its
    only difference."""

    def test_any_pair_but_in_range(self):
        A = AssocAlgebra(QQ, ("1", "x"), {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, (1, 0))
        assert A.basis_product(1, 0) == (QQ.zero, QQ.one)
        with pytest.raises(StructureError, match="product pair"):
            AssocAlgebra(QQ, ("1",), {(0, 1): {0: 1}}, (1,))
        with pytest.raises(StructureError, match="outside the basis"):
            AssocAlgebra(QQ, ("1",), {(0, 0): {1: 1}}, (1,))

    def test_zero_coefficients_dropped(self):
        table = {(0, 0): {0: 1}, (0, 1): {0: 0, 1: 1}, (1, 0): {1: 1}, (1, 1): {0: 0}}
        A = AssocAlgebra(QQ, ("1", "x"), table, (1, 0))
        assert A.table == {(0, 0): {0: QQ.one}, (0, 1): {1: QQ.one}, (1, 0): {1: QQ.one}}

    def test_sparse_product_matches_the_definition(self):
        A = QuaternionAlgebra(GF(7), GF(7).of(3), GF(7).of(5)).assoc
        x, y = (1, 0, 2, 6), (0, 4, 0, 3)
        want = [GF(7).zero] * 4
        for i in range(4):
            for j in range(4):
                for k, c in A.table.get((i, j), {}).items():
                    want[k] = want[k] + GF(7).of(x[i]) * GF(7).of(y[j]) * c
        assert A.multiply(x, y) == tuple(want)

    @pytest.mark.parametrize(
        "A",
        [on(F3, 2), QuaternionAlgebra(F5, 2, 3).assoc, QuaternionAlgebra(QQ, -1, 3).assoc],
        ids=["on2@F3", "quaternion(2,3)@F5", "quaternion(-1,3)@Q"],
    )
    def test_product_is_the_sum_over_the_whole_table(self, A):
        """multiply on kernel rows against sum x_i y_j c_ij^k b_k in field
        scalars over every entry of the table, on seeded vectors with
        about 40 % zero coordinates, and on every pair of basis vectors."""
        field, n, rng = A.field, A.dim, random.Random(11)
        table = A.table

        def want(x, y):
            out = [field.zero] * n
            for (i, j), cell in table.items():
                for k, c in cell.items():
                    out[k] = out[k] + field.of(x[i]) * field.of(y[j]) * c
            return tuple(out)

        vectors = [[rng.randint(-4, 4) if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(30)]
        vectors += [A.basis_vector(i) for i in range(n)]
        for x, y in itertools.product(vectors, repeat=2):
            assert A.multiply(x, y) == want(x, y)

    def test_json_errors_name_the_kind(self):
        doc = QuaternionAlgebra(QQ, QQ.of(-1), QQ.of(-1)).assoc.to_json_dict()
        doc["products"].append(dict(doc["products"][0]))
        with pytest.raises(StructureError, match="duplicate product entry"):
            AssocAlgebra.from_json_dict(doc)
        doc["products"][-1] = dict(doc["products"][0], i=4)
        with pytest.raises(StructureError, match=r"product pair \(4, 0\) must satisfy 0 <= i, j < dim"):
            AssocAlgebra.from_json_dict(doc)
        del doc["products"]
        with pytest.raises(StructureError, match="missing products array"):
            AssocAlgebra.from_json_dict(doc)


# -- the structure layer against the oracle --------------------------------------


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
def perturbed_tables(draw):
    """A catalog table, and that table as it is or with up to three entries
    changed, which mostly breaks Jacobi."""
    L = draw(st.sampled_from(TABLE_CASES))
    table = {key: dict(coeffs) for key, coeffs in L.table.items()}
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, L.dim - 2))
        j = draw(st.integers(i + 1, L.dim - 1))
        table.setdefault((i, j), {})[draw(st.integers(0, L.dim - 1))] = draw(scalars(L.field))
    return L, LieAlgebra(L.field, L.labels, table, _validated=True)


@given(perturbed_tables().map(lambda pair: pair[1]), st.data())
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
    return LieAlgebra(L.field, L.labels, table, _validated=True)


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
    sl3_fractions = rescaled(sl(QQ, 3), [Fraction(1, 2), 3, Fraction(2, 3), 5, Fraction(1, 3), Fraction(3, 2), 4, Fraction(7, 2)])
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


@pytest.mark.parametrize("name,L", params(named_cases()))
def test_stored_rows(name, L):
    _assert_stored_rows(L)


@pytest.mark.parametrize("field", [GF(2), F3], ids=["F2", "F3"])
def test_stored_rows_of_the_census(field):
    """Every valid dimension-3 table, as EnumTable.algebra builds it."""
    algebras = census(3, field)
    assert len(algebras) == {2: 120, 3: 1431}[field.p]
    for L in algebras:
        _assert_stored_rows(L)


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


def _sl2_sum(field, copies):
    L = sl(field, 2)
    for _ in range(copies - 1):
        L = direct_sum(L, sl(field, 2))
    return L


def test_ad_envelope_matches_the_loop():
    """On the canonical instances, the F_p benchmark inputs, sl4 over F_3,
    F_5 and F_7 and sums of two and three sl2 over F_3 and F_7."""
    cases = canonical_instances() + [(name, L) for name, L in input_tables() if L.field.kind == "Fp"]
    cases += [(f"sl4@F{p}", sl(GF(p), 4)) for p in (3, 5, 7)]
    cases += [(f"sl2^{k}@F{p}", _sl2_sum(GF(p), k)) for k in (2, 3) for p in (3, 7)]
    got = {name: _ad_envelope_is_full(L) for name, L in cases}
    assert got == {name: oracle.envelope_is_full(oracle_of(L)) for name, L in cases}
    assert set(got.values()) == {True, False}


def test_line_scan_refutation_is_rechecked(monkeypatch):
    """A line scan that takes a line of simple sl2/F5 for a proper ideal."""
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


def _assert_structure_layer(L):
    A = oracle_of(L)
    field, n = L.field, L.dim
    gram = L.killing_form().gram
    assert gram == fsquare(field, oracle.killing(A))
    assert L.killing_form().invariant == oracle.is_invariant(A, gram.rows)
    assert L.lower_central_series() == [space(field, n, s) for s in oracle.lower_central_series(A)]
    assert L.derived_series() == [space(field, n, s) for s in oracle.derived_series(A)]
    if n <= 8:
        ads = [L.ad_basis(i) for i in range(n)]
        want = oracle.linear_family_char_coeffs(A.p, [a.rows for a in ads], n)
        assert linear_family_char_coeffs(field, ads, n) == [MultiPoly(field, n, t) for t in want]


def _assert_der(L):
    """Der's structure constants are the oracle's commutators of the
    matrices derivation_algebra returns."""
    D, mats = derivation_algebra(L)
    want = oracle.structure_constants(L.field.char, L.dim, [m.rows for m in mats])
    assert D.table == {key: dict(zip(cs, fvec(L.field, cs.values()))) for key, cs in want.items()}


def sparse_vectors(field, n):
    """Vectors with about half their coordinates zero."""
    return st.lists(st.one_of(st.just(field.zero), scalars(field)), min_size=n, max_size=n).map(tuple)


@given(perturbed_tables(), st.data())
@settings(max_examples=40, deadline=None)
def test_structure_layer_matches_reference(pair, data):
    """Killing Gram, invariance, both series and the symbolic coefficients
    of the ad family equal the oracle's on catalog tables and on tables
    with up to three constants changed, and so do the sparse bracket and
    bracket span on sparse vectors.  Der's structure constants do too, on
    the drawn table where it satisfies Jacobi and otherwise on its catalog
    table in a drawn basis b_i / s_i, which keeps Jacobi and changes the
    constants: Der is defined on Lie algebras only."""
    base, L = pair
    _assert_structure_layer(L)
    A = oracle_of(L)
    if oracle.jacobi_defects(A):
        nonzero = scalars(L.field).filter(lambda s: s != L.field.zero)
        _assert_der(rescaled(base, data.draw(st.lists(nonzero, min_size=L.dim, max_size=L.dim))))
    else:
        _assert_der(L)
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
    ("sl3@Q-rescaled", rescaled(sl(QQ, 3), [Fraction(s) for s in (1, 2, "1/3", 3, "2/5", 1, 7, "1/2")])),
    (
        "heisenberg2@Q-rescaled",
        rescaled(heisenberg(QQ, 2), [Fraction(s) for s in ("1/2", 3, "2/3", 5, "1/7")]),
    ),
]


@pytest.mark.parametrize("name,L", params(STRUCTURE_CASES))
def test_structure_layer_on_fixed_cases(name, L):
    """Dimension 0, abelian, nilpotent and ℚ tables with non-integer constants
    (which exercise the denominator clearing) beside the canonical instances."""
    _assert_structure_layer(L)
    _assert_der(L)


def test_identity_form_on_sl2_is_not_invariant():
    for field in (QQ, GF(5)):
        L = sl(field, 2)
        form = BilinearForm(L, Matrix.identity(field, 3))
        assert form.invariant is False
        assert oracle.is_invariant(oracle_of(L), form.gram.rows) is False
        assert L.killing_form().invariant is True


@pytest.mark.parametrize("name,L", params(named_cases()))
def test_ad_basis_is_ad_of_the_basis_vector(name, L):
    A = oracle_of(L)
    for i in range(L.dim):
        got = L.ad_basis(i)
        assert got == L.ad(L.basis_vector(i)) == fsquare(L.field, oracle.ad(A, L.basis_vector(i)))
        assert L.ad_basis(i) is got
