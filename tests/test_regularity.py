"""Rank, Fitting components, regular elements/algebras, anisotropy,
and characteristic-polynomial factorization along ideals."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lielab import regularity
from lielab.algebra import LieAlgebra, _point_index, _projective_points, direct_sum
from lielab.budgets import DEFAULT_SEED, EXHAUSTIVE_CAP, SEARCH_HEIGHT, SEARCH_TRIALS, SYMBOLIC_DIM, BudgetExceeded
from lielab.catalog import (
    abelian,
    canonical_instances,
    enumerate_tables,
    gl,
    heisenberg,
    make,
    pgl,
    r2,
    sl,
    strict_upper,
    su2q,
)
from lielab.fields import GF, QQ, UniPoly
from lielab.linalg import Matrix, Subspace, diagonalize_quadratic, vec_is_zero
from lielab.regularity import (
    FittingDecomposition,
    ad_char_coeffs,
    char_poly_factorization,
    fitting,
    fitting_set,
    generic_char_poly,
    is_anisotropic,
    is_nilpotent_free,
    is_regular_algebra,
    is_regular_element,
    linear_family_char_coeffs,
    rank,
    relative_rank,
    zero_multiplicity,
    _assert_fitting,
    _rank_by_scan,
    _search_schedule,
)
from lielab.verdict import RecheckFailed, Verdict

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)

sl2q = sl(QQ, 2)
SU = su2q()


def qvec(*cs):
    return tuple(QQ.of(c) for c in cs)


vec3q = st.tuples(*([st.integers(-6, 6).map(QQ.of)] * 3))


class TestRank:
    @pytest.mark.parametrize(
        "L,expected",
        [
            (abelian(QQ, 3), 3),
            (heisenberg(QQ, 1), 3),
            (heisenberg(QQ, 2), 5),
            (strict_upper(QQ, 4), 6),
            (r2(QQ), 1),
            (sl(QQ, 2), 1),
            (gl(QQ, 2), 2),
            (SU, 1),
            (sl(F5, 2), 1),
        ],
    )
    def test_known_ranks(self, L, expected):
        assert rank(L) == expected

    def test_rank_of_sum_adds_for_these(self):
        assert rank(direct_sum(sl2q, sl2q)) == 2

    def test_scan_route_agrees_with_generic(self):
        for L in (sl(F3, 2), r2(F3), heisenberg(F2, 1)):
            assert _rank_by_scan(L) == rank(L)

    def test_rational_rank_beyond_symbolic_budget_is_over_the_cap(self):
        # rank over Q has no route above SYMBOLIC_DIM: the smallest deciding
        # grid there, {0..n}^n with n = SYMBOLIC_DIM + 1, is over the cap
        n = SYMBOLIC_DIM + 1
        assert (n + 1) ** n > EXHAUSTIVE_CAP
        L = direct_sum(sl(QQ, 3), abelian(QQ, n - 8))  # sl3 has dimension 8
        with pytest.raises(BudgetExceeded, match=f"rank grid needs {(n + 1) ** n} points, over the cap"):
            rank(L)

    def test_nilpotent_means_full_rank(self):
        for L in (heisenberg(QQ, 1), strict_upper(QQ, 4), abelian(F5, 2)):
            assert rank(L) == L.dim


class TestGenericCharPoly:
    @given(x=vec3q)
    @settings(max_examples=40)
    def test_symbolic_matches_pointwise_sl2(self, x):
        g = generic_char_poly(sl2q)
        vals = tuple(c.eval(x) for c in g.coeffs)
        assert vals == ad_char_coeffs(sl2q, x)

    @given(x=vec3q)
    @settings(max_examples=40)
    def test_symbolic_matches_pointwise_su2q(self, x):
        g = generic_char_poly(SU)
        vals = tuple(c.eval(x) for c in g.coeffs)
        assert vals == ad_char_coeffs(SU, x)

    def test_formal_rank(self):
        assert generic_char_poly(sl2q).formal_rank() == 1
        assert generic_char_poly(heisenberg(QQ, 1)).formal_rank() == 3

    def test_su2q_first_coefficient_is_definite(self):
        g = generic_char_poly(SU)
        a1 = g.coeffs[1]
        # 4(x1^2 + x2^2 + x3^2)
        for pt in [qvec(1, 0, 0), qvec(0, 1, 0), qvec(0, 0, 1), qvec(1, 2, 3)]:
            expect = QQ.of(4) * sum((c * c for c in pt), QQ.zero)
            assert a1.eval(pt) == expect


class TestFitting:
    def test_sl2_semisimple_element(self):
        h = sl2q.basis_vector(1)
        dec = fitting(sl2q, h)
        assert dec.nu == 1
        assert dec.null.basis() == (h,)
        assert dec.one.dim == 2

    def test_sl2_nilpotent_element(self):
        e = sl2q.basis_vector(0)
        dec = fitting(sl2q, e)
        assert dec.nu == 3
        assert dec.one.is_zero()

    @given(x=vec3q)
    @settings(max_examples=40)
    def test_nu_equals_zero_multiplicity(self, x):
        if vec_is_zero(x):
            return
        assert fitting(sl2q, x).nu == zero_multiplicity(sl2q, x)

    def test_fitting_set_joint(self):
        h = sl2q.basis_vector(1)
        dec = fitting_set(sl2q, [h])
        assert dec.nu == 1

    def test_fitting_set_rejects_non_commuting(self):
        from lielab.algebra import StructureError

        for field in (QQ, F3, F5):
            L = sl(field, 2)
            e, h, f = map(L.basis_vector, range(3))
            for family in ([e, h], [h, e], [h, f]):
                with pytest.raises(StructureError, match="not almost commuting"):
                    fitting_set(L, family)
            assert fitting_set(L, [h, L.bracket(e, f)]).nu == 1

    def test_fitting_set_rejects_empty(self):
        with pytest.raises(ValueError):
            fitting_set(sl2q, [])

    @pytest.mark.parametrize(
        "L,x",
        [
            (sl2q, sl2q.basis_vector(1)),
            (SU, SU.basis_vector(0)),
            # E22 in pgl3/F3: a 4-dimensional null and a 4-dimensional one component
            (pgl(F3, 3), pgl(F3, 3).basis_vector(3)),
        ],
        ids=["sl2q", "su2q", "pgl3f3"],
    )
    def test_recheck_rejects_swapped_components(self, L, x):
        dec = fitting(L, x)
        assert dec.null.dim and dec.one.dim
        powers = [L.ad(x) ** L.dim]
        _assert_fitting(L, dec, powers)
        with pytest.raises(RecheckFailed):
            _assert_fitting(L, FittingDecomposition(dec.one, dec.null, dec.against), powers)

    @pytest.mark.parametrize(
        "L,x",
        [(sl2q, sl2q.basis_vector(1)), (pgl(F3, 3), pgl(F3, 3).basis_vector(3))],
        ids=["sl2q", "pgl3f3"],
    )
    def test_recheck_rejects_overlapping_components(self, L, x):
        # one basis vector of the one component traded for one of the null
        # component: the dimensions still sum to dim, the components meet
        dec = fitting(L, x)
        one = Subspace.from_vectors(L.field, L.dim, dec.null.basis()[:1] + dec.one.basis()[1:])
        assert dec.null.dim + one.dim == L.dim
        assert not dec.null.intersect(one).is_zero()
        with pytest.raises(RecheckFailed, match="components must be independent"):
            _assert_fitting(L, FittingDecomposition(dec.null, one, dec.against), [L.ad(x) ** L.dim])

    def test_one_power_per_element(self, monkeypatch):
        calls = []
        power = Matrix.__pow__
        monkeypatch.setattr(Matrix, "__pow__", lambda m, k: calls.append(k) or power(m, k))
        fitting(sl2q, sl2q.basis_vector(1))
        assert len(calls) == 1
        calls.clear()
        L = direct_sum(sl2q, sl2q)
        fitting_set(L, [L.basis_vector(1), L.basis_vector(4)])
        assert len(calls) == 2


    @pytest.mark.parametrize("field", [QQ, F3, F5], ids=["Q", "F3", "F5"])
    def test_full_null_component_must_be_killed_by_the_power(self, field):
        # the subalgebra check is skipped on L itself; the power check is
        # what refuses L as the null component of a semisimple h
        L = sl(field, 2)
        h = L.basis_vector(1)
        fake = FittingDecomposition(Subspace.full_space(field, 3), Subspace.zero_space(field, 3), (h,))
        with pytest.raises(RecheckFailed, match=r"ad\^dim must kill the null component"):
            _assert_fitting(L, fake, [L.ad(h) ** 3])

    @pytest.mark.parametrize("field", [QQ, F3, F5], ids=["Q", "F3", "F5"])
    def test_proper_null_component_must_be_a_subalgebra(self, field):
        # span(e, f) + span(h) has the dimensions and spans sl2, but
        # [e, f] = h leaves span(e, f)
        L = sl(field, 2)
        e, h, f = map(L.basis_vector, range(3))
        fake = FittingDecomposition(
            Subspace.from_vectors(field, 3, [e, f]), Subspace.from_vectors(field, 3, [h]), (h,)
        )
        with pytest.raises(RecheckFailed, match="null component must be a subalgebra"):
            _assert_fitting(L, fake, [L.ad(h) ** 3])

    @pytest.mark.parametrize("field", [QQ, F3, F5], ids=["Q", "F3", "F5"])
    def test_power_must_be_injective_on_a_nonzero_one_component(self, field):
        # h's components against the zero power (ad e)^3: every check before
        # injectivity holds, and the image of span(e, f) is 0
        L = sl(field, 2)
        e, h = L.basis_vector(0), L.basis_vector(1)
        dec = fitting(L, h)
        with pytest.raises(RecheckFailed, match="ad\\^dim must act injectively on the one component"):
            _assert_fitting(L, dec, [L.ad(e) ** 3])

    def test_brackets_only_a_proper_null_component(self, monkeypatch):
        calls = []
        product = LieAlgebra._product_k
        monkeypatch.setattr(LieAlgebra, "_product_k", lambda L, u, v: calls.append(1) or product(L, u, v))
        L = sl(F3, 2)
        # e is ad-nilpotent, as every census witness: null component L, one component 0
        e, h = L.basis_vector(0), L.basis_vector(1)
        dec = FittingDecomposition(Subspace.full_space(F3, 3), Subspace.zero_space(F3, 3), (e,))
        _assert_fitting(L, dec, [L.ad(e) ** 3])
        assert calls == []
        # h: null component span(h), one component span(e, f)
        dec = fitting(L, h)
        calls.clear()
        _assert_fitting(L, dec, [L.ad(h) ** 3])
        assert len(calls) == dec.null.dim ** 2 + dec.null.dim * dec.one.dim

    @given(data=st.data(), field=st.sampled_from([QQ, F2, F3, F5]))
    @settings(max_examples=60, deadline=None)
    def test_one_element_almost_commutes_with_itself(self, data, field):
        # why fitting_set checks a family of one for nothing: (ad x)^n x = 0
        # on every antisymmetric table, Jacobi or not, in characteristic 2 too
        n = data.draw(st.integers(1, 4))
        entry = st.integers(-3, 3)
        table = {(i, j): [data.draw(entry) for _ in range(n)] for i in range(n) for j in range(i + 1, n)}
        L = LieAlgebra.unchecked(field, [f"b{i}" for i in range(n)], table)
        x = L._k_vector([field.of(data.draw(entry)) for _ in range(n)])
        assert not any((L.ad(x) ** n)._apply_k(x))


class TestRegularElements:
    def test_semisimple_h_is_regular(self):
        assert is_regular_element(sl2q, sl2q.basis_vector(1))

    def test_nilpotent_e_is_not(self):
        assert not is_regular_element(sl2q, sl2q.basis_vector(0))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_regular_element(sl2q, sl2q.zero_vector())

    def test_exhaustive_cross_check_sl2_f3(self):
        L = sl(F3, 2)
        r = rank(L)
        regular_count = 0
        for x in itertools.product(F3.elements(), repeat=3):
            if vec_is_zero(x):
                continue
            expected = zero_multiplicity(L, x) == r
            assert is_regular_element(L, x) == expected
            regular_count += expected
        assert regular_count > 0


class TestRegularAlgebras:
    def test_nilpotent_certified(self):
        v = is_regular_algebra(heisenberg(QQ, 1))
        assert v.is_certified

    def test_su2q_certified_by_definite_form(self):
        v = is_regular_algebra(SU, mode="certificate")
        assert v.is_certified
        assert v.certificate == "definite-quadratic-form"

    def test_sl2q_refuted_with_witness(self):
        v = is_regular_algebra(sl2q)
        assert v.is_refuted
        x = v.witness
        assert zero_multiplicity(sl2q, x) > rank(sl2q)

    def test_sl2_f5_exhaustive(self):
        v = is_regular_algebra(sl(F5, 2), mode="exhaustive")
        assert v.is_refuted
        assert v.evidence["total_nonzero"] == 124

    def test_exhaustive_requires_finite_field(self):
        with pytest.raises(ValueError):
            is_regular_algebra(sl2q, mode="exhaustive")

    def test_search_is_seed_deterministic(self):
        a = is_regular_algebra(sl2q, seed=7)
        b = is_regular_algebra(sl2q, seed=7)
        assert a.witness == b.witness

    def test_r2_f3_not_regular_but_small(self):
        v = is_regular_algebra(r2(F3), mode="exhaustive")
        assert v.is_refuted


class TestAnisotropy:
    def test_su2q_certificate(self):
        v = is_anisotropic(SU, mode="certificate")
        assert v.is_certified
        assert v.certificate == "definite-quadratic-form"
        w = is_nilpotent_free(SU, mode="certificate")
        assert w.is_certified

    def test_sl2q_has_nilpotent_elements(self):
        v = is_nilpotent_free(sl2q)
        assert v.is_refuted
        x = v.witness
        assert (sl2q.ad(x) ** 3).is_zero()
        assert not sl2q.center().contains(x)

    def test_nonabelian_nilpotent_refuted_structurally(self):
        v = is_anisotropic(heisenberg(QQ, 1))
        assert v.is_refuted
        assert v.evidence.get("reason") == "nilpotent-nonabelian"

    def test_abelian_certified(self):
        assert is_anisotropic(abelian(QQ, 2)).is_certified
        assert is_nilpotent_free(abelian(F3, 2)).is_certified

    def test_exhaustive_f3(self):
        v = is_nilpotent_free(sl(F3, 2), mode="exhaustive")
        assert v.is_refuted  # e is ad-nilpotent, not central

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            is_anisotropic(SU, mode="guess")

    @pytest.mark.parametrize("L,i", [(sl2q, 1), (r2(QQ), 0), (r2(F5), 0)], ids=["h-sl2q", "x-r2q", "x-r2f5"])
    def test_scan_refutation_is_rechecked(self, L, i, monkeypatch):
        """ad h of sl2/Q, and ad x of r2 ([x, y] = y, chi = t(t - 1)), are
        semisimple: a scan that returns one is refused."""
        x = L.basis_vector(i)
        monkeypatch.setattr(regularity, "_scan", lambda L, mode, seed, fails, **known: Verdict.refuted(x))
        with pytest.raises(RecheckFailed):
            is_anisotropic(L)

    def test_recheck_keeps_factors_of_multiplicity_p(self, monkeypatch):
        """r2 + a central line over F3: ad y of [x, y] = y and ad z of the
        central z both have chi = t^3, whose radical is t; ad y is not zero,
        ad z is, so only y refutes."""
        L = direct_sum(r2(F3), abelian(F3, 1))
        y, z = L.basis_vector(1), L.basis_vector(2)
        v = is_anisotropic(L, mode="exhaustive")
        assert v.is_refuted and v.witness == y
        assert L.ad(y).char_poly() == L.ad(z).char_poly() == UniPoly(F3, [0, 0, 0, 1])
        monkeypatch.setattr(regularity, "_scan", lambda L, mode, seed, fails, **known: Verdict.refuted(z))
        with pytest.raises(RecheckFailed):
            is_anisotropic(L, mode="exhaustive")

    def test_search_without_witness_is_inconclusive(self, monkeypatch):
        # su2q (+) a central line: every ad x is semisimple and the only
        # ad-nilpotent elements are central, so no search point fails
        monkeypatch.setattr(regularity, "SEARCH_HEIGHT", 1)
        monkeypatch.setattr(regularity, "SEARCH_TRIALS", 10)
        L = direct_sum(SU, abelian(QQ, 1))
        for decide in (is_anisotropic, is_nilpotent_free):
            v = decide(L, seed=5)
            assert v.is_inconclusive
            assert v.evidence == {"scanned": 4 + 80 + 10, "height": 1, "trials": 10, "seed": 5}
        v = is_regular_algebra(SU, seed=5)
        assert v.is_inconclusive
        assert v.evidence == {"rank": 1, "scanned": 3 + 26 + 10, "height": 1, "trials": 10, "seed": 5}



INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


def _named_tables():
    """The canonical instances and the benchmark tables, up to the symbolic budget."""
    named = list(canonical_instances())
    for path in sorted(INPUTS.glob("*.json")):
        named.append((path.stem, LieAlgebra.from_json_dict(json.loads(path.read_text()))))
    return [(name, L) for name, L in named if L.dim <= SYMBOLIC_DIM]


NAMED = _named_tables()
FP_NAMED = [(name, L) for name, L in NAMED if L.field.kind == "Fp" and L.field.p**L.dim <= EXHAUSTIVE_CAP]
Q_NAMED = [(name, L) for name, L in NAMED if L.field.kind == "Q"]


def symbolic_nu(L, x):
    """The least i with a_i(x) != 0, from the expansion alone."""
    g = generic_char_poly(L)
    xk = L._k_vector(x)
    return next(i for i in range(L.dim + 1) if g.value(i, xk))


def _rescaled(L, scales):
    """L in the basis b_i / s_i, so that integer constants become fractions."""
    table = {
        (i, j): {k: c * scales[k] / (scales[i] * scales[j]) for k, c in coeffs.items()}
        for (i, j), coeffs in L.table.items()
    }
    return LieAlgebra(L.field, L.labels, table)


class TestScansReadTheExpansion:
    """Where ``rank`` has expanded the a_i from the table rows, the scans
    read nu off them (nu(x) is the least i with a_i(x) != 0), and every
    recheck keeps the Hessenberg ``zero_multiplicity``."""

    @pytest.mark.parametrize("p,valid", [(2, 120), (3, 1431)])
    def test_nu_on_every_line_of_the_census(self, p, valid):
        field = GF(p)
        lines = list(_projective_points(field, 3))
        count = 0
        for t in enumerate_tables(3, field):
            if t.jacobi_ok:
                count += 1
                L = t.algebra()
                assert [symbolic_nu(L, x) for x in lines] == [zero_multiplicity(L, x) for x in lines], t.coeffs
        assert count == valid

    @pytest.mark.parametrize("name,L", FP_NAMED, ids=[c[0] for c in FP_NAMED])
    def test_nu_on_every_line_of_the_fp_tables(self, name, L):
        for x in _projective_points(L.field, L.dim):
            assert symbolic_nu(L, x) == zero_multiplicity(L, x), x

    @pytest.mark.parametrize("name,L", Q_NAMED, ids=[c[0] for c in Q_NAMED])
    def test_nu_at_the_schedule_points_over_q(self, name, L):
        """The first points of the search schedule, and seeded points with
        64-bit coordinates (the schedule's trials, reached here at height 0)."""
        n = L.dim
        points = list(itertools.islice(_search_schedule(QQ, n, SEARCH_HEIGHT, SEARCH_TRIALS, DEFAULT_SEED), 150))
        points += list(_search_schedule(QQ, n, 0, 8, DEFAULT_SEED))[n:]
        for x in points:
            assert symbolic_nu(L, x) == zero_multiplicity(L, x), x

    @pytest.mark.parametrize("name,L", NAMED, ids=[c[0] for c in NAMED])
    def test_table_rows_give_the_coefficients_of_the_ad_family(self, name, L):
        ads = [L.ad_basis(i) for i in range(L.dim)]
        assert generic_char_poly(L).coeffs == tuple(linear_family_char_coeffs(L.field, ads, L.dim))

    @pytest.mark.parametrize("L", [sl2q, SU, gl(QQ, 2)])
    def test_table_rows_with_fractions(self, L):
        """Non-integral constants: the rows are scaled by the lcm of their
        denominators before the integer expansion, and back after it."""
        M = _rescaled(L, [Fraction(k + 2, 3 - k % 2) for k in range(L.dim)])
        ads = [M.ad_basis(i) for i in range(M.dim)]
        assert generic_char_poly(M).coeffs == tuple(linear_family_char_coeffs(QQ, ads, M.dim))
        assert generic_char_poly(M).formal_rank() == generic_char_poly(L).formal_rank()

    def test_the_coefficients_are_built_only_when_read(self):
        g = generic_char_poly(sl(F3, 2))
        assert g._coeffs is None
        rank(sl(F3, 2))
        assert g.coeffs[3] == regularity.MultiPoly.const(F3, 3, 1)

    @staticmethod
    def _corrupt(g, i, terms):
        g.terms = g.terms[:i] + (terms,) + g.terms[i + 1 :]

    @pytest.mark.parametrize(
        "a_rank",
        [
            {(0, 0, 2): 1},  # vanishes first on the line of h, which is regular
            {(0, 0, 0): 1},  # vanishes on no line, so the scan would certify
        ],
    )
    def test_a_corrupted_a_rank_raises(self, a_rank):
        L = LieAlgebra.from_json_dict(json.loads((INPUTS / "sl2f5.json").read_text()))
        assert L.labels == ("e", "h", "f") and rank(L) == 1
        self._corrupt(generic_char_poly(L), 1, a_rank)
        with pytest.raises(RecheckFailed):
            is_regular_algebra(L, mode="exhaustive")

    def test_a_corrupted_rank_scan_term_raises(self):
        """sl3/F3 needs a scan (n - r = 6 >= p), and its first line E32 has
        nu = 8: a term x_8^6 added to a_2 makes the scan stop there."""
        L = LieAlgebra.from_json_dict(json.loads((INPUTS / "sl3f3.json").read_text()))
        g = generic_char_poly(L)
        first = (0,) * 7 + (6,)
        assert first not in g.terms[2] and zero_multiplicity(L, L.basis_vector(7)) == 8
        self._corrupt(g, 2, {**g.terms[2], first: 1})
        with pytest.raises(RecheckFailed):
            rank(L)

    def test_rank_scan_rechecks_its_line(self, monkeypatch):
        """The first line meeting the bound gets one Hessenberg nu, and the
        lines before it (the first has nu = 4 on pgl3/F3) none."""
        L = LieAlgebra.from_json_dict(json.loads((INPUTS / "pgl3f3.json").read_text()))
        seen = []
        real = regularity.zero_multiplicity
        monkeypatch.setattr(regularity, "zero_multiplicity", lambda L, x: seen.append(x) or real(L, x))
        assert rank(L) == 2
        monkeypatch.undo()
        assert seen == [next(x for x in _projective_points(F3, 8) if zero_multiplicity(L, x) == 2)]


class TestLineWalk:
    """The exhaustive scans walk one representative per line of F_p^n."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_projective_points_in_lexicographic_order(self, p):
        F = GF(p)
        for n in range(5):
            position = {tuple(c.r for c in x): t for t, x in enumerate(itertools.product(F.elements(), repeat=n))}
            reps = [tuple(c.r for c in x) for x in _projective_points(F, n)]
            assert len(reps) == (p**n - 1) // (p - 1)
            assert all(a < b for a, b in zip(reps, reps[1:]))
            for x, rep in zip(_projective_points(F, n), reps):
                assert next(c for c in rep if c) == 1
                assert _point_index(F, x) == position[rep]

    def test_every_scan_predicate_is_scale_invariant_on_the_census(self, monkeypatch):
        """fails(x) == fails(cx) for c in F_3^x, for every predicate that
        the exhaustive deciders hand to _scan on the dimension-3 census."""
        predicates = []
        scan = regularity._scan

        def recording(L, mode, seed, fails, **known):
            predicates.append(fails)
            return scan(L, mode, seed, fails, **known)

        monkeypatch.setattr(regularity, "_scan", recording)
        for t in enumerate_tables(3, F3):
            if t.jacobi_ok:
                L = t.algebra()
                for decide in (is_regular_algebra, is_anisotropic, is_nilpotent_free):
                    decide(L, mode="exhaustive")
        assert len(predicates) == 3 * (1431 - 27)
        units = [c for c in F3.elements() if c]
        for fails in predicates:
            for x in _projective_points(F3, 3):
                assert len({fails(tuple(c * a for a in x)) for c in units}) == 1


def quaternion_lie(a, b):
    """Trace-zero part of the quaternion algebra (a, b) over Q:
    [i, j] = 2k, [i, k] = 2a j, [j, k] = -2b i."""
    return LieAlgebra(QQ, ("i", "j", "k"), {(0, 1): {2: 2}, (0, 2): {1: 2 * a}, (1, 2): {0: -2 * b}})


def solvable_tables(count, seed):
    """[x, y] = a y + c z, [x, z] = b y + d z: x acting on an abelian plane,
    with tr ad x = a + d mostly nonzero."""
    rng = random.Random(seed)
    for _ in range(count):
        a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
        yield LieAlgebra(QQ, ("x", "y", "z"), {(0, 1): {1: a, 2: c}, (0, 2): {1: b, 2: d}})


def reference_a1_gram(L):
    """The Gram matrix of a_1 read off the symbolic expansion: x_i^2 on
    the diagonal, half of x_i x_j off it."""
    rows = [[QQ.zero] * 3 for _ in range(3)]
    for exps, c in generic_char_poly(L).coeffs[1].terms.items():
        hot = [i for i, e in enumerate(exps) if e]
        if len(hot) == 1:
            rows[hot[0]][hot[0]] = c
        else:
            i, j = hot
            rows[i][j] = rows[j][i] = c / 2
    return Matrix(QQ, rows, 3)


def reference_certificate(L, with_a2):
    """The definite-form certificate as read from the symbolic polynomials:
    rank 1, a definite a_1, and for anisotropy a_2 identically zero."""
    if rank(L) != 1:
        return None
    if with_a2 and not generic_char_poly(L).coeffs[2].is_zero():
        return None
    diag = diagonalize_quadratic(reference_a1_gram(L))
    signs = {d > 0 for d in diag}
    if not all(diag) or len(signs) != 1:
        return None
    evidence = {"rank": 1, "a2": "0"} if with_a2 else {"rank": 1}
    evidence.update(diagonal=[QQ.to_str(d) for d in diag], sign="positive" if signs.pop() else "negative")
    return Verdict.certified("definite-quadratic-form", **evidence)


ORACLE_TABLES = (
    [("su2q", SU), ("sl2q", sl2q)]
    + [(f"quaternion({a},{b})", quaternion_lie(a, b)) for a in range(-6, 7) for b in range(-6, 7) if a and b]
    + [(f"solvable{t}", L) for t, L in enumerate(solvable_tables(300, seed=16))]
)


class TestDefiniteA1Certificate:
    def test_killing_gram_matches_symbolic_a1(self):
        moved = 0
        for name, L in ORACLE_TABLES:
            tau = [L.ad_basis(i).trace() for i in range(3)]
            moved += any(tau)
            assert regularity._a1_gram(L, tau) == reference_a1_gram(L), name
        assert moved >= 250  # the tau term is exercised

    def test_verdicts_match_the_symbolic_route(self, monkeypatch):
        # the scan after a failed certificate is shared code; stub it so
        # only the certificate decision is compared
        monkeypatch.setattr(regularity, "_scan", lambda L, mode, seed, fails, **known: Verdict.inconclusive(**known))
        certified = set()
        for name, L in ORACLE_TABLES:
            for decide, with_a2 in ((is_regular_algebra, False), (is_anisotropic, True), (is_nilpotent_free, True)):
                got = decide(L, "certificate")
                ref = reference_certificate(L, with_a2)
                if ref is None:
                    assert got.certificate != "definite-quadratic-form", (name, decide.__name__)
                else:
                    assert got == ref, (name, decide.__name__)
                    certified.add(name)
        negative = {f"quaternion({a},{b})" for a in range(-6, 0) for b in range(-6, 0)}
        assert certified == negative | {"su2q"}
        assert len(certified) == 37

    def test_certificate_reads_no_symbolic_polynomial(self, monkeypatch):
        def refuse(L):
            raise AssertionError("generic_char_poly read")

        monkeypatch.setattr(regularity, "generic_char_poly", refuse)
        for decide in (is_anisotropic, is_nilpotent_free):
            v = decide(su2q(), "certificate")
            assert v.is_certified and v.certificate == "definite-quadratic-form"

    def test_indefinite_division_algebra_stays_inconclusive(self):
        # (-1, 3) is a division algebra, so a_1 is anisotropic over Q, but
        # indefinite over R: the definite-form certificate must not apply
        L = quaternion_lie(-1, 3)
        for decide in (is_regular_algebra, is_anisotropic):
            assert decide(L, "certificate").is_inconclusive


class TestFactorizationAlongIdeals:
    @given(x=st.tuples(st.integers(-5, 5).map(QQ.of), st.integers(-5, 5).map(QQ.of)))
    @settings(max_examples=40)
    def test_r2_chi_factors(self, x):
        L = r2(QQ)
        ideal = Subspace.from_vectors(QQ, 2, [L.basis_vector(1)])
        chi_i, chi_q, chi_l = char_poly_factorization(L, ideal, x)
        assert chi_i * chi_q == chi_l

    @given(x=st.tuples(*([st.integers(-4, 4).map(QQ.of)] * 6)))
    @settings(max_examples=25)
    def test_double_sl2_chi_factors(self, x):
        L = direct_sum(sl2q, sl2q)
        ideal = Subspace.from_vectors(
            QQ, 6, [L.basis_vector(0), L.basis_vector(1), L.basis_vector(2)]
        )
        chi_i, chi_q, chi_l = char_poly_factorization(L, ideal, x)
        assert chi_i * chi_q == chi_l

    def test_relative_rank_adds_up(self):
        L = r2(QQ)
        ideal = Subspace.from_vectors(QQ, 2, [L.basis_vector(1)])
        ri, rq = relative_rank(L, ideal)
        assert ri + rq == rank(L)

        D = direct_sum(sl2q, sl2q)
        summand = Subspace.from_vectors(
            QQ, 6, [D.basis_vector(0), D.basis_vector(1), D.basis_vector(2)]
        )
        ri, rq = relative_rank(D, summand)
        assert (ri, rq) == (1, 1)
        assert ri + rq == rank(D)


_SABOTAGED_FITTING = """
import sys
assert False, "this check needs python -O, which strips asserts"
import lielab
from lielab import regularity
from lielab.catalog import sl
from lielab.fields import GF

real = regularity.fitting

def wrong_fitting(L, x):
    dec = real(L, x)
    return regularity.FittingDecomposition(dec.one, dec.null, dec.against)

regularity.fitting = wrong_fitting
try:
    regularity.is_regular_algebra(sl(GF(5), 2), mode="exhaustive")
except lielab.RecheckFailed as exc:
    print("raised:", exc)
    sys.exit(0)
print("no raise")
sys.exit(1)
"""


def test_recheck_survives_python_O():
    """Under -O, a Fitting component that disagrees with the zero
    multiplicity of a refuting witness still raises RecheckFailed."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _SABOTAGED_FITTING],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "raised: witness recheck failed" in proc.stdout


_RECHECKS_UNDER_O = """
import sys
assert False, "this check needs python -O, which strips asserts"
from lielab import RecheckFailed, StructureError
from lielab.catalog import sl
from lielab.fields import GF
from lielab.linalg import Subspace
from lielab.regularity import FittingDecomposition, _assert_fitting, fitting_set

F = GF(5)
L = sl(F, 2)
e, h, f = map(L.basis_vector, range(3))
power = L.ad(h) ** 3
cases = [
    (RecheckFailed, lambda: _assert_fitting(
        L, FittingDecomposition(Subspace.full_space(F, 3), Subspace.zero_space(F, 3), (h,)), [power])),
    (RecheckFailed, lambda: _assert_fitting(
        L, FittingDecomposition(Subspace.from_vectors(F, 3, [e, f]), Subspace.from_vectors(F, 3, [h]), (h,)), [power])),
    (RecheckFailed, lambda: _assert_fitting(L, fitting_set(L, [h]), [L.ad(e) ** 3])),
    (StructureError, lambda: fitting_set(L, [e, h])),
]
for error, call in cases:
    try:
        call()
    except error as exc:
        print("raised:", exc)
    else:
        print("no raise")
        sys.exit(1)
"""


def test_fitting_rechecks_survive_python_O():
    """Under -O, the power check on a full null component, the subalgebra
    check on a proper one, injectivity on a nonzero one component and the
    almost-commuting check on two elements still raise."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _RECHECKS_UNDER_O],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "raised: ad^dim must kill the null component",
        "raised: null component must be a subalgebra",
        "raised: ad^dim must act injectively on the one component",
        "raised: set is not almost commuting",
    ]
