"""Rank, Fitting components, regular elements/algebras, anisotropy,
and characteristic-polynomial factorization along ideals."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lielab import regularity
from lielab.algebra import direct_sum
from lielab.catalog import abelian, gl, heisenberg, make, r2, sl, strict_upper, su2q
from lielab.fields import GF, QQ, UniPoly
from lielab.linalg import Subspace, vec_is_zero
from lielab.regularity import (
    ad_char_coeffs,
    char_poly_factorization,
    fitting,
    fitting_set,
    generic_char_poly,
    is_anisotropic,
    is_nilpotent_free,
    is_regular_algebra,
    is_regular_element,
    rank,
    relative_rank,
    zero_multiplicity,
    _all_vectors,
    _rank_by_scan,
)

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

    def test_nilpotent_means_full_rank(self):
        for L in (heisenberg(QQ, 1), strict_upper(QQ, 4), abelian(F5, 2)):
            assert rank(L) == L.dim


class TestGenericCharPoly:
    @given(x=vec3q)
    @settings(max_examples=40)
    def test_symbolic_matches_pointwise_sl2(self, x):
        g = generic_char_poly(sl2q)
        assert g.symbolic
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

        e, h = sl2q.basis_vector(0), sl2q.basis_vector(1)
        with pytest.raises(StructureError):
            fitting_set(sl2q, [e, h])

    def test_fitting_set_rejects_empty(self):
        with pytest.raises(ValueError):
            fitting_set(sl2q, [])


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
        for x in _all_vectors(F3, 3):
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
