"""Named algebra constructions, quaternion arithmetic, and the dimension-
bounded enumeration of structure-constant tables."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lielab.catalog import (
    QuaternionAlgebra,
    abelian,
    catalog_names,
    enumerate_tables,
    gl,
    heisenberg,
    is_division,
    make,
    minus_algebra,
    on,
    pgl,
    psl,
    quotient_by_unit_line,
    r2,
    reduced_trace,
    sl,
    sl_image_in_pgl,
    strict_upper,
    su2q,
)
from lielab.budgets import ON_DIM_CAP, BudgetExceeded
from lielab.fields import GF, QQ
from lielab.linalg import vec_is_zero

import oracle
from cases import canonical_instances, qvec

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


class TestMatrixFamilies:
    def test_dimensions(self):
        assert gl(QQ, 2).dim == 4
        assert gl(F5, 3).dim == 9
        assert sl(QQ, 2).dim == 3
        assert sl(QQ, 3).dim == 8
        assert strict_upper(QQ, 4).dim == 6
        assert heisenberg(QQ, 2).dim == 5

    def test_sl2_table(self):
        L = sl(QQ, 2)  # basis e, h, f
        assert L.labels == ("e", "h", "f")
        assert L.basis_bracket(0, 1) == qvec(-2, 0, 0)
        assert L.basis_bracket(0, 2) == qvec(0, 1, 0)
        assert L.basis_bracket(1, 2) == qvec(0, 0, -2)

    def test_su2q_table(self):
        L = su2q()
        assert L.basis_bracket(0, 1) == qvec(0, 0, 2)
        assert L.basis_bracket(0, 2) == qvec(0, -2, 0)
        assert L.basis_bracket(1, 2) == qvec(2, 0, 0)

    def test_su2q_rational_only(self):
        with pytest.raises(ValueError):
            su2q(F5)

    def test_r2(self):
        L = r2(QQ)
        assert L.basis_bracket(0, 1) == (QQ.zero, QQ.one)

    def test_projective_quotients(self):
        P, G = psl(F3, 3), pgl(F3, 3)
        assert P.dim == 7 and G.dim == 8
        img = sl_image_in_pgl(F3, 3)
        assert img.dim == 7
        assert img.contains_subspace(G.commutant())

    def test_psl_requires_p_dividing_n(self):
        with pytest.raises(ValueError):
            psl(F5, 3)
        with pytest.raises(ValueError):
            psl(QQ, 3)

    def test_truncated_polynomials(self):
        A = on(F3, 1)
        assert A.dim == 3
        assert A.labels == ("1", "x1", "x1^2")
        x = A.basis_vector(1)
        x2 = A.multiply(x, x)
        assert x2 == A.basis_vector(2)
        assert vec_is_zero(A.multiply(x2, x))  # x^3 = 0
        assert A.is_commutative()


class TestRegistry:
    def test_names_listed(self):
        names = catalog_names()
        for expected in ("sl", "psl", "heisenberg", "su2q", "r2"):
            assert expected in names, (expected, names)

    def test_make_dispatch(self):
        assert make("sl", n=2).dim == 3
        assert make("sl", field=F5, n=2).field is F5
        assert make("heisenberg", n=2).dim == 5
        assert make("su2q").dim == 3

    def test_make_unknown(self):
        with pytest.raises(ValueError):
            make("so8")

    def test_make_refuses_a_parameter_the_entry_lacks(self):
        for name in ("su2q", "r2", "sl2_o1_f3"):
            with pytest.raises(ValueError, match=f"{name} takes no parameters, not n"):
                make(name, n=7)
        with pytest.raises(ValueError, match="sl takes n, not m"):
            make("sl", m=2)
        with pytest.raises(ValueError, match="psl needs the parameter n"):
            make("psl", F3)

    def test_make_refuses_a_wrong_field(self):
        with pytest.raises(ValueError, match="F_3"):
            make("sl2_o1_f3", QQ)
        with pytest.raises(ValueError, match="rationals"):
            make("su2q", F5)

    def test_default_field_per_entry(self):
        assert make("sl2_o1_f3").field == F3 and make("sl2_o1_f3").dim == 9
        assert make("sl2_o1_f3", F3).canonical_json() == make("sl2_o1_f3").canonical_json()
        assert make("su2q").field == QQ
        assert make("heisenberg", F5, n=2).canonical_json() == heisenberg(F5, 2).canonical_json()

    def test_on_cap(self):
        # the largest allowed dimension builds; the first refused ones do not
        assert on(F2, 5).dim == ON_DIM_CAP == 32
        for field, n in ((GF(37), 1), (F2, 6), (F2, 10**9)):
            with pytest.raises(BudgetExceeded):
                on(field, n)

    # name, field, largest n with dimension <= ON_DIM_CAP, that dimension
    FAMILY_CAPS = [
        ("gl", QQ, 5, 25),
        ("sl", QQ, 5, 24),
        ("strict_upper", QQ, 8, 28),
        ("heisenberg", QQ, 15, 31),
        ("abelian", QQ, 32, 32),
        ("psl", F5, 5, 23),
        ("pgl", F5, 5, 24),
    ]

    @pytest.mark.parametrize("name,field", [c[:2] for c in FAMILY_CAPS], ids=[c[0] for c in FAMILY_CAPS])
    def test_family_refuses_a_huge_n_from_n_alone(self, name, field):
        # 10**9 is a multiple of 5, so psl and pgl reach the sl and gl check
        with pytest.raises(BudgetExceeded, match=f"exceeds the cap {ON_DIM_CAP}"):
            make(name, field, n=10**9)

    @pytest.mark.parametrize("name,field,n,dim", FAMILY_CAPS, ids=[c[0] for c in FAMILY_CAPS])
    def test_family_builds_at_its_largest_allowed_n(self, name, field, n, dim):
        assert make(name, field, n=n).dim == dim <= ON_DIM_CAP
        step = field.p if field.kind == "Fp" else 1
        with pytest.raises(BudgetExceeded):
            make(name, field, n=n + step)

    def test_abelian_refuses_a_negative_size(self):
        with pytest.raises(ValueError, match="abelian needs n >= 0"):
            abelian(QQ, -3)
        assert abelian(QQ, 0).dim == 0

    def test_canonical_instances_all_valid(self):
        seen = set()
        for name, L in canonical_instances():
            assert name not in seen
            seen.add(name)
            assert L.jacobi_violations() == []
        assert len(seen) >= 10


quat_coords = st.tuples(*([st.integers(-6, 6).map(QQ.of)] * 4))


class TestQuaternions:
    def setup_method(self):
        self.H = QuaternionAlgebra(QQ, QQ.of(-1), QQ.of(-1))

    def test_defining_products(self):
        A = self.H.assoc
        one, i, j, k = (A.basis_vector(t) for t in range(4))
        assert A.multiply(i, i) == qvec(-1, 0, 0, 0)
        assert A.multiply(j, j) == qvec(-1, 0, 0, 0)
        assert A.multiply(i, j) == k
        assert A.multiply(j, i) == qvec(0, 0, 0, -1)
        assert A.multiply(i, k) == qvec(0, 0, -1, 0)  # ik = aj with a = -1
        assert A.multiply(j, k) == i  # jk = -bi with b = -1

    @given(x=quat_coords, y=quat_coords)
    @settings(max_examples=50)
    def test_norm_is_multiplicative(self, x, y):
        H = self.H
        assert H.norm(H.multiply(x, y)) == H.norm(x) * H.norm(y)

    @given(x=quat_coords, y=quat_coords)
    @settings(max_examples=50)
    def test_conjugation_is_an_antiautomorphism(self, x, y):
        H = self.H
        assert H.conjugate(H.multiply(x, y)) == H.multiply(
            H.conjugate(y), H.conjugate(x)
        )

    @given(x=quat_coords)
    @settings(max_examples=50)
    def test_norm_via_conjugate(self, x):
        H = self.H
        prod = H.multiply(x, H.conjugate(x))
        assert prod == (H.norm(x), QQ.zero, QQ.zero, QQ.zero)

    @given(x=quat_coords, y=quat_coords)
    @settings(max_examples=30)
    def test_reduced_trace_symmetry(self, x, y):
        H = self.H
        assert reduced_trace(H, x) == QQ.of(2) * x[0]
        assert reduced_trace(H, H.multiply(x, y)) == reduced_trace(H, H.multiply(y, x))

    def test_multiply_refuses_a_wrong_length(self):
        for x, y in (((1, 0, 0, 0, 7), (1, 0, 0, 0)), ((1, 0), (0, 1))):
            with pytest.raises(ValueError, match="vector of length . in a dim 4 algebra"):
                self.H.multiply(x, y)
            with pytest.raises(ValueError, match="vector of length . in a dim 4 algebra"):
                self.H.assoc.multiply(y, x)

    def test_norm_refuses_a_wrong_length(self):
        for x in ((1, 2, 3, 4, 5), (1, 2, 3)):
            with pytest.raises(ValueError, match=f"vector of length {len(x)} in a dim 4 algebra"):
                self.H.norm(x)

    def test_conjugate_refuses_a_wrong_length(self):
        for x in ((1, 2, 3, 4, 5), (1, 2, 3)):
            with pytest.raises(ValueError, match=f"vector of length {len(x)} in a dim 4 algebra"):
                self.H.conjugate(x)

    def test_rejects_characteristic_two_and_zero_params(self):
        with pytest.raises(ValueError):
            QuaternionAlgebra(GF(2), GF(2).one, GF(2).one)
        with pytest.raises(ValueError):
            QuaternionAlgebra(QQ, QQ.zero, QQ.one)

    def test_minus_algebra_center_is_unit_line(self):
        Lfull = minus_algebra(self.H.assoc)
        center = Lfull.center()
        assert center.dim == 1
        assert center.contains(self.H.assoc.basis_vector(0))

    def test_quotient_by_unit_line_reproduces_su2q(self):
        L = quotient_by_unit_line(self.H.assoc)
        assert L.canonical_json() == su2q().canonical_json()


class TestDivisionVerdicts:
    def test_definite_certificate(self):
        v = is_division(QuaternionAlgebra(QQ, QQ.of(-1), QQ.of(-1)))
        assert v.is_certified
        assert v.certificate == "definite-quadratic-form"

    def test_split_by_square_parameter(self):
        H = QuaternionAlgebra(QQ, QQ.of(4), QQ.of(-3))
        v = is_division(H)
        assert v.is_refuted
        x, y = v.witness
        assert not vec_is_zero(x) and not vec_is_zero(y)
        assert vec_is_zero(H.multiply(x, y))

    def test_indefinite_undecided(self):
        v = is_division(QuaternionAlgebra(QQ, QQ.of(-1), QQ.of(3)))
        assert v.is_inconclusive

    def test_finite_field_always_splits(self):
        H = QuaternionAlgebra(F5, F5.of(-1), F5.of(-1))
        v = is_division(H)
        assert v.is_refuted
        x, y = v.witness
        assert vec_is_zero(H.multiply(x, y))
        assert tuple(c.r for c in x) == (0, 0, 1, 2)

    @staticmethod
    def _first_isotropic(H):
        """The plain walk: the first nonzero x of F_p^4 in lexicographic
        order with x xbar = 0, and how many nonzero x it visited."""
        p = H.field.p
        a, b = H.a.r, H.b.r
        scanned = 0
        for x in itertools.product(range(p), repeat=4):
            if any(x):
                scanned += 1
                if (x[0] ** 2 - a * x[1] ** 2 - b * x[2] ** 2 + a * b * x[3] ** 2) % p == 0:
                    return x, scanned
        return None, scanned

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_finite_field_witness_is_the_first_of_the_plain_walk(self, p):
        F = GF(p)
        for a in range(1, p):
            for b in range(1, p):
                v = is_division(QuaternionAlgebra(F, a, b))
                want, scanned = self._first_isotropic(QuaternionAlgebra(F, a, b))
                assert v.is_refuted, (p, a, b)
                assert tuple(c.r for c in v.witness[0]) == want, (p, a, b)
                assert v.evidence == {"scanned": scanned}, (p, a, b)

    def test_finite_field_past_the_old_cap_is_refuted(self):
        # 37^4 points exceed EXHAUSTIVE_CAP; the 37^3 with x_0 = 0 do not
        F37 = GF(37)
        H = QuaternionAlgebra(F37, -1, -1)
        v = is_division(H)
        assert v.is_refuted
        x, y = v.witness
        assert x[0] == F37.zero and not vec_is_zero(x)
        assert vec_is_zero(H.multiply(x, y))

    def test_finite_field_past_the_cap_is_refused(self):
        with pytest.raises(BudgetExceeded, match="1030301 pure quaternions"):
            is_division(QuaternionAlgebra(GF(101), -1, -1))


_SABOTAGED_MULTIPLY = """
import sys
assert False, "this check needs python -O, which strips asserts"
import lielab
from lielab.catalog import QuaternionAlgebra, is_division
from lielab.fields import GF

QuaternionAlgebra.multiply = lambda self, x, y: (self.field.one,) * 4
F5 = GF(5)
try:
    is_division(QuaternionAlgebra(F5, F5.of(-1), F5.of(-1)))
except lielab.RecheckFailed as exc:
    print("raised:", exc)
    sys.exit(0)
print("no raise")
sys.exit(1)
"""


def test_zero_divisor_recheck_survives_python_O():
    """Under -O, a norm-zero element whose product with its conjugate
    does not vanish still raises RecheckFailed."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _SABOTAGED_MULTIPLY],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "raised: zero-divisor recheck failed" in proc.stdout


class TestEnumeration:
    def test_dim3_f2_census(self):
        tables = list(enumerate_tables(3, F2))
        assert len(tables) == 512
        valid = [t for t in tables if t.jacobi_ok]
        assert len(valid) == 120

    @pytest.mark.parametrize("dim,p", [(3, 2), (3, 3), (2, 5), (2, 7), (0, 3), (1, 5)])
    def test_jacobi_flag_matches_an_independent_oracle(self, dim, p):
        """Every table and flag, in order, against [[b_i, b_j], b_k] + cyclic
        = 0, computed by the oracle on the table it builds from the raw
        coefficients (pairs i < j in order, then k)."""
        got = [(t.coeffs, t.jacobi_ok) for t in enumerate_tables(dim, GF(p))]
        assert got == list(oracle.census_flags(p, dim))
        assert len(got) == p ** (dim * dim * (dim - 1) // 2)

    def test_enumeration_budget(self):
        with pytest.raises(BudgetExceeded):
            next(iter(enumerate_tables(4, F5)))

    def test_a_huge_count_is_refused_by_its_exponent(self):
        dim = 10**9
        ncoeffs = dim * (dim * (dim - 1) // 2)
        with pytest.raises(BudgetExceeded, match=rf"^2\^{ncoeffs} tables exceed"):
            next(iter(enumerate_tables(dim, F2)))

    def test_negative_dimension_refused(self):
        with pytest.raises(ValueError, match="dimension >= 0"):
            next(iter(enumerate_tables(-1, F3)))
