"""Named algebra constructions, quaternion arithmetic, and the dimension-
bounded enumeration of structure-constant tables."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lielab.catalog import (
    QuaternionAlgebra,
    abelian,
    canonical_instances,
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
from lielab.fields import GF, QQ
from lielab.linalg import vec_is_zero
from lielab.regularity import is_regular_algebra, rank

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def qvec(*cs):
    return tuple(QQ.of(c) for c in cs)


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
        v = is_division(H, mode="exhaustive")
        assert v.is_refuted
        x, y = v.witness
        assert vec_is_zero(H.multiply(x, y))
        assert tuple(c.r for c in x) == (0, 0, 1, 2)

    def test_exhaustive_needs_finite_field(self):
        with pytest.raises(ValueError):
            is_division(QuaternionAlgebra(QQ, QQ.of(-1), QQ.of(3)), mode="exhaustive")


_SABOTAGED_MULTIPLY = """
import sys
assert False, "this check needs python -O, which strips asserts"
import lielab
from lielab.catalog import QuaternionAlgebra, is_division
from lielab.fields import GF

QuaternionAlgebra.multiply = lambda self, x, y: (self.field.one,) * 4
F5 = GF(5)
try:
    is_division(QuaternionAlgebra(F5, F5.of(-1), F5.of(-1)), "exhaustive")
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
    def test_dim2_f2_census(self):
        tables = list(enumerate_tables(2, F2))
        assert len(tables) == 4
        assert all(t.jacobi_ok for t in tables)
        regular = [
            t
            for t in tables
            if is_regular_algebra(t.algebra(), mode="exhaustive").is_certified
        ]
        assert len(regular) == 1
        L = regular[0].algebra()
        assert L.structure_report().abelian

    def test_dim3_f2_census(self):
        tables = list(enumerate_tables(3, F2))
        assert len(tables) == 512
        valid = [t for t in tables if t.jacobi_ok]
        assert len(valid) == 120

    def test_dim3_f2_rank_dim_iff_nilpotent(self):
        for t in enumerate_tables(3, F2):
            if not t.jacobi_ok:
                continue
            L = t.algebra()
            assert (rank(L) == 3) == L.structure_report().nilpotent

    def test_enumeration_budget(self):
        from lielab.budgets import BudgetExceeded

        with pytest.raises(BudgetExceeded):
            next(iter(enumerate_tables(4, F5)))
