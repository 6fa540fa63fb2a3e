"""Field arithmetic, polynomial helpers, and serialization round-trips."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lielab.fields import (
    GF,
    QQ,
    Fp,
    MultiPoly,
    UniPoly,
    field_from_json,
    field_to_json,
    is_squarefree,
    poly_gcd,
    poly_radical,
)

F5 = GF(5)
F7 = GF(7)

rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
f5_elems = st.integers(0, 4).map(F5.of)


class TestPrimeField:
    def test_singletons(self):
        assert GF(5) is F5
        assert GF(5) == GF(5)
        assert GF(5) != GF(7)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            GF(6)
        with pytest.raises(ValueError):
            GF(1)

    def test_of_is_idempotent(self):
        x = F5.of(3)
        assert F5.of(x) is x
        assert F5.of(12) == F5.of(2)

    def test_mixed_modulus_rejected(self):
        with pytest.raises(TypeError):
            F5.of(2) + F7.of(2)

    @given(a=st.integers(-100, 100), b=st.integers(-100, 100))
    def test_ring_homomorphism_from_integers(self, a, b):
        assert F5.of(a) + F5.of(b) == F5.of(a + b)
        assert F5.of(a) * F5.of(b) == F5.of(a * b)
        assert -F5.of(a) == F5.of(-a)

    @given(a=f5_elems, b=f5_elems, c=f5_elems)
    def test_field_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + F5.zero == a
        assert a * F5.one == a
        assert a - a == F5.zero

    @given(a=f5_elems)
    def test_inverse(self, a):
        if not a:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            assert a * a.inverse() == F5.one
            assert a / a == F5.one

    def test_pow_matches_fermat(self):
        for a in F5.elements():
            if a:
                assert a ** 4 == F5.one
            assert a ** 5 == a

    def test_elements_enumeration(self):
        elems = list(F7.elements())
        assert len(elems) == 7
        assert len(set(elems)) == 7

    def test_parse_and_to_str_round_trip(self):
        for a in F5.elements():
            assert F5.parse(F5.to_str(a)) == a
        assert F5.parse("-1") == F5.of(4)

    def test_contains(self):
        assert F5.contains(F5.of(2))
        assert not F5.contains(F7.of(2))
        assert not F5.contains(Fraction(1, 2))

    def test_bool_and_hash(self):
        assert not F5.zero
        assert F5.one
        assert len({F5.of(i) for i in range(10)}) == 5

    def test_fp_repr_mentions_modulus(self):
        assert "5" in repr(Fp(2, 5))


class TestRationalField:
    @given(a=rationals)
    def test_parse_round_trip(self, a):
        assert QQ.parse(QQ.to_str(a)) == a

    def test_of_accepts_ints_and_fractions(self):
        assert QQ.of(3) == Fraction(3)
        assert QQ.of(Fraction(1, 2)) == Fraction(1, 2)
        assert QQ.parse("2/7") == Fraction(2, 7)
        with pytest.raises(TypeError):
            QQ.of("2/7")

    def test_contains(self):
        assert QQ.contains(Fraction(1, 3))
        assert not QQ.contains(F5.of(1))

    def test_kernel_scalars_are_ints_where_integral(self):
        got = QQ._to_k([3, Fraction(4, 2), Fraction(1, 3)])
        assert got == [3, 2, Fraction(1, 3)] and [type(c) for c in got] == [int, int, Fraction]
        assert type(QQ._k_zero) is int and QQ._k_zero == 0
        for bad in (0.5, "1", F5.of(1)):
            with pytest.raises(TypeError):
                QQ._to_k([bad])

    def test_from_k_refuses_what_is_not_a_kernel_scalar(self):
        # a float from a missed division fails instead of passing as a
        # nearby rational
        with pytest.raises(TypeError):
            QQ._from_k([0.5])
        with pytest.raises(TypeError):
            QQ._from_k([1 / 3])
        out = QQ._from_k([2, Fraction(1, 3)])
        assert out == (Fraction(2), Fraction(1, 3))
        assert all(type(c) is Fraction for c in out)


def test_field_json_round_trip():
    for field in (QQ, F5, GF(101)):
        assert field_from_json(field_to_json(field)) is field
    with pytest.raises(ValueError):
        field_from_json({"kind": "R"})


# -- univariate polynomials ------------------------------------------------

def poly(coeffs, field=QQ):
    return UniPoly(field, [field.of(c) for c in coeffs])


small_polys = st.lists(st.integers(-5, 5), min_size=0, max_size=5).map(poly)
small_f5_polys = st.lists(st.integers(0, 4), min_size=0, max_size=5).map(lambda cs: poly(cs, F5))


class TestUniPoly:
    def test_degree_and_leading(self):
        p = poly([1, 0, 2])
        assert p.degree == 2
        assert p.leading() == Fraction(2)
        assert UniPoly.zero(QQ).degree == -1

    @given(a=small_polys, b=small_polys)
    def test_divmod_invariant(self, a, b):
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.divmod(b)
            return
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree

    @given(a=small_polys, b=small_polys, c=small_polys)
    def test_ring_axioms(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    def test_eval_scalar(self):
        p = poly([1, 2, 3])  # 1 + 2t + 3t^2
        assert p.eval_scalar(QQ.of(2)) == Fraction(17)

    def test_derivative(self):
        p = poly([5, 1, 0, 2])
        assert p.derivative() == poly([1, 0, 6])

    @given(a=small_polys, b=small_polys)
    @settings(max_examples=60)
    def test_gcd_divides_both(self, a, b):
        g = poly_gcd(a, b)
        if a.is_zero() and b.is_zero():
            assert g.is_zero()
            return
        assert (a % g).is_zero()
        assert (b % g).is_zero()
        assert g.leading() == QQ.one  # monic normalization

    @pytest.mark.parametrize("polys", [small_polys, small_f5_polys], ids=["QQ", "F5"])
    @given(data=st.data())
    @settings(max_examples=60)
    def test_gcd_is_greatest(self, polys, data):
        # maximality: a common factor c of both inputs divides their gcd
        a, b, c = data.draw(polys), data.draw(polys), data.draw(polys)
        assume(not c.is_zero() and not (a.is_zero() and b.is_zero()))
        g = poly_gcd(a * c, b * c)
        assert ((a * c) % g).is_zero() and ((b * c) % g).is_zero()
        assert (g % c.monic()).is_zero()

    def test_gcd_known_factorization(self):
        # (t-1)(t-2) and (t-1)(t-3) share exactly (t-1)
        a = poly([2, -3, 1])
        b = poly([3, -4, 1])
        assert poly_gcd(a, b) == poly([-1, 1])

    def test_gcd_over_prime_field(self):
        # t^2 + 1 = (t+2)(t+3) over F5; shares t+2 with t+2
        a = UniPoly(F5, [F5.one, F5.zero, F5.one])
        b = UniPoly(F5, [F5.of(2), F5.one])
        assert poly_gcd(a, b) == b.monic()

    def test_squarefree_part(self):
        # (t-1)^2 (t+2) has a repeated factor
        sq = poly([-1, 1]) * poly([-1, 1]) * poly([2, 1])
        assert not is_squarefree(sq)
        assert is_squarefree(poly([-1, 0, 1]))

    def test_squarefree_char_p_pth_power(self):
        # t^5 over F5 has a zero derivative, so gcd(q, q') = q.monic()
        t = UniPoly.t(F5)
        q = t * t * t * t * t
        assert not is_squarefree(q)


class TestRadical:
    """poly_radical is the monic squarefree divisor of f that f divides a
    power of: the product of its distinct irreducible factors, also those
    whose multiplicity the characteristic divides."""

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3), F5])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_characterizing_properties(self, field, data):
        coeff = st.integers(-3, 3).map(field.of)
        f = UniPoly.one(field)
        for _ in range(data.draw(st.integers(1, 3))):
            g = UniPoly(field, data.draw(st.lists(coeff, min_size=2, max_size=3)))
            assume(g.degree >= 1)
            for _ in range(data.draw(st.integers(1, 6))):
                f = f * g
        r = poly_radical(f)
        assert r.leading() == field.one and is_squarefree(r)
        assert (f % r).is_zero()
        power = UniPoly.one(field)
        for _ in range(f.degree):
            power = power * r
        assert (power % f).is_zero()

    def test_multiplicity_divisible_by_p(self):
        F3 = GF(3)
        t = UniPoly.t(F3)
        one = UniPoly.one(F3)
        cube = lambda g: g * g * g
        # t^3: zero derivative, the radical of its cube root t
        assert poly_radical(cube(t)) == t
        # t^3 (t + 1): t divides gcd(f, f') = t^3 as often as f
        assert poly_radical(cube(t) * (t + one)) == t * (t + one)
        # (t^2 + 1)^3 (t^2 + 1 is irreducible over F3)
        assert poly_radical(cube(t * t + one)) == t * t + one
        # (t + 1)^6 (t - 1)
        assert poly_radical(cube(t + one) * cube(t + one) * (t - one)) == (t + one) * (t - one)

    def test_rational(self):
        assert poly_radical(poly([-1, 1]) * poly([-1, 1]) * poly([2, 1])) == poly([-1, 1]) * poly([2, 1])
        assert poly_radical(poly([5])) == UniPoly.one(QQ)


# -- multivariate polynomials ----------------------------------------------

points3 = st.tuples(rationals, rationals, rationals)


class TestMultiPoly:
    def build(self):
        x = MultiPoly.variable(QQ, 3, 0)
        y = MultiPoly.variable(QQ, 3, 1)
        z = MultiPoly.variable(QQ, 3, 2)
        return x, y, z

    @given(p=points3)
    def test_eval_is_a_homomorphism(self, p):
        x, y, z = self.build()
        f = x * x + y.scale(QQ.of(3)) - z * x
        g = z * z - x + MultiPoly.const(QQ, 3, QQ.of(7))
        assert (f * g).eval(p) == f.eval(p) * g.eval(p)
        assert (f + g).eval(p) == f.eval(p) + g.eval(p)

    def test_homogeneous_detection(self):
        x, y, z = self.build()
        quad = x * x + y * z
        assert quad.is_homogeneous(2)
        assert not (quad + x).is_homogeneous()
        assert quad.total_degree() == 2

    def test_zero_and_const(self):
        z3 = MultiPoly.zero(QQ, 3)
        assert z3.is_zero()
        assert z3.eval((QQ.zero,) * 3) == QQ.zero

    @given(p=points3)
    def test_scaling(self, p):
        x, y, _ = self.build()
        f = x * y
        assert f.scale(QQ.of(-2)).eval(p) == QQ.of(-2) * f.eval(p)


class TestForeignScalars:
    """``field.of`` is the one door for a scalar: a polynomial refuses a
    scalar of another field, wherever it is handed one."""

    @pytest.mark.parametrize("field,entry", [(QQ, Fp(1, 5)), (QQ, 1.0), (F5, Fraction(1, 2)), (F5, Fp(1, 7))])
    def test_unipoly(self, field, entry):
        with pytest.raises(TypeError):
            UniPoly(field, [entry])
        with pytest.raises(TypeError):
            UniPoly.one(field).scale(entry)
        with pytest.raises(TypeError):
            UniPoly.t(field).eval_scalar(entry)

    @pytest.mark.parametrize("field,entry", [(F5, Fraction(1, 2)), (F5, Fp(1, 7)), (QQ, Fp(1, 5)), (QQ, 0.5)])
    def test_multipoly(self, field, entry):
        with pytest.raises(TypeError):
            MultiPoly(field, 1, {(1,): entry})
        with pytest.raises(TypeError):
            MultiPoly.variable(field, 1, 0).scale(entry)
        with pytest.raises(TypeError):
            MultiPoly.variable(field, 1, 0).eval((entry,))
