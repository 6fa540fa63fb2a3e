"""Exact scalars over Q and F_p, plus univariate and sparse multivariate
polynomials built on them.

Rational scalars are plain ``fractions.Fraction`` values: the stdlib type
already keeps them in lowest terms with a positive denominator, which is
exactly the canonical form the wire format wants.  Prime field scalars are
``Fp`` instances that carry their modulus.  Mixing an Fp with a Fraction,
or two Fp values with different moduli, raises TypeError; plain ints
coerce into either field so that tables and matrices can be written with
integer literals.  ``field.of`` is the one door for a scalar from outside:
it takes an int or the field's own scalar and refuses anything else, so
every container (polynomial, vector, table) calls it on what it is given.

A "field" in this package is a small descriptor object (RationalField or
PrimeField) used for construction, parsing, printing and enumeration of
scalars.  It is threaded through every matrix, polynomial and algebra.

``Fp`` objects and Fractions are the scalars of the public API, not of
the inner loops.  Linear algebra and the algebra primitives (elimination,
products, characteristic polynomials, ad, brackets, Jacobi, ideal
closure) run on kernel scalars: over Q a plain int where the value is
integral and a Fraction only where its denominator is > 1, over F_p
plain ints in [0, p).  An integer table over Q so eliminates, multiplies
and brackets on machine ints until a real division happens.  ``_to_k`` is
the way into that kernel (``_rows_to_k`` for a whole matrix in one
call), ``_from_k`` the way out and ``_k_zero`` its zero, for both
fields.  The two ways also normalize, so kernel code may leave unreduced
ints (or, over Q, Fractions of denominator 1) for them to bring back to
canonical form; over Q ``_from_k`` refuses anything but an int or a
Fraction, so a float from a division cannot pass as a rational.  Field
scalars (``rows``, ``table``, vectors, JSON) stay Fractions.  An Fp or a
Fraction is built only where a result leaves the kernel: a row read from
a Matrix or Subspace, a returned vector or scalar, a UniPoly
coefficient.  The polynomial classes below still compute with field
scalars.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple, Union

Scalar = Union[Fraction, "Fp"]


class Fp:
    """An element of the prime field F_p, stored as a reduced residue."""

    __slots__ = ("r", "p")

    def __init__(self, r: int, p: int):
        self.r = r % p
        self.p = p

    def _check(self, other: "Fp") -> None:
        if self.p != other.p:
            raise TypeError(f"cannot mix F_{self.p} and F_{other.p} scalars")

    def __add__(self, other):
        if isinstance(other, Fp):
            self._check(other)
            return Fp(self.r + other.r, self.p)
        if isinstance(other, int):
            return Fp(self.r + other, self.p)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Fp):
            self._check(other)
            return Fp(self.r - other.r, self.p)
        if isinstance(other, int):
            return Fp(self.r - other, self.p)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return Fp(other - self.r, self.p)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Fp):
            self._check(other)
            return Fp(self.r * other.r, self.p)
        if isinstance(other, int):
            return Fp(self.r * other, self.p)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Fp):
            self._check(other)
            return self * other.inverse()
        if isinstance(other, int):
            return self * Fp(other, self.p).inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, int):
            return Fp(other, self.p) * self.inverse()
        return NotImplemented

    def __neg__(self):
        return Fp(-self.r, self.p)

    def __pow__(self, k: int):
        return Fp(pow(self.r, k, self.p), self.p)

    def inverse(self) -> "Fp":
        if self.r == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Fp(pow(self.r, self.p - 2, self.p), self.p)

    def __bool__(self) -> bool:
        return self.r != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, Fp):
            return self.p == other.p and self.r == other.r
        if isinstance(other, int):
            return self.r == other % self.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.r, self.p))

    def __repr__(self) -> str:
        return f"Fp({self.r}, {self.p})"

    def __str__(self) -> str:
        return str(self.r)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class RationalField:
    """Descriptor for Q.  A single shared instance lives in ``QQ``."""

    kind = "Q"
    char = 0
    _k_zero = 0

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def of(self, n) -> Fraction:
        if isinstance(n, Fraction):
            return n
        if isinstance(n, int):
            return Fraction(n)
        raise TypeError(f"cannot coerce {n!r} into Q")

    def parse(self, s: str) -> Fraction:
        t = s.strip()
        try:
            # lielab writes n or n/d; Fraction would expand an exponent such
            # as 1e10000000 into a huge integer before anything could refuse it
            if "e" in t or "E" in t:
                raise ValueError("exponent notation")
            return Fraction(t)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational scalar: {s!r}") from exc

    def to_str(self, x: Fraction) -> str:
        return str(x)

    def contains(self, x) -> bool:
        return isinstance(x, Fraction)

    def _to_k(self, v: Sequence) -> List[Union[int, Fraction]]:
        """Kernel scalars over Q: an int kept as it is, a Fraction of
        denominator 1 turned into its numerator, other Fractions kept."""
        canon = self._canon
        return [c if type(c) is int else canon(c) for c in v]

    def _rows_to_k(self, rows: Sequence[Sequence]) -> Tuple[Tuple[Union[int, Fraction], ...], ...]:
        """``_to_k`` of each row, as tuples."""
        canon = self._canon
        return tuple([tuple([c if type(c) is int else canon(c) for c in r]) for r in rows])

    def _canon(self, c) -> Union[int, Fraction]:
        """The kernel scalar of anything but a plain int, through ``of``,
        which refuses what is not a rational scalar."""
        if type(c) is not Fraction:
            c = self.of(c)
        return c.numerator if c.denominator == 1 else c

    def _from_k(self, v: Sequence) -> Tuple[Fraction, ...]:
        """Fractions for kernel scalars: the way out of the kernel.  Only an
        int or a Fraction is one, so a float from a missed division fails
        here instead of passing as a wrong answer."""
        return tuple(Fraction(c) if type(c) is int else c if type(c) is Fraction else self._refuse(c) for c in v)

    @staticmethod
    def _refuse(c):
        raise TypeError(f"{c!r} is not a kernel scalar over Q")

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("Q")

    def __repr__(self) -> str:
        return "QQ"


class PrimeField:
    """Descriptor for F_p with p prime, p < 2**31."""

    kind = "Fp"
    _k_zero = 0

    def __init__(self, p: int):
        # the bound first: trial division of a huge modulus runs for minutes
        if isinstance(p, int) and p >= 2**31:
            raise ValueError(f"modulus too large: {p}")
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"modulus must be prime, got {p!r}")
        self.p = p
        self.char = p

    @property
    def zero(self) -> Fp:
        return Fp(0, self.p)

    @property
    def one(self) -> Fp:
        return Fp(1, self.p)

    def of(self, n) -> Fp:
        if isinstance(n, Fp):
            if n.p != self.p:
                raise TypeError(f"scalar from F_{n.p} used in F_{self.p}")
            return n
        if isinstance(n, int):
            return Fp(n, self.p)
        raise TypeError(f"cannot coerce {n!r} into F_{self.p}")

    def parse(self, s: str) -> Fp:
        try:
            return Fp(int(s.strip()), self.p)
        except ValueError as exc:
            raise ValueError(f"not an F_{self.p} scalar: {s!r}") from exc

    def _to_k(self, v: Sequence) -> List[int]:
        """Residues in [0, p) of F_p scalars or ints: the way into the kernel."""
        p = self.p
        return [
            c % p if type(c) is int else c.r if type(c) is Fp and c.p == p else self._residue(c)
            for c in v
        ]

    def _rows_to_k(self, rows: Sequence[Sequence]) -> Tuple[Tuple[int, ...], ...]:
        """``_to_k`` of each row, as tuples."""
        p = self.p
        residue = self._residue
        return tuple([
            tuple([c % p if type(c) is int else c.r if type(c) is Fp and c.p == p else residue(c) for c in r])
            for r in rows
        ])

    def _residue(self, c) -> int:
        if isinstance(c, Fp):
            raise TypeError(f"scalar from F_{c.p} used in F_{self.p}")
        if isinstance(c, int):
            return c % self.p
        raise TypeError(f"cannot coerce {c!r} into F_{self.p}")

    def _from_k(self, rs: Sequence[int]) -> Tuple[Fp, ...]:
        """Fp scalars for residues: the way out of the kernel."""
        p = self.p
        return tuple(Fp(r, p) for r in rs)

    def to_str(self, x: Fp) -> str:
        return str(x.r)

    def contains(self, x) -> bool:
        return isinstance(x, Fp) and x.p == self.p

    def elements(self) -> Iterator[Fp]:
        for r in range(self.p):
            yield Fp(r, self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Fp", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


Field = Union[RationalField, PrimeField]

QQ = RationalField()

_GF_CACHE: Dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _GF_CACHE:
        _GF_CACHE[p] = PrimeField(p)
    return _GF_CACHE[p]


def field_to_json(field: Field) -> dict:
    if field.kind == "Q":
        return {"kind": "Q"}
    return {"kind": "Fp", "p": field.p}


def field_from_json(obj) -> Field:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"bad field descriptor: {obj!r}")
    if obj["kind"] == "Q":
        return QQ
    if obj["kind"] == "Fp":
        if "p" not in obj or not isinstance(obj["p"], int):
            raise ValueError(f"bad field descriptor: {obj!r}")
        return GF(obj["p"])
    raise ValueError(f"unknown field kind: {obj['kind']!r}")


def common_denominator(cs: Iterable[Fraction]) -> int:
    """Least common multiple of the denominators of some Fractions; 1 for none."""
    return math.lcm(*(c.denominator for c in cs))


# ---------------------------------------------------------------------------
# univariate polynomials


def _join_terms(field: Field, terms: Iterable[Tuple[Scalar, str]]) -> str:
    """The sum of (coefficient, monomial) terms in the order given, zero
    coefficients left out: the monomial alone for 1, negated for -1, the
    coefficient alone for the empty monomial, a minus sign written as the
    joiner " - "; "0" when no term is left."""
    out = ""
    for c, monom in terms:
        if not c:
            continue
        part = field.to_str(c)
        if monom:
            part = monom if part == "1" else f"-{monom}" if part == "-1" else f"{part}*{monom}"
        if not out:
            out = part
        elif part.startswith("-"):
            out += f" - {part[1:]}"
        else:
            out += f" + {part}"
    return out or "0"


class UniPoly:
    """Dense univariate polynomial over a fixed field.

    Coefficients are stored ascending (coeffs[i] is the t^i coefficient)
    with no trailing zeros; the zero polynomial has an empty tuple and
    degree -1.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence):
        cs = [field.of(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field: Field) -> "UniPoly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "UniPoly":
        return cls(field, (1,))

    @classmethod
    def t(cls, field: Field) -> "UniPoly":
        return cls(field, (0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def _same_field(self, other: "UniPoly") -> None:
        if self.field != other.field:
            raise TypeError("polynomials over different fields")

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._same_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.field, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        self._same_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.field, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self) -> "UniPoly":
        return UniPoly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        self._same_field(other)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return UniPoly(self.field, out)

    def scale(self, s) -> "UniPoly":
        s = self.field.of(s)
        return UniPoly(self.field, [c * s for c in self.coeffs])

    def divmod(self, other: "UniPoly") -> Tuple["UniPoly", "UniPoly"]:
        self._same_field(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly.zero(self.field), self
        inv_lead = self.field.one / other.leading()
        quot = [self.field.zero] * (dq + 1)
        for k in range(dq, -1, -1):
            top = rem[k + other.degree]
            if not top:
                continue
            q = top * inv_lead
            quot[k] = q
            for i, b in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - q * b
        return UniPoly(self.field, quot), UniPoly(self.field, rem)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self.scale(self.field.one / self.leading())

    def derivative(self) -> "UniPoly":
        return UniPoly(self.field, [self.coeffs[i] * i for i in range(1, len(self.coeffs))])

    def eval_scalar(self, a):
        a = self.field.of(a)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UniPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        return f"UniPoly({self.field!r}, {list(self.coeffs)!r})"

    def __str__(self) -> str:
        powers = ("" if i == 0 else "t" if i == 1 else f"t^{i}" for i in range(self.degree, -1, -1))
        return _join_terms(self.field, zip(reversed(self.coeffs), powers))


# --- gcd machinery --------------------------------------------------------


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by one Euclid loop over either field; gcd(0, 0) = 0."""
    if a.field != b.field:
        raise TypeError("gcd of polynomials over different fields")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def is_squarefree(p: UniPoly) -> bool:
    if p.is_zero():
        return False
    if p.degree == 0:
        return True
    # over F_p a zero derivative leaves gcd(p, 0) = p.monic(), of degree >= 1
    return poly_gcd(p, p.derivative()).degree == 0


def poly_radical(f: UniPoly) -> UniPoly:
    """The product of the distinct monic irreducible factors of f != 0.

    f / gcd(f, f') keeps each factor whose multiplicity the characteristic
    does not divide: over Q every factor.  Over F_p a factor of multiplicity
    divisible by p divides gcd(f, f') as often as f, so the radical is
    lcm(f / gcd(f, f'), rad gcd(f, f')); and f' = 0 means f = g(t)^p with
    g = sum c_{ip} t^i (c^p = c in F_p), which has the radical of f.
    """
    if f.degree < 1:
        return UniPoly.one(f.field)
    d = f.derivative()
    if d.is_zero():
        return poly_radical(UniPoly(f.field, f.coeffs[:: f.field.p]))
    g = poly_gcd(f, d)
    s = f // g
    if not f.field.char:
        return s.monic()
    r = poly_radical(g)
    return (s * r // poly_gcd(s, r)).monic()


# ---------------------------------------------------------------------------
# sparse multivariate polynomials


def _grlex_key(exps: Tuple[int, ...]):
    return (sum(exps), tuple(-e for e in exps))


class MultiPoly:
    """Sparse multivariate polynomial: exponent tuple -> nonzero scalar."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms: Dict[Tuple[int, ...], Scalar]):
        clean = {}
        for exps, c in terms.items():
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} has wrong arity (nvars={nvars})")
            c = field.of(c)
            if c:
                clean[tuple(exps)] = c
        self.field = field
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def zero(cls, field: Field, nvars: int) -> "MultiPoly":
        return cls(field, nvars, {})

    @classmethod
    def const(cls, field: Field, nvars: int, c) -> "MultiPoly":
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, field: Field, nvars: int, i: int) -> "MultiPoly":
        exps = [0] * nvars
        exps[i] = 1
        return cls(field, nvars, {tuple(exps): field.one})

    def is_zero(self) -> bool:
        return not self.terms

    def _same(self, other: "MultiPoly") -> None:
        if self.field != other.field or self.nvars != other.nvars:
            raise TypeError("multivariate polynomials from different rings")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._same(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = terms.get(e)
            s = c if acc is None else acc + c
            if s:
                terms[e] = s
            elif acc is not None:
                del terms[e]
        return MultiPoly(self.field, self.nvars, terms)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.field, self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._same(other)
        out: Dict[Tuple[int, ...], Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                acc = out.get(e)
                s = prod if acc is None else acc + prod
                if s:
                    out[e] = s
                elif acc is not None:
                    del out[e]
        return MultiPoly(self.field, self.nvars, out)

    def scale(self, s) -> "MultiPoly":
        s = self.field.of(s)
        return MultiPoly(self.field, self.nvars, {e: c * s for e, c in self.terms.items()})

    def eval(self, point: Sequence) -> Scalar:
        """Evaluate at a point; arity mismatch is an error."""
        if len(point) != self.nvars:
            raise ValueError(f"expected {self.nvars} coordinates, got {len(point)}")
        pt = [self.field.of(x) for x in point]
        acc = self.field.zero
        for exps, c in self.terms.items():
            term = c
            for x, e in zip(pt, exps):
                for _ in range(e):
                    term = term * x
            acc = acc + term
        return acc

    def total_degree(self) -> int:
        if self.is_zero():
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self, degree: int = None) -> bool:
        if self.is_zero():
            return True
        degs = {sum(e) for e in self.terms}
        if len(degs) > 1:
            return False
        return degree is None or degs == {degree}

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: _grlex_key(item[0]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.field, self.nvars, tuple(self.sorted_terms())))

    def __str__(self) -> str:
        terms = [
            (c, "*".join(f"x{i+1}" if e == 1 else f"x{i+1}^{e}" for i, e in enumerate(exps) if e))
            for exps, c in reversed(self.sorted_terms())
        ]
        return _join_terms(self.field, terms)

    def __repr__(self) -> str:
        return f"MultiPoly({self.field!r}, {self.nvars}, {self.terms!r})"
