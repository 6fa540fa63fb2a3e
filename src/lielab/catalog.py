"""Constructors for the standard algebras and the table enumerator.

Matrix families (sl, gl, psl, pgl, strictly upper triangular) get their
structure constants computed from actual matrix commutators rather than
hard-coded tables; quotient families (psl, pgl) reuse the generic
quotient construction with the scalar line spelled out in the chosen
basis.  Quaternion algebras carry their (a, b) parameters and the norm
form; su2q is the trace-zero quaternion bracket table over the
rationals, recorded directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .algebra import AssocAlgebra, LieAlgebra, StructureError, quotient
from .budgets import ENUMERATION_CAP, EXHAUSTIVE_CAP, BudgetExceeded
from .fields import Field, QQ, Scalar
from .linalg import Matrix, Subspace, Vector
from .verdict import Verdict, _recheck


# ---------------------------------------------------------------------------
# matrix families


def _matrix_lie_algebra(field: Field, mats: Sequence[Matrix], labels: Sequence[str]) -> LieAlgebra:
    """Lie algebra spanned by independent matrices, under the commutator."""
    if not mats:
        return LieAlgebra(field, (), {})
    size = mats[0].m

    def flat(m: Matrix) -> Vector:
        return tuple(c for row in m.rows for c in row)

    basis_cols = Matrix.from_columns(field, [flat(m) for m in mats], size * size)
    table: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            comm = mats[i] * mats[j] - mats[j] * mats[i]
            coords = basis_cols.solve(flat(comm))
            if coords is None:
                raise StructureError("commutator escaped the matrix span")
            entry = {k: c for k, c in enumerate(coords) if c}
            if entry:
                table[(i, j)] = entry
    return LieAlgebra(field, labels, table)


def _unit_matrix(field: Field, size: int, r: int, c: int) -> Matrix:
    rows = [[field.zero] * size for _ in range(size)]
    rows[r][c] = field.one
    return Matrix(field, rows, ncols=size)


def gl(field: Field, n: int) -> LieAlgebra:
    """All n x n matrices; basis E_ij in row-major order."""
    if n < 1:
        raise ValueError("gl needs n >= 1")
    mats, labels = [], []
    for r in range(n):
        for c in range(n):
            mats.append(_unit_matrix(field, n, r, c))
            labels.append(f"E{r + 1}{c + 1}")
    return _matrix_lie_algebra(field, mats, labels)


def sl(field: Field, n: int) -> LieAlgebra:
    """Traceless n x n matrices.

    Basis order: (e, h, f) for n = 2; for larger n the E_ij above the
    diagonal (row-major), then H_k = E_kk - E_(k+1)(k+1), then the E_ij
    below the diagonal (row-major).
    """
    if n < 2:
        raise ValueError("sl needs n >= 2")
    if n == 2:
        e = _unit_matrix(field, 2, 0, 1)
        f = _unit_matrix(field, 2, 1, 0)
        h = _unit_matrix(field, 2, 0, 0) - _unit_matrix(field, 2, 1, 1)
        return _matrix_lie_algebra(field, [e, h, f], ("e", "h", "f"))
    mats, labels = [], []
    for r in range(n):
        for c in range(r + 1, n):
            mats.append(_unit_matrix(field, n, r, c))
            labels.append(f"E{r + 1}{c + 1}")
    for k in range(n - 1):
        mats.append(_unit_matrix(field, n, k, k) - _unit_matrix(field, n, k + 1, k + 1))
        labels.append(f"H{k + 1}")
    for r in range(n):
        for c in range(r):
            mats.append(_unit_matrix(field, n, r, c))
            labels.append(f"E{r + 1}{c + 1}")
    return _matrix_lie_algebra(field, mats, labels)


def strict_upper(field: Field, n: int) -> LieAlgebra:
    """Strictly upper triangular n x n matrices (nilpotent of class n-1)."""
    if n < 2:
        raise ValueError("strict_upper needs n >= 2")
    mats, labels = [], []
    for r in range(n):
        for c in range(r + 1, n):
            mats.append(_unit_matrix(field, n, r, c))
            labels.append(f"E{r + 1}{c + 1}")
    return _matrix_lie_algebra(field, mats, labels)


def _identity_coords_in_sl(field: Field, n: int) -> Vector:
    """The identity matrix expressed in the sl(n) basis (only possible
    when the characteristic divides n): E = sum k * H_k."""
    dim = n * n - 1
    coords = [field.zero] * dim
    upper = n * (n - 1) // 2
    for k in range(n - 1):
        coords[upper + k] = field.of(k + 1)
    return tuple(coords)


def psl(field: Field, n: int) -> LieAlgebra:
    """sl(n) modulo the scalar line; needs char p with p | n."""
    if field.kind != "Fp" or n % field.p != 0:
        raise ValueError("psl(n) needs a finite field whose characteristic divides n")
    base = sl(field, n)
    line = Subspace.from_vectors(field, base.dim, [_identity_coords_in_sl(field, n)])
    return quotient(base, line)


def pgl(field: Field, n: int) -> LieAlgebra:
    """gl(n) modulo the scalar line; needs char p with p | n."""
    if field.kind != "Fp" or n % field.p != 0:
        raise ValueError("pgl(n) needs a finite field whose characteristic divides n")
    base = gl(field, n)
    ident = [field.zero] * (n * n)
    for k in range(n):
        ident[k * n + k] = field.one
    line = Subspace.from_vectors(field, base.dim, [tuple(ident)])
    return quotient(base, line)


def sl_image_in_pgl(field: Field, n: int) -> Subspace:
    """The coset image of the traceless matrices inside pgl(n)'s coordinates."""
    if field.kind != "Fp" or n % field.p != 0:
        raise ValueError("requires a finite field whose characteristic divides n")
    base = gl(field, n)
    ident = [field.zero] * (n * n)
    for k in range(n):
        ident[k * n + k] = field.one
    line = Subspace.from_vectors(field, base.dim, [tuple(ident)])
    reps = line.complement_indices()
    vecs = []
    for r in range(n):
        for c in range(n):
            if r == c and r < n - 1:
                tr0 = [field.zero] * (n * n)
                tr0[r * n + r] = field.one
                tr0[(n - 1) * n + (n - 1)] = -field.one
                vec = tuple(tr0)
            elif r == c:
                continue
            else:
                vec = tuple(
                    field.one if (a, b) == (r, c) else field.zero
                    for a in range(n)
                    for b in range(n)
                )
            reduced = line.reduce(vec)
            vecs.append(tuple(reduced[t] for t in reps))
    return Subspace.from_vectors(field, len(reps), vecs)


# ---------------------------------------------------------------------------
# small named algebras


def abelian(field: Field, n: int) -> LieAlgebra:
    return LieAlgebra(field, tuple(f"a{i + 1}" for i in range(n)), {})


def heisenberg(field: Field, m: int) -> LieAlgebra:
    """Dimension 2m + 1: [x_i, y_i] = z, all else zero."""
    if m < 1:
        raise ValueError("heisenberg needs m >= 1")
    labels = tuple(f"x{i + 1}" for i in range(m)) + tuple(f"y{i + 1}" for i in range(m)) + ("z",)
    table = {(i, m + i): {2 * m: 1} for i in range(m)}
    return LieAlgebra(field, labels, table)


def r2(field: Field) -> LieAlgebra:
    """The nonabelian 2-dimensional algebra [x, y] = y."""
    return LieAlgebra(field, ("x", "y"), {(0, 1): {1: 1}})


def su2q(field: Field = QQ) -> LieAlgebra:
    """Trace-zero quaternions for a = b = -1 over the rationals:
    [i,j] = 2k, [j,k] = 2i, [k,i] = 2j."""
    if field != QQ:
        raise ValueError("su2q is defined over the rationals")
    return LieAlgebra(QQ, ("i", "j", "k"), {(0, 1): {2: 2}, (0, 2): {1: -2}, (1, 2): {0: 2}})


def on(field: Field, n: int) -> AssocAlgebra:
    """Reduced polynomial algebra: K[x_1..x_n] with every x_i^p = 0.

    Basis: monomials with exponents below p, in degree-lexicographic
    order.  Commutative with unit 1; dimension p^n.
    """
    if field.kind != "Fp":
        raise ValueError("the reduced polynomial algebra lives over a finite field")
    p = field.p
    if p**n > 512:
        raise BudgetExceeded(f"reduced polynomial algebra of dimension {p ** n} refused")
    exps = sorted(iproduct(range(p), repeat=n), key=lambda e: (sum(e), e))
    index = {e: i for i, e in enumerate(exps)}

    def label(e: Tuple[int, ...]) -> str:
        if not any(e):
            return "1"
        parts = []
        for i, k in enumerate(e):
            if k == 1:
                parts.append(f"x{i + 1}")
            elif k > 1:
                parts.append(f"x{i + 1}^{k}")
        return "*".join(parts)

    table: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    for ia, ea in enumerate(exps):
        for ib, eb in enumerate(exps):
            prod = tuple(x + y for x, y in zip(ea, eb))
            if all(v < p for v in prod):
                table[(ia, ib)] = {index[prod]: field.one}
    unit = [field.zero] * len(exps)
    unit[index[(0,) * n]] = field.one
    return AssocAlgebra(field, tuple(label(e) for e in exps), table, unit)


# ---------------------------------------------------------------------------
# quaternions


class QuaternionAlgebra:
    """The 4-dimensional algebra with i^2 = a, j^2 = b, ij = k = -ji.

    The remaining products follow by associativity (ik = aj, ki = -aj,
    jk = -bi, kj = bi, k^2 = -ab).  Nonzero a, b and odd characteristic
    are required for the algebra to be central simple.
    """

    __slots__ = ("field", "a", "b", "assoc")

    def __init__(self, field: Field, a, b):
        a = field.of(a)
        b = field.of(b)
        if field.kind == "Fp" and field.p == 2:
            raise ValueError("quaternion tables need odd characteristic")
        if not a or not b:
            raise ValueError("quaternion parameters must be nonzero")
        self.field = field
        self.a = a
        self.b = b
        one = field.one
        table = {
            (0, 0): {0: one},
            (0, 1): {1: one},
            (0, 2): {2: one},
            (0, 3): {3: one},
            (1, 0): {1: one},
            (2, 0): {2: one},
            (3, 0): {3: one},
            (1, 1): {0: a},
            (2, 2): {0: b},
            (3, 3): {0: -(a * b)},
            (1, 2): {3: one},
            (2, 1): {3: -one},
            (1, 3): {2: a},
            (3, 1): {2: -a},
            (2, 3): {1: -b},
            (3, 2): {1: b},
        }
        self.assoc = AssocAlgebra(field, ("1", "i", "j", "k"), table, (1, 0, 0, 0))

    def multiply(self, x: Sequence, y: Sequence) -> Vector:
        return self.assoc.multiply(x, y)

    def conjugate(self, x: Sequence) -> Vector:
        x = tuple(self.field.of(c) for c in x)
        return (x[0], -x[1], -x[2], -x[3])

    def norm(self, x: Sequence) -> Scalar:
        """x0^2 - a x1^2 - b x2^2 + ab x3^2 = x * conjugate(x)."""
        x = tuple(self.field.of(c) for c in x)
        return x[0] * x[0] - self.a * x[1] * x[1] - self.b * x[2] * x[2] + self.a * self.b * x[3] * x[3]

    def __repr__(self) -> str:
        return f"QuaternionAlgebra(a={self.a}, b={self.b} over {self.field!r})"


def reduced_trace(Q: QuaternionAlgebra, x: Sequence) -> Scalar:
    """Twice the coefficient of 1 (trace after splitting the algebra;
    equals half the trace of left multiplication)."""
    return Q.field.of(x[0]) * Q.field.of(2)


def minus_algebra(A: AssocAlgebra) -> LieAlgebra:
    """Same space, bracket [x, y] = xy - yx."""
    table: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    for i in range(A.dim):
        for j in range(i + 1, A.dim):
            fwd = A.basis_product(i, j)
            bwd = A.basis_product(j, i)
            entry = {k: fwd[k] - bwd[k] for k in range(A.dim) if fwd[k] - bwd[k]}
            if entry:
                table[(i, j)] = entry
    return LieAlgebra(A.field, A.labels, table)


def quotient_by_unit_line(A: AssocAlgebra) -> LieAlgebra:
    """Minus algebra modulo the span of the unit (always central there)."""
    minus = minus_algebra(A)
    line = Subspace.from_vectors(A.field, A.dim, [A.unit])
    if not minus.center().contains_subspace(line):
        raise StructureError("unit line is not central in the minus algebra")
    return quotient(minus, line)


def _is_rational_square(c) -> bool:
    if c < 0:
        return False
    num, den = c.numerator, c.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    return rn * rn == num and rd * rd == den


def is_division(Q: QuaternionAlgebra, mode: str = "certificate") -> Verdict:
    """Has the algebra no zero divisors?

    certificate (rationals): a < 0 and b < 0 make the norm form
    definite, so nonzero elements have nonzero norm and invert via the
    conjugate; a square parameter yields an explicit zero divisor; other
    sign patterns are Inconclusive.  exhaustive (finite fields): scan
    for a norm-zero element; its product with the conjugate vanishes.
    """
    if mode == "certificate":
        if Q.field.kind != "Q":
            raise ValueError("the definiteness certificate needs the rationals")
        if Q.a < 0 and Q.b < 0:
            return Verdict.certified(
                "definite-quadratic-form",
                norm_diagonal=[Q.field.to_str(c) for c in (Q.field.one, -Q.a, -Q.b, Q.a * Q.b)],
            )
        for param, unit_index in ((Q.a, 1), (Q.b, 2)):
            if _is_rational_square(param):
                # param = s^2 gives (s - u)(s + u) = s^2 - u^2 = 0 for the
                # corresponding imaginary unit u.
                root = Fraction(math.isqrt(param.numerator), math.isqrt(param.denominator))
                u = [root, 0, 0, 0]
                u[unit_index] = Q.field.of(-1)
                v = [root, 0, 0, 0]
                v[unit_index] = Q.field.of(1)
                u = tuple(Q.field.of(c) for c in u)
                v = tuple(Q.field.of(c) for c in v)
                prod = Q.multiply(u, v)
                _recheck(not any(prod), "zero-divisor recheck failed")
                return Verdict.refuted((u, v), reason="square-parameter")
        return Verdict.inconclusive(reason="indefinite-norm-form-undecided")
    if mode == "exhaustive":
        if Q.field.kind != "Fp":
            raise ValueError("exhaustive scan needs a finite field")
        p = Q.field.p
        if p**4 > EXHAUSTIVE_CAP:
            raise BudgetExceeded(f"{p ** 4} quaternions exceed the cap")
        scanned = 0
        for x in iproduct(tuple(Q.field.elements()), repeat=4):
            if not any(x):
                continue
            scanned += 1
            if not Q.norm(x):
                xb = Q.conjugate(x)  # nonzero whenever x is
                prod = Q.multiply(x, xb)
                _recheck(not any(prod), "zero-divisor recheck failed")
                return Verdict.refuted((x, xb), scanned=scanned)
        return Verdict.certified("exhaustive", scanned=scanned)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# registry


def _tensor_sl2_o1_f3() -> LieAlgebra:
    from .algebra import tensor_commutative
    from .fields import GF

    F3 = GF(3)
    return tensor_commutative(sl(F3, 2), on(F3, 1))


_BUILDERS: Dict[str, Callable[..., Union[LieAlgebra, AssocAlgebra]]] = {}


def _register(name):
    def wrap(fn):
        _BUILDERS[name] = fn
        return fn

    return wrap


_register("abelian")(lambda field, n=3: abelian(field, n))
_register("heisenberg")(lambda field, n=1: heisenberg(field, n))
_register("r2")(lambda field: r2(field))
_register("sl")(lambda field, n=2: sl(field, n))
_register("gl")(lambda field, n=2: gl(field, n))
_register("psl")(lambda field, n: psl(field, n))
_register("pgl")(lambda field, n: pgl(field, n))
_register("su2q")(lambda field=QQ: su2q(field))
_register("on")(lambda field, n=1: on(field, n))
_register("strict_upper")(lambda field, n=4: strict_upper(field, n))
_register("sl2_o1_f3")(lambda field=None: _tensor_sl2_o1_f3())


CATALOG_HELP = {
    "abelian": "zero bracket; params: n (dimension), field",
    "heisenberg": "[x_i, y_i] = z, dimension 2n+1; params: n, field",
    "r2": "[x, y] = y; params: field",
    "sl": "traceless n x n matrices; params: n, field",
    "gl": "all n x n matrices; params: n, field",
    "psl": "sl(n) mod scalars; params: n, field F_p with p | n",
    "pgl": "gl(n) mod scalars; params: n, field F_p with p | n",
    "su2q": "trace-zero quaternions (a=b=-1) over the rationals",
    "on": "reduced polynomial algebra K[x_1..x_n]/(x_i^p), associative; params: n, field F_p",
    "strict_upper": "strictly upper triangular n x n matrices; params: n, field",
    "sl2_o1_f3": "sl(2) over F_3 tensored with the 1-variable reduced polynomial algebra (dim 9)",
}


def catalog_names() -> List[str]:
    return sorted(_BUILDERS)


def make(name: str, field: Optional[Field] = None, **params) -> Union[LieAlgebra, AssocAlgebra]:
    """Build a named catalog algebra; `field` defaults to the rationals
    where the family is field-generic."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown catalog name {name!r}; try: {', '.join(catalog_names())}")
    builder = _BUILDERS[name]
    if name == "su2q":
        return builder(field if field is not None else QQ)
    if name == "sl2_o1_f3":
        return builder()
    if field is None:
        field = QQ
    return builder(field, **params)


# ---------------------------------------------------------------------------
# enumeration


@dataclass
class EnumTable:
    """One raw structure-constant assignment from the enumerator."""

    dim: int
    field: Field
    coeffs: Tuple[Scalar, ...]
    jacobi_ok: bool

    def algebra(self) -> LieAlgebra:
        """The algebra, built without re-validating Jacobi."""
        table: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
        pos = 0
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                entry = {}
                for k in range(self.dim):
                    c = self.coeffs[pos]
                    pos += 1
                    if c:
                        entry[k] = c
                if entry:
                    table[(i, j)] = entry
        labels = tuple(f"b{t + 1}" for t in range(self.dim))
        return LieAlgebra.unchecked(self.field, labels, table)


def enumerate_tables(dim: int, field: Field) -> Iterator[EnumTable]:
    """All coefficient assignments for the given dimension, in
    lexicographic order over the field's elements, each flagged with the
    outcome of the Jacobi check."""
    if field.kind != "Fp":
        raise ValueError("table enumeration runs over finite fields")
    ncoeffs = dim * (dim * (dim - 1) // 2)
    total = field.p**ncoeffs
    if total > ENUMERATION_CAP:
        raise BudgetExceeded(f"{total} tables exceed the enumeration cap {ENUMERATION_CAP}")
    elements = tuple(field.of(r) for r in range(field.p))
    for combo in iproduct(elements, repeat=ncoeffs):
        t = EnumTable(dim, field, combo, False)
        alg = t.algebra()
        t.jacobi_ok = not alg.jacobi_violations()
        yield t


def canonical_instances() -> List[Tuple[str, LieAlgebra]]:
    """The fixed cross-field instance list used by invariant sweeps."""
    from .fields import GF

    F3, F5 = GF(3), GF(5)
    return [
        ("abelian3@Q", abelian(QQ, 3)),
        ("heisenberg1@Q", heisenberg(QQ, 1)),
        ("heisenberg2@Q", heisenberg(QQ, 2)),
        ("r2@Q", r2(QQ)),
        ("r2@F3", r2(F3)),
        ("sl2@Q", sl(QQ, 2)),
        ("sl2@F5", sl(F5, 2)),
        ("gl2@Q", gl(QQ, 2)),
        ("su2q", su2q()),
        ("strict_upper4@Q", strict_upper(QQ, 4)),
        ("psl3@F3", psl(F3, 3)),
        ("pgl3@F3", pgl(F3, 3)),
    ]
