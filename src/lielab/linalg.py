"""Exact dense linear algebra over Q and F_p, with one elimination kernel
per field.

Matrices are immutable lists of rows of scalars tagged with their field;
0x0 matrices are legal and show up as restrictions to the zero subspace.
Subspaces are kept in reduced row echelon form, so equality of subspaces
is equality of representations.

The field kind selects the kernel.  Over Q the kernel works on the
``Fraction`` entries themselves.  Over F_p it works on plain ints in
[0, p): every Matrix and Subspace over F_p carries its rows as residue
tuples (``_k``), elimination, products, char polys and reductions run on
those, and division is multiplication by pow(a, p - 2, p).  ``Fp`` objects
are built only when a caller reads ``rows`` (or gets a vector, a scalar or
a polynomial back), which is where a result leaves the kernel.

Characteristic polynomials come from a Hessenberg reduction (no division
by integer constants, so small characteristic is safe); over Q the matrix
is first scaled to integer entries so the reduction works on
denominator-free input.  Minimal polynomials are built by spinning Krylov
chains off the standard basis and taking lcms.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .fields import Field, Scalar, UniPoly, poly_lcm

Vector = Tuple[Scalar, ...]
Residues = Tuple[int, ...]


def vec_add(u: Sequence, v: Sequence) -> Vector:
    return tuple(a + b for a, b in zip(u, v))

def vec_sub(u: Sequence, v: Sequence) -> Vector:
    return tuple(a - b for a, b in zip(u, v))

def vec_scale(u: Sequence, s) -> Vector:
    return tuple(a * s for a in u)

def vec_is_zero(u: Sequence) -> bool:
    return not any(u)


# ---------------------------------------------------------------------------
# the F_p kernel: rows of plain ints in [0, p)


def _res_rref(rows: List[List[int]], ncols: int, p: int) -> Tuple[Tuple[Residues, ...], Tuple[int, ...]]:
    """Reduced row echelon form of residue rows; consumes the list."""
    pivots: List[int] = []
    m = len(rows)
    r = 0
    for c in range(ncols):
        if r == m:
            break
        for i in range(r, m):
            if rows[i][c]:
                break
        else:
            continue
        prow = rows[i]
        rows[i] = rows[r]
        if prow[c] != 1:
            inv = pow(prow[c], p - 2, p)
            prow = [x * inv % p for x in prow]
        rows[r] = prow
        for i in range(m):
            f = rows[i][c]
            if f and i != r:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def _res_reduce(rows: Sequence[Residues], pivots: Sequence[int], w: List[int], p: int) -> List[int]:
    """Remainder of the residue vector w modulo reduced echelon rows."""
    for row, c in zip(rows, pivots):
        f = w[c]
        if f:
            w = [(x - f * y) % p for x, y in zip(w, row)]
    return w


def _res_matmul(a: Sequence[Residues], b: Sequence[Residues], ncols: int, p: int) -> Tuple[Residues, ...]:
    out = []
    for row in a:
        acc = [0] * ncols
        for x, brow in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append(tuple(s % p for s in acc))
    return tuple(out)


def _res_apply(a: Sequence[Residues], v: Sequence[int], p: int) -> List[int]:
    return [sum(map(mul, row, v)) % p for row in a]


def _res_char_poly(mat: Sequence[Sequence[int]], p: int) -> List[int]:
    """Ascending coefficients of det(t*I - mat), a square residue matrix.

    The same Hessenberg reduction and minor recurrence as the Q kernel,
    on residues.
    """
    n = len(mat)
    h = [list(row) for row in mat]
    for c in range(n - 2):
        for r in range(c + 1, n):
            if h[r][c]:
                break
        else:
            continue
        if r != c + 1:
            h[c + 1], h[r] = h[r], h[c + 1]
            for row in h:
                row[c + 1], row[r] = row[r], row[c + 1]
        hc1 = h[c + 1]
        inv = pow(hc1[c], p - 2, p)
        for r in range(c + 2, n):
            f = h[r][c] * inv % p
            if f:
                h[r] = [(x - f * y) % p for x, y in zip(h[r], hc1)]
                for row in h:
                    row[c + 1] = (row[c + 1] + f * row[r]) % p
    # char polys of the leading principal minors of the Hessenberg form
    polys = [[1]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        d = h[m - 1][m - 1]
        poly = [0] + prev
        for i, a in enumerate(prev):
            poly[i] -= d * a
        prod = 1
        for i in range(1, m):
            prod = prod * h[m - i][m - i - 1] % p
            if not prod:
                break
            coeff = h[m - 1 - i][m - 1]
            if coeff:
                s = coeff * prod
                for k, a in enumerate(polys[m - 1 - i]):
                    poly[k] -= s * a
        polys.append([x % p for x in poly])
    return polys[n]


class Matrix:
    """Immutable exact matrix over a fixed field."""

    __slots__ = ("field", "m", "n", "__dict__")

    def __init__(self, field: Field, rows: Sequence[Sequence], ncols: Optional[int] = None):
        converted = []
        width = ncols
        for row in rows:
            r = tuple(field.of(c) if isinstance(c, int) else c for c in row)
            if width is None:
                width = len(r)
            elif len(r) != width:
                raise ValueError("ragged rows")
            converted.append(r)
        self.field = field
        self.m = len(converted)
        self.n = width if width is not None else 0
        self.rows = tuple(converted)

    @classmethod
    def _of_k(cls, field: Field, rows: Sequence[Sequence], ncols: int) -> "Matrix":
        """A matrix from rows in kernel scalars (ints are fine over either
        field).  Over F_p the entries are reduced mod p and the Fp entries
        wait until ``rows`` is read."""
        if field.kind != "Fp":
            return cls(field, rows, ncols=ncols)
        p = field.p
        mat = cls.__new__(cls)
        mat.field = field
        mat.m = len(rows)
        mat.n = ncols
        mat._k = tuple(tuple(x % p for x in r) for r in rows)
        return mat

    @cached_property
    def rows(self) -> Tuple[Vector, ...]:
        return tuple(self.field._from_k(r) for r in self._k)

    @cached_property
    def _k(self) -> Tuple[tuple, ...]:
        """Rows in kernel scalars: residues over F_p, the Fractions over Q."""
        if self.field.kind != "Fp":
            return self.rows
        return tuple(tuple(self.field._to_k(r)) for r in self.rows)

    @property
    def _fp(self) -> bool:
        return self.field.kind == "Fp"

    @classmethod
    def zeros(cls, field: Field, m: int, n: int) -> "Matrix":
        return cls._of_k(field, [[0] * n for _ in range(m)], n)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls._of_k(field, [[int(i == j) for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_columns(cls, field: Field, cols: Sequence[Sequence], nrows: Optional[int] = None) -> "Matrix":
        if not cols:
            return cls(field, [[] for _ in range(nrows or 0)])
        m = len(cols[0])
        return cls(field, [[col[i] for col in cols] for i in range(m)])

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> List[Vector]:
        return [self.column(j) for j in range(self.n)]

    def is_square(self) -> bool:
        return self.m == self.n

    def is_zero(self) -> bool:
        return not any(any(row) for row in self._k)

    def is_symmetric(self) -> bool:
        rows = self._k
        return self.is_square() and all(
            rows[i][j] == rows[j][i] for i in range(self.m) for j in range(i)
        )

    def _same_field(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise TypeError("matrices over different fields")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_field(other)
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("shape mismatch")
        return Matrix._of_k(self.field, [vec_add(a, b) for a, b in zip(self._k, other._k)], self.n)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_field(other)
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("shape mismatch")
        return Matrix._of_k(self.field, [vec_sub(a, b) for a, b in zip(self._k, other._k)], self.n)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, s) -> "Matrix":
        s = self.field._to_k((s,))[0]
        return Matrix._of_k(self.field, [vec_scale(r, s) for r in self._k], self.n)

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._same_field(other)
        if self.n != other.m:
            raise ValueError("shape mismatch in product")
        if self._fp:
            return Matrix._of_k(self.field, _res_matmul(self._k, other._k, other.n, self.field.p), other.n)
        zero = self.field.zero
        bt = other.rows
        out = []
        for row in self.rows:
            new = [zero] * other.n
            for k, a in enumerate(row):
                if not a:
                    continue
                brow = bt[k]
                for j, b in enumerate(brow):
                    if b:
                        new[j] = new[j] + a * b
            out.append(new)
        return Matrix(self.field, out, ncols=other.n)

    def __pow__(self, k: int) -> "Matrix":
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative matrix power")
        acc = Matrix.identity(self.field, self.n)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base if k > 1 else base
            k >>= 1
        return acc

    def apply(self, v: Sequence) -> Vector:
        if len(v) != self.n:
            raise ValueError("vector length mismatch")
        if self._fp:
            p = self.field.p
            return self.field._from_k(_res_apply(self._k, self.field._to_k(v), p))
        zero = self.field.zero
        out = []
        for row in self.rows:
            acc = zero
            for a, x in zip(row, v):
                if a and x:
                    acc = acc + a * x
            out.append(acc)
        return tuple(out)

    def _apply_k(self, v: Sequence) -> list:
        """self * v with v and the result in kernel scalars (residues over F_p)."""
        if self._fp:
            return _res_apply(self._k, v, self.field.p)
        return list(self.apply(v))

    def transpose(self) -> "Matrix":
        rows = self._k
        return Matrix._of_k(self.field, [[row[j] for row in rows] for j in range(self.n)], self.m)

    def trace(self) -> Scalar:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        return self.field.of(sum(self._k[i][i] for i in range(self.n)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self._k == other._k
            and self.n == other.n
        )

    def __hash__(self) -> int:
        return hash((self.field, self.n, self._k))

    def __repr__(self) -> str:
        body = "; ".join("[" + ", ".join(self.field.to_str(c) for c in row) + "]" for row in self.rows)
        return f"Matrix({self.m}x{self.n}: {body})"

    # -- echelon machinery ------------------------------------------------

    @cached_property
    def _rref(self) -> Tuple[Tuple[Sequence, ...], Tuple[int, ...]]:
        """(echelon rows, pivot columns); over F_p the rows are residues."""
        if self._fp:
            return _res_rref([list(r) for r in self._k], self.n, self.field.p)
        rows = [list(r) for r in self.rows]
        pivots: List[int] = []
        r = 0
        for c in range(self.n):
            pivot_row = None
            for i in range(r, len(rows)):
                if rows[i][c]:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            inv = self.field.one / rows[r][c]
            if inv != self.field.one:
                rows[r] = [x * inv for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
        return tuple(tuple(row) for row in rows[:r]), tuple(pivots)

    def rref(self) -> Tuple[Tuple[Vector, ...], Tuple[int, ...]]:
        rows, pivots = self._rref
        return tuple(self.field._from_k(r) for r in rows), pivots

    def rank(self) -> int:
        return len(self._rref[1])

    def kernel(self) -> "Subspace":
        rows, pivots = self._rref
        basis = []
        for f in (c for c in range(self.n) if c not in set(pivots)):
            v = [0] * self.n
            v[f] = 1
            for r, c in enumerate(pivots):
                v[c] = -rows[r][f]
            basis.append(v)
        return Subspace._span_k(self.field, self.n, basis)

    def image(self) -> "Subspace":
        rows = self._k
        return Subspace._span_k(self.field, self.m, [[row[j] for row in rows] for j in range(self.n)])

    def solve(self, b: Sequence) -> Optional[Vector]:
        """One solution of self * x = b (free coordinates zero), or None."""
        if len(b) != self.m:
            raise ValueError("rhs length mismatch")
        aug = [tuple(row) + (bb,) for row, bb in zip(self._k, self.field._to_k(b))]
        rows, pivots = Matrix._of_k(self.field, aug, self.n + 1)._rref
        if self.n in pivots:
            return None
        x = [0] * self.n
        for r, p in enumerate(pivots):
            x[p] = rows[r][self.n]
        return self.field._from_k(x)

    # -- characteristic and minimal polynomials ---------------------------

    def char_poly(self) -> UniPoly:
        """Monic characteristic polynomial det(t*I - self)."""
        if not self.is_square():
            raise ValueError("char poly of a non-square matrix")
        n = self.n
        field = self.field
        if n == 0:
            return UniPoly.one(field)
        if field.kind == "Q":
            den = 1
            for row in self.rows:
                for c in row:
                    den = den * c.denominator // gcd(den, c.denominator)
            if den != 1:
                scaled = self.scale(Fraction(den))
                coeffs = scaled._charpoly_hessenberg()
                d = Fraction(den)
                return UniPoly(field, [coeffs[i] / d ** (n - i) for i in range(n + 1)])
        return UniPoly(field, field._from_k(self._charpoly_hessenberg()))

    def _charpoly_hessenberg(self) -> List[Scalar]:
        """Ascending char poly coefficients; residues over F_p."""
        if self._fp:
            return _res_char_poly(self._k, self.field.p)
        n = self.n
        field = self.field
        h = [list(row) for row in self.rows]
        # similarity reduction to upper Hessenberg form
        for c in range(n - 2):
            pivot_row = None
            for r in range(c + 1, n):
                if h[r][c]:
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            if pivot_row != c + 1:
                h[c + 1], h[pivot_row] = h[pivot_row], h[c + 1]
                for row in h:
                    row[c + 1], row[pivot_row] = row[pivot_row], row[c + 1]
            piv = h[c + 1][c]
            for r in range(c + 2, n):
                if h[r][c]:
                    f = h[r][c] / piv
                    hr, hc1 = h[r], h[c + 1]
                    for j in range(n):
                        hr[j] = hr[j] - f * hc1[j]
                    for row in h:
                        row[c + 1] = row[c + 1] + f * row[r]
        # char polys of leading principal minors of the Hessenberg form
        one = UniPoly.one(field)
        t = UniPoly.t(field)
        polys = [one]
        for m in range(1, n + 1):
            p = (t - UniPoly(field, [h[m - 1][m - 1]])) * polys[m - 1]
            prod = field.one
            for i in range(1, m):
                prod = prod * h[m - i][m - i - 1]
                coeff = h[m - 1 - i][m - 1]
                if coeff and prod:
                    p = p - polys[m - 1 - i].scale(coeff * prod)
            polys.append(p)
        coeffs = list(polys[n].coeffs)
        coeffs += [field.zero] * (n + 1 - len(coeffs))
        return coeffs

    def min_poly(self) -> UniPoly:
        """Monic minimal polynomial via Krylov chains off the standard basis."""
        if not self.is_square():
            raise ValueError("min poly of a non-square matrix")
        field = self.field
        n = self.n
        acc = UniPoly.one(field)
        zero, one = field.zero, field.one
        for s in range(n):
            if acc.degree == n:
                break
            v = tuple(one if i == s else zero for i in range(n))
            chain = [v]
            w = self.apply(v)
            while True:
                sol = Matrix.from_columns(field, chain, n).solve(w)
                if sol is not None:
                    local = UniPoly(field, [-c for c in sol] + [one])
                    break
                chain.append(w)
                w = self.apply(w)
            acc = poly_lcm(acc, local)
        return acc if not acc.is_zero() else UniPoly.one(field)


def diagonalize_quadratic(gram: Matrix) -> Tuple[Scalar, ...]:
    """Diagonal of a congruent diagonal form of a symmetric matrix over Q.

    Symmetric Gaussian elimination; when no diagonal pivot is available a
    row+column addition manufactures one (char 0, so 2 is invertible).
    The multiset of signs is Sylvester's invariant; zeros count corank.
    """
    if gram.field.kind != "Q":
        raise ValueError("quadratic diagonalization implemented over Q only")
    if not gram.is_symmetric():
        raise ValueError("matrix is not symmetric")
    n = gram.n
    a = [list(row) for row in gram.rows]
    diag = []
    for k in range(n):
        if not a[k][k]:
            swap = next((j for j in range(k + 1, n) if a[j][j]), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                off = next((j for j in range(k + 1, n) if a[k][j]), None)
                if off is None:
                    diag.append(gram.field.zero)
                    continue
                for j in range(n):
                    a[k][j] = a[k][j] + a[off][j]
                for i in range(n):
                    a[i][k] = a[i][k] + a[i][off]
        piv = a[k][k]
        for r in range(k + 1, n):
            if a[r][k]:
                f = a[r][k] / piv
                for j in range(n):
                    a[r][j] = a[r][j] - f * a[k][j]
                for i in range(n):
                    a[i][r] = a[i][r] - f * a[i][k]
        diag.append(a[k][k])
    return tuple(diag)


class Subspace:
    """Subspace of K^n held as canonical reduced-row-echelon basis rows."""

    __slots__ = ("field", "ambient", "pivots", "__dict__")

    def __init__(self, field: Field, ambient: int, rows: Tuple[Vector, ...], pivots: Tuple[int, ...]):
        self.field = field
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def _of_k(cls, field: Field, ambient: int, rows: Tuple[tuple, ...], pivots: Tuple[int, ...]) -> "Subspace":
        """A subspace from reduced echelon rows in kernel scalars."""
        if field.kind != "Fp":
            return cls(field, ambient, rows, pivots)
        space = cls.__new__(cls)
        space.field = field
        space.ambient = ambient
        space.pivots = pivots
        space._k = rows
        return space

    @classmethod
    def _span_k(cls, field: Field, ambient: int, vectors: Sequence[Sequence]) -> "Subspace":
        """The span of vectors of length ambient in kernel scalars."""
        if not vectors:
            return cls.zero_space(field, ambient)
        rows, pivots = Matrix._of_k(field, vectors, ambient)._rref
        return cls._of_k(field, ambient, rows, pivots)

    @cached_property
    def rows(self) -> Tuple[Vector, ...]:
        return tuple(self.field._from_k(r) for r in self._k)

    @cached_property
    def _k(self) -> Tuple[tuple, ...]:
        """Basis rows in kernel scalars: residues over F_p, Fractions over Q."""
        if self.field.kind != "Fp":
            return self.rows
        return tuple(tuple(self.field._to_k(r)) for r in self.rows)

    @property
    def _fp(self) -> bool:
        return self.field.kind == "Fp"

    @classmethod
    def from_vectors(cls, field: Field, ambient: int, vectors: Sequence[Sequence]) -> "Subspace":
        for v in vectors:
            if len(v) != ambient:
                raise ValueError("vector length does not match ambient dimension")
        return cls._span_k(field, ambient, [field._to_k(v) for v in vectors])

    @classmethod
    def zero_space(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, (), ())

    @classmethod
    def full_space(cls, field: Field, ambient: int) -> "Subspace":
        return cls._of_k(field, ambient, Matrix.identity(field, ambient)._k, tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def is_zero(self) -> bool:
        return not self.pivots

    def is_full(self) -> bool:
        return self.dim == self.ambient

    def basis(self) -> Tuple[Vector, ...]:
        return self.rows

    def _reduce_res(self, v: Sequence) -> List[int]:
        w = self.field._to_k(v)
        if len(w) != self.ambient:
            raise ValueError("vector length does not match ambient dimension")
        return _res_reduce(self._k, self.pivots, w, self.field.p)

    def reduce(self, v: Sequence) -> Vector:
        """Remainder of v modulo this subspace (pivot coordinates cleared)."""
        if self._fp:
            return self.field._from_k(self._reduce_res(v))
        w = list(self.field.of(c) if isinstance(c, int) else c for c in v)
        if len(w) != self.ambient:
            raise ValueError("vector length does not match ambient dimension")
        for row, p in zip(self.rows, self.pivots):
            f = w[p]
            if f:
                for i in range(self.ambient):
                    if row[i]:
                        w[i] = w[i] - f * row[i]
        return tuple(w)

    def contains(self, v: Sequence) -> bool:
        if self._fp:
            return not any(self._reduce_res(v))
        return vec_is_zero(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other._k)

    def coords_of(self, v: Sequence) -> Optional[Vector]:
        """Coordinates of v in the echelon basis, or None if outside."""
        if not self.contains(v):
            return None
        vv = tuple(self.field.of(c) if isinstance(c, int) else c for c in v)
        return tuple(vv[p] for p in self.pivots)

    def sum_with(self, other: "Subspace") -> "Subspace":
        self._compat(other)
        return Subspace._span_k(self.field, self.ambient, self._k + other._k)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: echelonize [A|A; B|0]; rows with zero left half give
        right halves spanning the intersection."""
        self._compat(other)
        n = self.ambient
        block = [tuple(r) + tuple(r) for r in self._k] + [tuple(r) + (0,) * n for r in other._k]
        if not block:
            return Subspace.zero_space(self.field, n)
        rows, _ = Matrix._of_k(self.field, block, 2 * n)._rref
        return Subspace._span_k(self.field, n, [row[n:] for row in rows if not any(row[:n])])

    def complement_indices(self) -> Tuple[int, ...]:
        """Ambient coordinates not used as pivots: canonical coset labels."""
        taken = set(self.pivots)
        return tuple(i for i in range(self.ambient) if i not in taken)

    def _compat(self, other: "Subspace") -> None:
        if self.field != other.field or self.ambient != other.ambient:
            raise TypeError("subspaces of different ambient spaces")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self._k == other._k
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ambient, self._k))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of K^{self.ambient})"


class _Echelon:
    """A reduced echelon basis grown one vector at a time.

    Vectors are in kernel scalars: residues over F_p, Fractions over Q.
    ``add`` returns the reduced, normalized vector when it enlarges the
    span, and ``subspace`` gives the canonical Subspace of everything added.
    """

    def __init__(self, field: Field, ambient: int):
        self.field = field
        self.ambient = ambient
        self.p = field.p if field.kind == "Fp" else 0
        self.rows: Dict[int, list] = {}

    @property
    def full(self) -> bool:
        return len(self.rows) == self.ambient

    def _axpy(self, w: list, f, row: list) -> list:
        """w - f * row."""
        p = self.p
        if p:
            return [(x - f * y) % p for x, y in zip(w, row)]
        return [x - f * y if y else x for x, y in zip(w, row)]

    def add(self, v: Sequence) -> Optional[list]:
        w = list(v)
        for c, row in self.rows.items():
            if w[c]:
                w = self._axpy(w, w[c], row)
        lead = next((c for c, x in enumerate(w) if x), None)
        if lead is None:
            return None
        a, p = w[lead], self.p
        if a != 1:
            inv = pow(a, p - 2, p) if p else 1 / a
            w = [x * inv % p for x in w] if p else [x * inv for x in w]
        for c, row in self.rows.items():
            if row[lead]:
                self.rows[c] = self._axpy(row, row[lead], w)
        self.rows[lead] = w
        return w

    def subspace(self) -> Subspace:
        pivots = tuple(sorted(self.rows))
        rows = tuple(tuple(self.rows[c]) for c in pivots)
        return Subspace._of_k(self.field, self.ambient, rows, pivots)
