"""Exact linear algebra over Q and F_p, with one sparse elimination kernel
for both fields.

Matrices are immutable lists of rows of scalars tagged with their field;
0x0 matrices are legal and show up as restrictions to the zero subspace.
Subspaces are kept in reduced row echelon form, so equality of subspaces
is equality of representations.

The kernel computes on kernel scalars: over Q an int where integral and
a ``Fraction`` only where the denominator is > 1, plain ints in [0, p)
over F_p (``Fp`` objects, and over Q Fractions of integral values, are
built only when a caller reads ``rows`` or gets a vector, a scalar or a
polynomial back, which is where a result leaves the kernel).  Matrices
and subspaces store only kernel rows (``_k``).  Each has one constructor;
it takes field scalars or kernel scalars, unreduced ints included, and
passes all its rows, in one call, through ``field._rows_to_k``, which
refuses a scalar of another field.  ``rows`` is the field-scalar view,
built by ``_from_k`` when read.  All row reduction goes through
``_Echelon``, which grows a reduced echelon basis one vector at a time
and keeps its rows as ``{column: scalar}`` dicts: ``rref``, ``kernel``,
``solve``, ``image``, ``intersect``, subspace ``reduce`` and
``contains``, the sparse equation systems of the derivation algebra, the
centroid and the 2-cocycles, and the one worklist closure ``close``,
which grows the ideal and the subalgebra a set generates and the End(L)
envelope of the ad b_i.  A system whose
solutions contain a subspace known in advance gives ``_Echelon`` its
dimension, the floor, and the elimination ends once the rank leaves room
for nothing more.  Dense rows are
turned into dicts on the way in and back into dense rows by
``echelon()``.  Its one reduce step is ``_reduce``, built on the row
update ``_axpy`` (taken mod p over F_p).  Division happens in two places,
the pivot of ``_Echelon.add`` and of the Hessenberg reduction, and both
take ``_inverse``: pow(a, p - 2, p) over F_p, an exact inverse over Q (a
itself for a = +-1).  Products, ``apply`` and the Hessenberg
characteristic polynomial stay dense, and each is one body for both
fields too: it reads p = 0 as Q and reduces mod p only where p is
set.  The product and ``apply`` walk only the nonzero entries of each row
(``_nonzero``).  Over Q an entry that comes out of them, or out of
``_axpy``, as a Fraction of denominator 1 stays one until a constructor
brings it back to an int.

Characteristic polynomials come from a Hessenberg reduction (no division
by integer constants, so small characteristic is safe), ``_char_poly``,
on the entries as they are.  Minimal polynomials come from ``_Echelon``
too: the first linear relation among the flattened powers of the matrix.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import count
from operator import mul
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from .fields import Field, Scalar, UniPoly

Vector = Tuple[Scalar, ...]


def vec_add(u: Sequence, v: Sequence) -> Vector:
    return tuple(a + b for a, b in zip(u, v))

def vec_sub(u: Sequence, v: Sequence) -> Vector:
    return tuple(a - b for a, b in zip(u, v))

def vec_scale(u: Sequence, s) -> Vector:
    return tuple(a * s for a in u)

def vec_is_zero(u: Sequence) -> bool:
    return not any(u)


# ---------------------------------------------------------------------------
# the elimination step, shared by both fields, on sparse rows


def _sparse(v: Sequence) -> dict:
    """A vector in kernel scalars as {column: scalar}, zeros left out."""
    return {k: x for k, x in enumerate(v) if x}


def _dense(w: dict, n: int, zero) -> list:
    return [w.get(k, zero) for k in range(n)]


def _axpy(w: dict, f, row: dict, p: int) -> None:
    """w - f * row in place, dropping the entries that cancel; p = 0
    stands for Q."""
    for k, y in row.items():
        x = w.get(k, 0) - f * y
        if p:
            x %= p
        if x:
            w[k] = x
        else:
            del w[k]


def _inverse(a, p: int):
    """1 / a for a nonzero kernel scalar; p = 0 stands for Q.  Over F_p it
    is pow(a, p - 2, p); over Q it is exact and an int where integral, a
    itself for a = +-1, so no division can leave a float in the kernel."""
    if p:
        return pow(a, p - 2, p)
    n = a.numerator
    if n == 1 or n == -1:
        return a.denominator * n
    return Fraction(a.denominator, n)


def _reduce(w: dict, rows: Dict[int, dict], p: int) -> dict:
    """w modulo reduced echelon rows keyed by pivot, in place.  The rows
    vanish on each other's pivots, so each pivot of w is cleared by its
    own row with the coefficient w has on entry."""
    for c, f in [(c, f) for c, f in w.items() if c in rows]:
        _axpy(w, f, rows[c], p)
    return w


# ---------------------------------------------------------------------------
# the Hessenberg characteristic polynomial, shared by both fields


def _char_poly(mat: Sequence[Sequence], p: int) -> list:
    """Ascending coefficients of det(t*I - mat), a square matrix in kernel
    scalars; p = 0 stands for Q.  The coefficients may be left as ints
    (over Q beside Fractions) for ``_from_k`` to bring into canonical form.
    """
    n = len(mat)
    h = [list(row) for row in mat]
    # similarity reduction to upper Hessenberg form
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
        inv = _inverse(hc1[c], p)
        for r in range(c + 2, n):
            f = h[r][c] * inv
            if p:
                f %= p
            if f:
                hr = [x - f * y for x, y in zip(h[r], hc1)]
                h[r] = [x % p for x in hr] if p else hr
                for row in h:
                    x = row[c + 1] + f * row[r]
                    row[c + 1] = x % p if p else x
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
            prod *= h[m - i][m - i - 1]
            if p:
                prod %= p
            if not prod:
                break
            coeff = h[m - 1 - i][m - 1]
            if coeff:
                s = coeff * prod
                for k, a in enumerate(polys[m - 1 - i]):
                    poly[k] -= s * a
        polys.append([x % p for x in poly] if p else poly)
    return polys[n]


class Matrix:
    """Immutable exact matrix over a fixed field, stored as kernel rows."""

    __slots__ = ("field", "m", "n", "_k", "__dict__")

    def __init__(self, field: Field, rows: Sequence[Sequence], ncols: Optional[int] = None):
        """Rows of field scalars or kernel scalars (ints need not be
        reduced); ``ncols`` is needed only when there are no rows.  Every
        entry goes through ``field._rows_to_k``, which refuses a scalar of
        another field."""
        k = field._rows_to_k(rows)
        width = ncols if ncols is not None else len(k[0]) if k else 0
        for r in k:
            if len(r) != width:
                raise ValueError("ragged rows")
        self.field = field
        self.m = len(k)
        self.n = width
        self._k = k

    @classmethod
    def _of_k(cls, field: Field, rows: Sequence[Sequence], ncols: int) -> "Matrix":
        """The constructor for rows made inside the kernel: over F_p a tuple
        of tuples of reduced residues, taken as it is; over Q any kernel
        rows, through ``__init__``, which brings an integral Fraction back
        to an int."""
        if not field.char:
            return cls(field, rows, ncols)
        self = object.__new__(cls)
        self.field, self.m, self.n, self._k = field, len(rows), ncols, rows
        return self

    @cached_property
    def rows(self) -> Tuple[Vector, ...]:
        return tuple(self.field._from_k(r) for r in self._k)

    @cached_property
    def _nonzero(self) -> Tuple[Tuple[list, list], ...]:
        """Each row as (columns, scalars) of its nonzero entries, for the
        product and ``apply``: a zero entry skipped is a product saved, a
        Fraction product over Q where the other factor is not integral."""
        out = []
        for row in self._k:
            cols = [j for j, x in enumerate(row) if x]
            out.append((cols, [row[j] for j in cols]))
        return tuple(out)

    @classmethod
    def zeros(cls, field: Field, m: int, n: int) -> "Matrix":
        return cls(field, [[0] * n for _ in range(m)], n)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, [[int(i == j) for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_columns(cls, field: Field, cols: Sequence[Sequence], nrows: Optional[int] = None) -> "Matrix":
        if not cols:
            return cls(field, [[] for _ in range(nrows or 0)])
        m = len(cols[0])
        return cls(field, [[col[i] for col in cols] for i in range(m)])

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
        return Matrix(self.field, [vec_add(a, b) for a, b in zip(self._k, other._k)], self.n)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_field(other)
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("shape mismatch")
        return Matrix(self.field, [vec_sub(a, b) for a, b in zip(self._k, other._k)], self.n)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, s) -> "Matrix":
        s = self.field._to_k((s,))[0]
        return Matrix(self.field, [vec_scale(r, s) for r in self._k], self.n)

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._same_field(other)
        if self.n != other.m:
            raise ValueError("shape mismatch in product")
        zero = self.field._k_zero
        p = self.field.char
        out = []
        for row in self._k:
            acc = [zero] * other.n
            for x, (cols, vals) in zip(row, other._nonzero):
                if x:
                    for j, y in zip(cols, vals):
                        acc[j] += x * y
            out.append(tuple([x % p for x in acc]) if p else acc)
        return Matrix._of_k(self.field, tuple(out), other.n)

    def __pow__(self, k: int) -> "Matrix":
        """self^k by repeated squaring, the identity for k = 0.  The result
        is acc * base^k at the top of every round, so it returns as soon as
        the squared power base is zero: a nilpotent matrix skips the
        products past its index."""
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative matrix power")
        acc = None
        base = self
        while k:
            if base.is_zero():
                return base
            if k & 1:
                acc = base if acc is None else acc * base
            k >>= 1
            if k:
                base = base * base
        return Matrix.identity(self.field, self.n) if acc is None else acc

    def apply(self, v: Sequence) -> Vector:
        if len(v) != self.n:
            raise ValueError("vector length mismatch")
        return self.field._from_k(self._apply_k(self.field._to_k(v)))

    def _apply_k(self, v: Sequence) -> list:
        """self * v with v and the result in kernel scalars."""
        p = self.field.char
        zero = self.field._k_zero
        out = [sum(map(mul, vals, map(v.__getitem__, cols)), zero) for cols, vals in self._nonzero]
        return [x % p for x in out] if p else out

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
    def _echelon(self) -> "_Echelon":
        return _Echelon(self.field, self.n, self._k)

    @cached_property
    def _rref(self) -> Tuple[Tuple[Sequence, ...], Tuple[int, ...]]:
        """(echelon rows, pivot columns) in kernel scalars.  The reduced
        echelon form is unique, so growing it row by row gives the same
        rows as any other elimination order."""
        return self._echelon.echelon()

    def rank(self) -> int:
        return len(self._echelon.rows)

    def kernel(self) -> "Subspace":
        """{x : self * x = 0}; of a zero matrix the full space, with no
        elimination."""
        if self.is_zero():
            return Subspace.full_space(self.field, self.n)
        return self._echelon.kernel()

    def image(self) -> "Subspace":
        """The column span; of a zero matrix the zero space, with no
        elimination."""
        if self.is_zero():
            return Subspace.zero_space(self.field, self.m)
        rows = self._k
        return Subspace._span_k(self.field, self.m, [[row[j] for row in rows] for j in range(self.n)])

    def solve(self, b: Sequence) -> Optional[Vector]:
        """One solution of self * x = b (free coordinates zero), or None."""
        if len(b) != self.m:
            raise ValueError("rhs length mismatch")
        aug = [tuple(row) + (bb,) for row, bb in zip(self._k, self.field._to_k(b))]
        rows, pivots = Matrix(self.field, aug, self.n + 1)._rref
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
        return UniPoly(self.field, self.field._from_k(_char_poly(self._k, self.field.char)))

    def min_poly(self) -> UniPoly:
        """Monic minimal polynomial: the first linear relation among I, A,
        A^2, ...  Each power is flattened into one echelon of width
        n^2 + n + 1 and tagged with the unit vector of its degree in the
        last n + 1 columns, so the first added row whose pivot is a tag
        has a zero matrix part and the relation in its tags."""
        if not self.is_square():
            raise ValueError("min poly of a non-square matrix")
        field, n = self.field, self.n
        width = n * n
        ech = _Echelon(field, width + n + 1)
        power = Matrix.identity(field, n)
        for d in count():
            row = _sparse([x for r in power._k for x in r])
            row[width + d] = 1
            # no row has a pivot at the new tag, so add never returns None
            w = ech.add(row)
            if min(w) >= width:
                # the coefficient of A^d is nonzero; monic divides by it
                return UniPoly(field, field._from_k([w.get(width + k, 0) for k in range(d + 1)])).monic()
            power = power * self


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

    __slots__ = ("field", "ambient", "pivots", "_k", "__dict__")

    def __init__(self, field: Field, ambient: int, rows: Sequence[Sequence], pivots: Tuple[int, ...]):
        """Reduced echelon rows of field scalars or kernel scalars, and
        their pivot columns; every entry goes through ``field._rows_to_k``."""
        self.field = field
        self.ambient = ambient
        self.pivots = pivots
        self._k = field._rows_to_k(rows)

    @classmethod
    def _of_k(cls, field: Field, ambient: int, rows: Sequence[Sequence], pivots: Tuple[int, ...]) -> "Subspace":
        """The constructor for echelon rows made inside the kernel, as
        ``Matrix._of_k``: over F_p reduced residue tuples taken as they
        are, over Q through ``__init__``."""
        if not field.char:
            return cls(field, ambient, rows, pivots)
        self = object.__new__(cls)
        self.field, self.ambient, self.pivots, self._k = field, ambient, pivots, rows
        return self

    @classmethod
    def _span_k(cls, field: Field, ambient: int, vectors: Sequence[Sequence]) -> "Subspace":
        """The span of vectors of length ambient, in field or kernel scalars
        (ints need not be reduced)."""
        return _Echelon(field, ambient, field._rows_to_k(vectors)).subspace()

    @cached_property
    def rows(self) -> Tuple[Vector, ...]:
        return tuple(self.field._from_k(r) for r in self._k)

    @classmethod
    def from_vectors(cls, field: Field, ambient: int, vectors: Sequence[Sequence]) -> "Subspace":
        for v in vectors:
            if len(v) != ambient:
                raise ValueError("vector length does not match ambient dimension")
        return cls._span_k(field, ambient, vectors)

    @classmethod
    def zero_space(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, (), ())

    @classmethod
    def full_space(cls, field: Field, ambient: int) -> "Subspace":
        """K^ambient, one shared instance per (field, ambient): the rows are
        tuples and nothing assigns to a built subspace, so sharing it
        changes no answer and spares a fresh identity for each zero
        matrix's kernel and each series that starts at L."""
        key = (field, ambient)
        space = _FULL_SPACES.get(key)
        if space is None:
            identity = [[int(i == j) for j in range(ambient)] for i in range(ambient)]
            space = _FULL_SPACES[key] = cls(field, ambient, identity, tuple(range(ambient)))
        return space

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def is_zero(self) -> bool:
        return not self.pivots

    def is_full(self) -> bool:
        return self.dim == self.ambient

    @cached_property
    def _pivot_rows(self) -> Dict[int, dict]:
        """The basis rows as sparse rows keyed by pivot, as ``_reduce`` reads them."""
        return {c: _sparse(row) for c, row in zip(self.pivots, self._k)}

    def _remainder_k(self, v: Sequence) -> dict:
        """The remainder as a sparse row; after the checks, none in the full space."""
        w = self.field._to_k(v)
        if len(w) != self.ambient:
            raise ValueError("vector length does not match ambient dimension")
        if self.is_full():
            return {}
        return _reduce(_sparse(w), self._pivot_rows, self.field.char)

    def reduce(self, v: Sequence) -> Vector:
        """Remainder of v modulo this subspace (pivot coordinates cleared)."""
        return self.field._from_k(_dense(self._remainder_k(v), self.ambient, self.field._k_zero))

    def contains(self, v: Sequence) -> bool:
        return not self._remainder_k(v)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other._k)

    def coords_of(self, v: Sequence) -> Optional[Vector]:
        """Coordinates of v in the echelon basis, or None if outside."""
        if not self.contains(v):
            return None
        w = self.field._to_k(v)
        return self.field._from_k([w[p] for p in self.pivots])

    def sum_with(self, other: "Subspace") -> "Subspace":
        """The span of both; a zero operand leaves the other as it is."""
        self._compat(other)
        if self.is_zero() or other.is_zero():
            return other if self.is_zero() else self
        return Subspace._span_k(self.field, self.ambient, self._k + other._k)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: echelonize [A|A; B|0]; rows with zero left half give
        right halves spanning the intersection."""
        self._compat(other)
        n = self.ambient
        block = [tuple(r) + tuple(r) for r in self._k] + [tuple(r) + (0,) * n for r in other._k]
        if not block:
            return Subspace.zero_space(self.field, n)
        rows, _ = Matrix(self.field, block, 2 * n)._rref
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


_FULL_SPACES: Dict[Tuple[Field, int], Subspace] = {}


class _Echelon:
    """A reduced echelon basis grown one vector at a time.

    Vectors are in kernel scalars (residues over F_p; over Q ints, and
    Fractions where not integral), dense or as {column: scalar} dicts; the
    rows are kept as dicts keyed by pivot.  ``add`` returns the reduced,
    normalized row when it enlarges the span; over Q the entries of that
    row that come out integral are stored as ints.  ``close`` grows the
    span to the least one closed under a map.  ``echelon`` gives the
    dense reduced echelon form, ``subspace`` its Subspace and ``kernel``
    the null space of the rows.

    ``floor`` is the dimension of a subspace known in advance to lie in the
    null space of every vector (0 when none is known).  The rank can then
    reach at most ambient - floor, and once it does, every further vector
    lies in the span already, and the constructor reads no more.  The
    reduced echelon basis, and so ``kernel`` (then exactly the known
    subspace), are those of the full solve.  A floor of 0 stops only when
    the span is full.
    """

    def __init__(self, field: Field, ambient: int, vectors: Iterable = (), floor: int = 0):
        self.field = field
        self.ambient = ambient
        self.p = field.char
        self.rows: Dict[int, dict] = {}
        room = ambient - floor
        if room > 0:
            for v in vectors:
                if self.add(v) is not None and len(self.rows) == room:
                    break

    @property
    def full(self) -> bool:
        return len(self.rows) == self.ambient

    def add(self, v) -> Optional[dict]:
        p = self.p
        w = _reduce(dict(v) if isinstance(v, dict) else _sparse(v), self.rows, p)
        if not w:
            return None
        lead = min(w)
        a = w[lead]
        if a != 1:
            inv = _inverse(a, p)
            if p:
                w = {k: x * inv % p for k, x in w.items()}
            else:
                # an integral entry of the normalized row is stored as an int
                w = {k: y if (y := x * inv).denominator != 1 else y.numerator for k, x in w.items()}
        for row in self.rows.values():
            f = row.get(lead)
            if f:
                _axpy(row, f, w, p)
        self.rows[lead] = w
        return w

    def close(self, items: Iterable, images: Callable, flat: Callable = lambda item: item) -> "_Echelon":
        """Worklist closure: each item whose ``flat(item)`` enlarges the
        span is kept as it is, not reduced, and later adds ``images(item)``
        the same way, until nothing grows or the span is full.  Closed when
        ``images`` is linear."""
        todo = [item for item in items if self.add(flat(item)) is not None]
        while todo and not self.full:
            for item in images(todo.pop()):
                if self.add(flat(item)) is not None:
                    todo.append(item)
        return self

    def echelon(self) -> Tuple[Tuple[tuple, ...], Tuple[int, ...]]:
        """(dense rows sorted by pivot, pivots): the reduced echelon form."""
        pivots = tuple(sorted(self.rows))
        zero = self.field._k_zero
        return tuple(tuple(_dense(self.rows[c], self.ambient, zero)) for c in pivots), pivots

    def subspace(self) -> Subspace:
        return Subspace._of_k(self.field, self.ambient, *self.echelon())

    def kernel(self) -> Subspace:
        """{x : row . x = 0 for every row}: one basis vector per free
        column f, with 1 at f and minus column f of the rows at their pivots
        (with no rows, the full space, given without elimination)."""
        if not self.rows:
            return Subspace.full_space(self.field, self.ambient)
        p = self.p
        one = self.field._to_k((1,))[0]
        free = {f: {f: one} for f in range(self.ambient) if f not in self.rows}
        for c, row in self.rows.items():
            for k, x in row.items():
                if k != c:
                    free[k][c] = -x % p if p else -x
        return _Echelon(self.field, self.ambient, free.values()).subspace()
