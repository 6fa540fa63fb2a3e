"""Lie and associative algebras presented by structure constants.

Each algebra stores its table once, as rows of kernel scalars (over Q
ints where integral and Fractions otherwise, residues over F_p, see
linalg): ``rows[i][j]`` is the tuple ((k, c), ...) of the nonzero
coefficients of b_i b_j, and a pair whose product is zero has no
cell.  One cleaner builds the rows for both kinds of algebra and converts
each coefficient once.  A Lie algebra fills both orders, ``rows[j][i]``
being ``rows[i][j]`` negated, and leaves the diagonal empty, so
antisymmetry is built into the representation; the constructor checks
the Jacobi identity on every basis triple, so every LieAlgebra satisfies
it.  An associative algebra fills the pairs its input names.
``table``, the dict {(i, j): {k: c}} in field scalars, is built from the
rows each time it is read.

The primitives (bracket and product, ad, the Jacobi check, bracket spans,
the lower central and derived series, the Killing form and its
invariance test, the structure constants of the derivation algebra) are
written once over both fields: they walk the rows, or the nonzero
entries of the cached adjoint matrices, and leave normalizing the result
to the field's ``_to_k`` / ``_from_k`` or to the ``Matrix`` constructor,
which stores kernel rows only.  None of them forms a Matrix product.
The bracket and the product are one walk, ``_product_k``: Lie rows hold
both orders, so the sum of x_i y_j b_i b_j over the rows is the bracket.

Everything downstream - structure reports, quotients, sums, scalar
extensions by a commutative algebra, derivations, centroid, second
cohomology with trivial coefficients, central extensions - is exact
linear algebra over the base field.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .budgets import EXHAUSTIVE_CAP
from .fields import Field, Scalar, UniPoly, common_denominator, field_from_json, field_to_json
from .linalg import _dense, _Echelon, _reduce, _sparse, Matrix, Subspace, Vector
from .verdict import _recheck, _Record, Verdict


Rows = List[Dict[int, tuple]]


def _jacobi_sums(n: int, rows: Sequence[dict]) -> Iterator[Tuple[Tuple[int, int, int], list]]:
    """Each basis triple i < j < k with its unreduced Jacobi defect over Lie
    rows (rows[a].get(b, ()) is the signed ((k, c), ...) of [b_a, b_b]):
    sum_m c_ij^m [b_m, b_k] + c_jk^m [b_m, b_i] + c_ki^m [b_m, b_j]."""
    for i, j, k in itertools.combinations(range(n), 3):
        defect = [0] * n
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, cm in rows[a].get(b, ()):
                for l, cl in rows[m].get(c, ()):
                    defect[l] += cm * cl
        yield (i, j, k), defect


def _jacobi_defects(field: Field, n: int, rows: Sequence[dict]) -> Iterator[Tuple[Tuple[int, int, int], list]]:
    """The triples of ``_jacobi_sums`` where Jacobi fails, with their
    defects in kernel scalars.  Over Q the sums are exact, so a triple is
    tested on them as they are and only a failing one is brought to kernel
    scalars (its Fractions of denominator 1 made ints).  Over F_p the sums
    are unreduced ints, and the one mod-p pass of ``_to_k`` comes first."""
    for t, defect in _jacobi_sums(n, rows):
        if field.char:
            defect = field._to_k(defect)
            if any(defect):
                yield t, defect
        elif any(defect):
            yield t, field._to_k(defect)


def _entries(rows: Sequence[Sequence]) -> Dict[Tuple[int, int], Scalar]:
    """The nonzero entries of a matrix in kernel scalars, keyed (row, column)."""
    return {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row) if v}


class StructureError(ValueError):
    """A structure-constant table violates a required identity."""


BracketTable = Dict[Tuple[int, int], Dict[int, Scalar]]


def _clean_table(field: Field, dim: int, table, *, lie: bool = True) -> Rows:
    """The rows of a table {(i, j): cell}, each coefficient converted once
    by ``field._to_k`` and the zeros dropped.  A cell is {k: c} or the
    dense sequence of the dim coefficients.  A Lie table names the pairs
    i < j only and fills both orders, an associative table any pair."""
    kind = "bracket" if lie else "product"
    rows: Rows = [{} for _ in range(dim)]
    for (i, j), cell in table.items():
        if not (type(i) is int and type(j) is int and 0 <= i < dim and 0 <= j < dim) or (lie and i >= j):
            rule = "0 <= i < j < dim" if lie else "0 <= i, j < dim"
            raise StructureError(f"{kind} pair ({i!r}, {j!r}) must satisfy {rule}")
        ks, cs = (cell.keys(), cell.values()) if isinstance(cell, dict) else (range(len(cell)), cell)
        try:
            values = field._to_k(cs)
        except TypeError:
            values = None
        in_basis = all(type(k) is int for k in ks) and (not ks or 0 <= min(ks) <= max(ks) < dim)
        if values is None or not in_basis:
            # name the first bad entry, in the order given
            for k, c in zip(ks, cs):
                if type(k) is not int or not 0 <= k < dim:
                    raise StructureError(f"{kind} ({i}, {j}) names component {k!r} outside the basis")
                try:
                    field.of(c)
                except TypeError:
                    raise StructureError(f"coefficient {c!r} is not a {field!r} scalar") from None
        cleaned = tuple([(k, c) for k, c in zip(ks, values) if c])
        if cleaned:
            rows[i][j] = cleaned
            if lie:
                rows[j][i] = tuple([(k, -c) for k, c in cleaned])
    return rows


class _Presented:
    """What a Lie and an associative algebra share: the rows of the table
    (``_rows``, see the module docstring) with the ``table`` view, the
    basis products and the product walk read from them (each class names
    the last two), basis vectors, vectors through ``field.of`` or into
    kernel scalars, and the canonical JSON of ``to_json_dict``.  The class
    attribute ``_lie`` tells the two apart."""

    __slots__ = ()

    def basis_vector(self, i: int) -> Vector:
        z, o = self.field.zero, self.field.one
        return tuple(o if t == i else z for t in range(self.dim))

    def coerce_vector(self, v: Sequence) -> Vector:
        if len(v) != self.dim:
            raise ValueError(f"vector of length {len(v)} in a dim {self.dim} algebra")
        return tuple(self.field.of(c) for c in v)

    def _k_vector(self, v: Sequence) -> list:
        """v in kernel scalars, after the length check of coerce_vector."""
        if len(v) != self.dim:
            raise ValueError(f"vector of length {len(v)} in a dim {self.dim} algebra")
        return self.field._to_k(v)

    def _cells(self) -> Iterator[Tuple[int, int, tuple]]:
        """(i, j, ((k, c), ...)) for each nonzero b_i b_j the input names:
        of a Lie algebra the pairs i < j only."""
        for i, row in enumerate(self._rows):
            for j, cell in row.items():
                if i < j or not self._lie:
                    yield i, j, cell

    @property
    def table(self) -> BracketTable:
        """{(i, j): {k: c}} in field scalars for the pairs of ``_cells``,
        built from the rows on each read."""
        from_k = self.field._from_k
        return {
            (i, j): dict(zip([k for k, _ in cell], from_k([c for _, c in cell])))
            for i, j, cell in self._cells()
        }

    def _product_k(self, x: Sequence, y: Sequence) -> list:
        """xy ([x, y] in a Lie algebra) for x, y in kernel scalars: the sum
        of x_i y_j b_i b_j over the rows of the nonzero x_i at the nonzero
        y_j; the result is not yet reduced."""
        out = [self.field._k_zero] * self.dim
        rows = self._rows
        for i, a in enumerate(x):
            if not a:
                continue
            for j, coeffs in rows[i].items():
                b = y[j]
                if b:
                    f = a * b
                    for k, c in coeffs:
                        out[k] += f * c
        return out

    def _product(self, x: Sequence, y: Sequence) -> Vector:
        """xy ([x, y] in a Lie algebra) for x, y given in field scalars."""
        return self.field._from_k(self._product_k(self._k_vector(x), self._k_vector(y)))

    def _basis_product(self, i: int, j: int) -> Vector:
        """b_i b_j ([b_i, b_j] in a Lie algebra) as a coordinate vector."""
        out = [self.field._k_zero] * self.dim
        for k, c in self._rows[i].get(j, ()):
            out[k] = c
        return self.field._from_k(out)

    def canonical_json(self) -> str:
        return canonical_dumps(self.to_json_dict())


class LieAlgebra(_Presented):
    """Finite-dimensional Lie algebra over Q or F_p given by its table,
    which must satisfy Jacobi: a table that fails it raises StructureError.
    The private ``_validated`` skips that sweep for a table whose Jacobi
    identity is already known (a closed subspace, a copy) and for
    ``lielab validate``, which lists the violations."""

    __slots__ = ("field", "dim", "labels", "_rows", "_cache")
    _lie = True
    bracket = _Presented._product
    basis_bracket = _Presented._basis_product

    def __init__(self, field: Field, labels: Sequence[str], table, *, _validated: bool = False):
        labels = tuple(labels)
        self.field = field
        self.dim = len(labels)
        self.labels = labels
        self._rows = _clean_table(field, self.dim, table)
        self._cache: dict = {}
        if not _validated:
            bad = self.jacobi_violations()
            if bad:
                (i, j, k), defect = bad[0]
                raise StructureError(
                    f"Jacobi fails on basis triple ({i}, {j}, {k}): defect "
                    f"{[field.to_str(c) for c in defect]}"
                )

    # -- basic bracket machinery ------------------------------------------

    def zero_vector(self) -> Vector:
        return (self.field.zero,) * self.dim

    def ad(self, x: Sequence) -> Matrix:
        """Matrix of ad(x) = [x, -] in the defining basis: column j is the
        sum of x_i [b_i, b_j] over the nonzero x_i."""
        x = self._k_vector(x)
        n, p = self.dim, self.field.char
        rows = [[self.field._k_zero] * n for _ in range(n)]
        for i, xi in enumerate(x):
            if xi:
                for j, coeffs in self._rows[i].items():
                    for k, c in coeffs:
                        rows[k][j] += xi * c
        return Matrix._of_k(self.field, tuple([tuple([v % p for v in r]) for r in rows]) if p else rows, n)

    def ad_basis(self, i: int) -> Matrix:
        """ad b_i, built once and cached: ``ad`` of the int unit vector,
        which goes into kernel scalars with no field scalar built."""
        key = ("ad_basis", i)
        if key not in self._cache:
            self._cache[key] = self.ad([int(t == i) for t in range(self.dim)])
        return self._cache[key]

    def jacobi_violations(self) -> List[Tuple[Tuple[int, int, int], Vector]]:
        """All basis triples where the Jacobi identity fails, with their defects."""
        to_field = self.field._from_k
        return [(t, to_field(d)) for t, d in _jacobi_defects(self.field, self.dim, self._rows)]

    # -- subspace queries ---------------------------------------------------

    def center(self) -> Subspace:
        if "center" not in self._cache:
            stacked = [row for i in range(self.dim) for row in self.ad_basis(i)._k]
            self._cache["center"] = Matrix(self.field, stacked, self.dim).kernel()
        return self._cache["center"]

    def commutant(self) -> Subspace:
        """The derived subalgebra [L, L]."""
        if "commutant" not in self._cache:
            n, zero = self.dim, self.field._k_zero
            vecs = [_dense(dict(coeffs), n, zero) for _, _, coeffs in self._cells()]
            self._cache["commutant"] = Subspace._span_k(self.field, n, vecs)
        return self._cache["commutant"]

    def centralizer(self, x: Sequence) -> Subspace:
        return self.ad(x).kernel()

    def normalizer(self, space: Subspace) -> Subspace:
        """{y : [y, s] in S for all s in S}."""
        rows = []
        for s in space.rows:
            images = [space.reduce(self.bracket(self.basis_vector(m), s)) for m in range(self.dim)]
            for coord in range(self.dim):
                row = [images[m][coord] for m in range(self.dim)]
                if any(row):
                    rows.append(row)
        return Matrix(self.field, rows, ncols=self.dim).kernel()

    def bracket_span(self, a: Subspace, b: Subspace) -> Subspace:
        vecs = [self._product_k(u, v) for u in a._k for v in b._k]
        return Subspace._span_k(self.field, self.dim, vecs)

    def ideal_generated(self, vectors: Sequence[Sequence]) -> Subspace:
        """Smallest ideal containing the vectors: the closure of their span
        under [b_i, -] for every i (``_Echelon.close``, with the products
        by ``_product_k``)."""
        n, to_k = self.dim, self.field._to_k
        basis = [to_k(self.basis_vector(i)) for i in range(n)]
        return _Echelon(self.field, n).close(
            map(self._k_vector, vectors),
            # the walk leaves ints unreduced mod p, and add needs residues
            lambda v: (to_k(self._product_k(b, v)) for b in basis),
        ).subspace()

    def subalgebra_generated(self, vectors: Sequence[Sequence]) -> Subspace:
        """Smallest subalgebra containing the vectors: the closure
        (``_Echelon.close``) that brackets each kept vector with a dense
        snapshot of the echelon rows when it is taken.  Of two kept
        vectors, the later one taken finds the other in the span of its
        snapshot, so their bracket lies in the result."""
        n, zero, to_k = self.dim, self.field._k_zero, self.field._to_k
        ech = _Echelon(self.field, n)

        def images(v: list) -> Iterator[list]:
            rows = [_dense(row, n, zero) for row in ech.rows.values()]
            return (to_k(self._product_k(v, row)) for row in rows)

        return ech.close(map(self._k_vector, vectors), images).subspace()

    def is_ideal(self, space: Subspace) -> bool:
        """Whether [b_i, u] lies in the space for every b_i and every
        echelon row u, bracketed in kernel scalars (``_product_k``); a
        subspace over another field or of another ambient is refused."""
        if space.field != self.field:
            raise TypeError("subspace over another field")
        n = self.dim
        if space.ambient != n:
            raise ValueError(f"subspace of a dim {space.ambient} space in a dim {n} algebra")
        units = [[int(t == i) for t in range(n)] for i in range(n)]
        return all(space.contains(self._product_k(b, u)) for b in units for u in space._k)

    def is_subalgebra(self, space: Subspace) -> bool:
        return all(
            space.contains(self.bracket(u, v))
            for a, u in enumerate(space.rows)
            for v in space.rows[a + 1 :]
        )

    # -- reports -------------------------------------------------------------

    def _series(self, step: Callable[[Subspace], Subspace]) -> List[Subspace]:
        """L, then [L, L] (the cached commutant: the first step of both
        series), then step of the last term until it stops shrinking or
        reaches zero."""
        series = [Subspace.full_space(self.field, self.dim)]
        nxt = self.commutant()
        while nxt.dim < series[-1].dim:
            series.append(nxt)
            if nxt.is_zero():
                break
            nxt = step(nxt)
        return series

    def lower_central_series(self) -> List[Subspace]:
        full = Subspace.full_space(self.field, self.dim)
        return self._series(lambda s: self.bracket_span(full, s))

    def derived_series(self) -> List[Subspace]:
        return self._series(lambda s: self.bracket_span(s, s))

    def structure_report(self) -> "StructureReport":
        """The report, built once; each field is computed when first read."""
        report = self._cache.get("report")
        if report is None:
            report = self._cache["report"] = StructureReport(self)
        return report

    def killing_form(self) -> "BilinearForm":
        if "killing" in self._cache:
            return self._cache["killing"]
        n, zero = self.dim, self.field._k_zero
        # K_ij = tr(ad b_i ad b_j) = sum of (ad b_i)_rc (ad b_j)_cr over the
        # nonzero entries (r, c) of ad b_i
        ents = [_entries(self.ad_basis(i)._k) for i in range(n)]
        gram = [[zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                other = ents[j]
                gram[i][j] = gram[j][i] = sum(
                    (v * other[c, r] for (r, c), v in ents[i].items() if (c, r) in other), zero
                )
        form = BilinearForm(self, Matrix(self.field, gram, n))
        self._cache["killing"] = form
        return form

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        brackets = []
        for (i, j), cell in sorted(self.table.items()):
            coeffs = {str(k): self.field.to_str(c) for k, c in sorted(cell.items())}
            brackets.append({"i": i, "j": j, "coeffs": coeffs})
        return {
            "field": field_to_json(self.field),
            "dim": self.dim,
            "basis": list(self.labels),
            "brackets": brackets,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "LieAlgebra":
        return cls(*_parse_document(obj, "brackets"))

    def __repr__(self) -> str:
        return f"LieAlgebra(dim {self.dim} over {self.field!r})"


def _series_end(series: List[Subspace]) -> tuple:
    """Whether the series reaches zero, and then its length."""
    zero = series[-1].is_zero()
    return zero, len(series) - 1 if zero else None


def _killing_fields(L: LieAlgebra) -> tuple:
    killing = L.killing_form()
    killing_rank = killing.gram.rank()
    if L.field.kind != "Q":
        return killing_rank, None, None
    return killing_rank, killing.orthogonal_of(L.commutant()).dim, killing_rank == L.dim


# each report field -> the fields one computation gives, and that computation
_REPORT_FILL = {
    name: (names, fill)
    for names, fill in (
        (("abelian", "commutant_dim"), lambda L: (L.commutant().is_zero(), L.commutant().dim)),
        (("nilpotent", "nilpotency_class"), lambda L: _series_end(L.lower_central_series())),
        (("solvable", "derived_length"), lambda L: _series_end(L.derived_series())),
        (("center_dim",), lambda L: (L.center().dim,)),
        (("killing_rank", "radical_dim", "semisimple"), _killing_fields),
    )
    for name in names
}


class _ReportSource(_Record):
    """The slot for the algebra a report reads, kept in a base class so
    that it is not one of the record's fields."""

    __slots__ = ("_algebra",)


class StructureReport(_ReportSource):
    """Structural invariants of a Lie algebra, read from the algebra
    (``LieAlgebra.structure_report`` keeps one).  Its fields start unset
    but dim, and reading one computes its group (see ``_REPORT_FILL``).
    abelian => nilpotent => solvable is checked whenever both fields of a
    pair are known.
    """

    __slots__ = (
        "dim",
        "abelian",
        "nilpotent",
        "solvable",
        "nilpotency_class",
        "derived_length",
        "center_dim",
        "commutant_dim",
        "killing_rank",
        "radical_dim",
        "semisimple",
    )

    def __init__(self, L: LieAlgebra):
        self._algebra = L
        self.dim = L.dim

    def __getattr__(self, name: str):
        # reached only when the slot `name` is still unset
        if name not in _REPORT_FILL:
            raise AttributeError(name)
        names, fill = _REPORT_FILL[name]
        for key, value in zip(names, fill(self._algebra)):
            setattr(self, key, value)
        self._check()
        return object.__getattribute__(self, name)

    def _check(self) -> None:
        """abelian => nilpotent => solvable, over the fields already set;
        ``object.__getattribute__`` reads a slot without filling it."""
        get = object.__getattribute__
        for weak, strong in (("abelian", "nilpotent"), ("nilpotent", "solvable")):
            try:
                holds = not get(self, weak) or get(self, strong)
            except AttributeError:
                continue
            if not holds:
                raise StructureError(f"inconsistent report: {weak} but not {strong}")

    def to_json_dict(self) -> dict:
        return dict(zip(self.__slots__, self._values()))


class BilinearForm:
    """Symmetric bilinear form on an algebra, with invariance diagnosed on
    the first read of ``invariant``."""

    __slots__ = ("algebra", "gram", "nondegenerate", "_invariant")

    def __init__(self, algebra: LieAlgebra, gram: Matrix):
        if gram.m != algebra.dim or gram.n != algebra.dim:
            raise ValueError("Gram matrix shape does not match the algebra")
        self.algebra = algebra
        self.gram = gram
        self.nondegenerate = gram.rank() == algebra.dim
        self._invariant = None

    @property
    def invariant(self) -> bool:
        if self._invariant is None:
            self._invariant = self._check_invariance()
        return self._invariant

    def _check_invariance(self) -> bool:
        """<[b_i, b_j], b_k> = <b_i, [b_j, b_k]> for all i, j, k, that is
        G A_j + A_j^T G = 0 for every A_j = ad(b_j), summed in kernel
        scalars over the nonzero entries of A_j and of G."""
        g = self.gram._k
        rows = [[(c, x) for c, x in enumerate(row) if x] for row in g]
        cols = [[(r, row[c]) for r, row in enumerate(g) if row[c]] for c in range(len(g))]
        p = self.algebra.field.char
        for j in range(self.algebra.dim):
            acc: dict = {}
            for (t, s), v in _entries(self.algebra.ad_basis(j)._k).items():
                # G A_j: column s gains v * column t of G; A_j^T G: row s
                # gains v * row t of G
                for r, x in cols[t]:
                    acc[r, s] = acc.get((r, s), 0) + x * v
                for c, x in rows[t]:
                    acc[s, c] = acc.get((s, c), 0) + v * x
            if any(x % p if p else x for x in acc.values()):
                return False
        return True

    def evaluate(self, x: Sequence, y: Sequence) -> Scalar:
        xv = self.algebra.coerce_vector(x)
        yv = self.algebra.coerce_vector(y)
        acc = self.algebra.field.zero
        for i, xi in enumerate(xv):
            if not xi:
                continue
            row = self.gram.rows[i]
            for j, yj in enumerate(yv):
                if yj and row[j]:
                    acc = acc + xi * row[j] * yj
        return acc

    def orthogonal_of(self, space: Subspace) -> Subspace:
        rows = [self.gram.apply(u) for u in space.rows]
        return Matrix(self.algebra.field, rows, ncols=self.algebra.dim).kernel()


# ---------------------------------------------------------------------------
# associative algebras


class AssocAlgebra(_Presented):
    """Associative unital algebra by structure constants (all basis pairs)."""

    __slots__ = ("field", "dim", "labels", "_rows", "unit")
    _lie = False
    multiply = _Presented._product
    basis_product = _Presented._basis_product

    def __init__(self, field: Field, labels: Sequence[str], table, unit: Sequence):
        self.field = field
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self._rows = _clean_table(field, self.dim, table, lie=False)
        self.unit = tuple(field.of(c) for c in unit)
        if len(self.unit) != self.dim:
            raise StructureError("unit vector has wrong length")
        self._validate()

    def _validate(self) -> None:
        """The unit on both sides of every b_i, then (b_i b_j) b_k =
        b_i (b_j b_k) on every triple, each side reduced by ``_to_k``."""
        n, mul, to_k = self.dim, self._product_k, self.field._to_k
        basis = [to_k(self.basis_vector(i)) for i in range(n)]
        unit = to_k(self.unit)
        for i, bi in enumerate(basis):
            if to_k(mul(unit, bi)) != bi or to_k(mul(bi, unit)) != bi:
                raise StructureError(f"unit fails on basis element {i}")
        products = [[mul(bi, bj) for bj in basis] for bi in basis]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if to_k(mul(products[i][j], basis[k])) != to_k(mul(basis[i], products[j][k])):
                        raise StructureError(f"associativity fails on triple ({i}, {j}, {k})")

    def is_commutative(self) -> bool:
        return all(
            self.basis_product(i, j) == self.basis_product(j, i)
            for i in range(self.dim)
            for j in range(i + 1, self.dim)
        )

    def to_json_dict(self) -> dict:
        products, table = [], self.table
        for i in range(self.dim):
            for j in range(self.dim):
                coeffs = {str(k): self.field.to_str(c) for k, c in sorted(table.get((i, j), {}).items())}
                products.append({"i": i, "j": j, "coeffs": coeffs})
        return {
            "field": field_to_json(self.field),
            "dim": self.dim,
            "basis": list(self.labels),
            "products": products,
            "unit": [self.field.to_str(c) for c in self.unit],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "AssocAlgebra":
        field, labels, table = _parse_document(obj, "products")
        if "unit" not in obj or not isinstance(obj["unit"], list):
            raise StructureError("missing unit vector")
        if not all(isinstance(s, str) for s in obj["unit"]):
            raise StructureError("unit entries must be strings")
        unit = [field.parse(s) for s in obj["unit"]]
        return cls(field, labels, table, unit)

    def __repr__(self) -> str:
        return f"AssocAlgebra(dim {self.dim} over {self.field!r})"


def _parse_document(obj: dict, key: str) -> Tuple[Field, Tuple[str, ...], BracketTable]:
    """Field, labels and table of an algebra document whose entries are
    the list obj[key]: "brackets" (pairs i < j) or "products" (any pair)."""
    if not isinstance(obj, dict):
        raise StructureError("algebra file must contain a JSON object")
    for name in ("field", "dim", "basis"):
        if name not in obj:
            raise StructureError(f"missing {name!r}")
    field = field_from_json(obj["field"])
    labels = obj["basis"]
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise StructureError("basis must be a list of strings")
    if type(obj["dim"]) is not int:
        raise StructureError(f"dim must be an integer, got {obj['dim']!r}")
    if obj["dim"] != len(labels):
        raise StructureError(f"dim {obj['dim']} does not match basis length {len(labels)}")
    if key not in obj or not isinstance(obj[key], list):
        raise StructureError(f"missing {key} array")
    table: BracketTable = {}
    for entry in obj[key]:
        i, j, coeffs = _parse_entry(field, entry)
        if (i, j) in table:
            raise StructureError(f"duplicate {key[:-1]} entry for pair ({i}, {j})")
        table[(i, j)] = coeffs
    return field, tuple(labels), table


def _parse_entry(field: Field, entry) -> Tuple[int, int, Dict[int, Scalar]]:
    """(i, j, {k: coefficient}) of one entry; the ranges of i, j and k and
    the order of i and j are left to ``_clean_table``."""
    if not isinstance(entry, dict) or "i" not in entry or "j" not in entry:
        raise StructureError(f"bad table entry: {entry!r}")
    i, j = entry["i"], entry["j"]
    # ints, not bools or floats that hash like them, key the duplicate check
    if any(type(t) is not int for t in (i, j)):
        raise StructureError(f"table entry indices must be integers: {entry!r}")
    raw = entry.get("coeffs", {})
    if not isinstance(raw, dict):
        raise StructureError(f"coeffs must be an object in entry ({i}, {j})")
    coeffs = {}
    for k_str, c_str in raw.items():
        try:
            k = int(k_str)
        except ValueError as exc:
            raise StructureError(f"bad component index {k_str!r}") from exc
        if not isinstance(c_str, str):
            raise StructureError(f"coefficient {c_str!r} in entry ({i}, {j}) must be a string")
        coeffs[k] = field.parse(c_str)
    return i, j, coeffs


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# constructions


def quotient_with_projection(L: LieAlgebra, ideal: Subspace) -> Tuple[LieAlgebra, Callable[[Sequence], Vector]]:
    """Quotient algebra and the projection onto coset coordinates.

    Coset representatives are the basis vectors at the non-pivot
    coordinates of the ideal's echelon form.
    """
    if not L.is_ideal(ideal):
        raise StructureError("subspace is not an ideal")
    reps = ideal.complement_indices()

    def project(v: Sequence) -> Vector:
        reduced = ideal.reduce(L.coerce_vector(v))
        return tuple(reduced[c] for c in reps)

    pairs = itertools.combinations(range(len(reps)), 2)
    table = {(a, b): project(L.basis_bracket(reps[a], reps[b])) for a, b in pairs}
    labels = tuple(L.labels[c] for c in reps)
    return LieAlgebra(L.field, labels, table), project


def quotient(L: LieAlgebra, ideal: Subspace) -> LieAlgebra:
    return quotient_with_projection(L, ideal)[0]


def direct_sum(L1: LieAlgebra, L2: LieAlgebra) -> LieAlgebra:
    if L1.field != L2.field:
        raise TypeError("direct sum of algebras over different fields")
    n1 = L1.dim
    labels = tuple(f"{s}.1" for s in L1.labels) + tuple(f"{s}.2" for s in L2.labels)
    table = {(i, j): dict(cell) for i, j, cell in L1._cells()}
    table.update({(i + n1, j + n1): {k + n1: c for k, c in cell} for i, j, cell in L2._cells()})
    return LieAlgebra(L1.field, labels, table)


def tensor_commutative(L: LieAlgebra, A: AssocAlgebra) -> LieAlgebra:
    """Scalar extension L (x) A for commutative unital A:
    [x (x) a, y (x) b] = [x, y] (x) ab."""
    if L.field != A.field:
        raise TypeError("tensor factors over different fields")
    if not A.is_commutative():
        raise StructureError("tensor factor must be commutative")
    dA = A.dim
    labels = tuple(f"{x}(x){a}" for x in L.labels for a in A.labels)
    table: BracketTable = {}
    for i, j, coeffs in L._cells():
        for s, row in enumerate(A._rows):
            for t, prod in row.items():
                # in kernel scalars; the constructor reduces and drops zeros
                entry: dict = {}
                for k, c in coeffs:
                    for u, m in prod:
                        entry[k * dA + u] = entry.get(k * dA + u, 0) + c * m
                table[(i * dA + s, j * dA + t)] = entry
    return LieAlgebra(L.field, labels, table)


def _nonzero(row: dict, p: int) -> dict:
    """The nonzero entries of a sparse kernel row, reduced mod p (0 for Q)."""
    if p:
        return {k: x % p for k, x in row.items() if x % p}
    return {k: x for k, x in row.items() if x}


@functools.lru_cache(maxsize=None)
def _slots(n: int, k: int) -> Dict[tuple, int]:
    """The k-subsets of range(n) and their index in combinations order (shared: read only)."""
    return {T: s for s, T in enumerate(itertools.combinations(range(n), k))}


@functools.lru_cache(maxsize=None)
def _places(n: int, k: int) -> Dict[tuple, dict]:
    """w(b_q, b_R) = +-w(b_T) for q not in R, T = R + q sorted: places[R][q]
    is the slot of T and whether moving q to its place in T is odd."""
    places: Dict[tuple, dict] = {R: {} for R in itertools.combinations(range(n), k - 1)}
    for t, T in enumerate(_slots(n, k)):
        for pos, q in enumerate(T):
            places[T[:pos] + T[pos + 1 :]][q] = t, pos & 1
    return places


def _ad_rows(L: LieAlgebra, i: int) -> List[list]:
    """Row r of ad b_i as the list of its nonzero (s, [b_i, b_s]_r)."""
    return [[(s, c) for s, c in enumerate(row) if c] for row in L.ad_basis(i)._k]


def _coboundary_rows(L: LieAlgebra, k: int, ads: Optional[Sequence] = None) -> Iterator[dict]:
    """Sparse rows of d w = 0 for the Chevalley-Eilenberg coboundary
    d: C^k(L, M) -> C^(k+1)(L, M),
        (d w)(x_0..x_k) = sum_a (-1)^a x_a . w(..^x_a..)
                        + sum_{a<b} (-1)^(a+b) w([x_a, x_b], ..^x_a..^x_b..),
    M = K acted on trivially when ``ads`` is None, M = L when ads[i] is
    ``_ad_rows(L, i)``.  One row per (k+1)-subset S in combinations order
    and coordinate r of M, rows that vanish left out.  The unknown
    w(b_T)_r sits at r * C(n, k) + slot(T) (``_slots``): phi[r][t] at
    r * n + t for k = 1 on L (Der, matrices flattened row by row), the
    pair i < j in lexicographic order for k = 2 on K (Z^2).
    """
    n, p = L.dim, L.field.char
    slot, places = _slots(n, k), _places(n, k)
    width = len(slot)
    pairs = [(a, b, (a + b) & 1) for a, b in itertools.combinations(range(k + 1), 2)]
    table = L._rows
    for S in itertools.combinations(range(n), k + 1):
        terms: dict = {}
        for a, b, odd in pairs:
            cell = table[S[a]].get(S[b])
            if cell:
                at = places[S[:a] + S[a + 1 : b] + S[b + 1 :]]
                for m, c in cell:
                    if m in at:
                        t, neg = at[m]
                        terms[t] = terms.get(t, 0) + (-c if neg != odd else c)
        # the bracket terms, the same for each r; then (-1)^a b_s . w(b_(S - s))
        rows = [terms]
        if ads is not None:
            rows = [{r * width + t: c for t, c in terms.items()} for r in range(n)]
            for a, s in enumerate(S):
                face, neg = slot[S[:a] + S[a + 1 :]], a & 1
                for row, ad_row in zip(rows, ads[s]):
                    for t, c in ad_row:
                        row[t * width + face] = row.get(t * width + face, 0) + (-c if neg else c)
        for row in rows:
            if row and (row := _nonzero(row, p)):
                yield row


def _commutant_equations(L: LieAlgebra, *, diagonal: bool = True) -> Iterator[dict]:
    """Sparse rows of phi ad b_i - ad b_i phi = 0, unknown phi[r][k] at
    r * n + k as in ``_coboundary_rows``, whose solutions are the centroid.
    Entry (r, k) of block i is phi[b_i, b_k]_r - [b_i, phi b_k]_r, rows
    that vanish left out.  The b_i with the most nonzero brackets come
    first: the echelon basis is the same, and the floor of the identity is
    reached in fewer rows than in basis order on sl3, sl4 and sl5.
    ``diagonal=False`` leaves out the entries k = i, [b_i, phi b_i] = 0.
    """
    n, p = L.dim, L.field.char
    for i in sorted(range(n), key=lambda i: -len(L._rows[i])):
        cols = [[(s, c) for s, c in enumerate(col) if c] for col in zip(*L.ad_basis(i)._k)]
        for r, row in enumerate(_ad_rows(L, i)):
            for k, col in enumerate(cols):
                if diagonal or k != i:
                    eq = {r * n + s: c for s, c in col}
                    for s, c in row:
                        eq[s * n + k] = eq.get(s * n + k, 0) - c
                    if eq := _nonzero(eq, p):
                        yield eq


def _map_solutions(field: Field, n: int, rows: Iterable[dict], floor: int = 0) -> List[Matrix]:
    """The basis of the solution space of the sparse equation rows, as
    n x n matrices.  ``floor`` is the dimension of a space of maps known
    to solve every row (see ``_Echelon``): once the rank is n^2 - floor
    the rest of the rows are not read, and the basis is the full solve's."""
    return _square_matrices(field, n, _Echelon(field, n * n, rows, floor).kernel())


def _square_matrices(field: Field, n: int, space: Subspace) -> List[Matrix]:
    """The basis rows of a subspace of K^(n*n), unknown r * n + k, as n x n matrices."""
    return [Matrix(field, [sol[r * n : (r + 1) * n] for r in range(n)], n) for sol in space._k]


def _killing_route(L: LieAlgebra) -> bool:
    """Whether L has a nondegenerate Killing form: then every derivation
    is inner and H^2(L, K) = 0 (see ``derivation_algebra`` and
    ``h2_trivial``)."""
    return L.killing_form().nondegenerate


def _derivation_space(L: LieAlgebra) -> Subspace:
    """Der L in K^(n*n), each derivation flattened row by row (unknown
    r * n + k as in ``_coboundary_rows``); see ``derivation_algebra``."""
    n, field = L.dim, L.field
    if _killing_route(L):
        ads = ([x for row in L.ad_basis(i)._k for x in row] for i in range(n))
        kernel = _Echelon(field, n * n, ads).subspace()
        # ad is injective: a nondegenerate Killing form leaves no center
        _recheck(kernel.dim == n, "ad must be injective on an algebra with a nondegenerate Killing form")
        return kernel
    ads = [_ad_rows(L, i) for i in range(n)]
    kernel = _Echelon(field, n * n, _coboundary_rows(L, 1, ads), n - L.center().dim).kernel()
    # the floor took ad L to lie in the solutions: each flattened ad b_i
    # reduces to zero against them
    flat = ({r * n + s: c for r, row in enumerate(ad) for s, c in row} for ad in ads)
    _recheck(
        not any(_reduce(w, kernel._pivot_rows, field.char) for w in flat),
        "ad b_i must solve the derivation equations",
    )
    return kernel


def derivation_algebra(L: LieAlgebra) -> Tuple[LieAlgebra, List[Matrix]]:
    """The Lie algebra of derivations, with its matrix basis.

    The matrix basis is the reduced echelon basis of the derivations
    flattened row by row, unique for the space, so both routes give the
    same matrices.  When ``_killing_route`` holds (a nondegenerate Killing
    form kappa) it is read off the n flattened ad b_i in one elimination,
    because then Der L = ad L in any characteristic: M = ad L is an ideal
    of D = Der L, and kappa_D on M is the Killing form of M, which is
    kappa through ad; so D = M + M^perp with [M^perp, M] = 0, and for
    delta in M^perp, ad(delta x) = [delta, ad x] = 0 puts delta x in the
    center, which is 0.
    Every other table solves D[b_i, b_j] = [D b_i, b_j] + [b_i, D b_j]
    over all pairs, dD = 0 on C^1(L, L) (``_coboundary_rows``).  Among
    them is psl3 over F_3: its Killing form is 0, and it has 14
    derivations, not the 8 that the ``der-psl3f3`` check carries over from
    characteristic 0.  Jacobi puts ad L in Der L, so the solve has the
    floor n - dim Z(L) (see ``_Echelon``) and ends once Der L = ad L is
    certain (pgl3 over F_3).

    Two checks run here and raise ``RecheckFailed``: on the Killing route
    that ad is injective, on the solver route that every ad b_i solves the
    system.  The result's field, dim and labels are set here, its
    structure constants (``_derivation_table``) on the first read of its
    table (``_DerivationAlgebra``).  Their two checks, that each
    commutator of derivations stays in the solution space and the checked
    constructor's Jacobi sweep, run then, so their ``StructureError``
    surfaces at that first read, not in this call.
    """
    kernel = _derivation_space(L)
    mats = _square_matrices(L.field, L.dim, kernel)
    return _DerivationAlgebra(L.field, kernel, mats), mats


def _derivation_table(field: Field, kernel: Subspace, mats: Sequence[Matrix]) -> BracketTable:
    """The structure constants of the derivations ``mats``, the reduced
    echelon basis of ``kernel``: [D_a, D_b] = D_a D_b - D_b D_a from sparse
    rows in kernel scalars, whose coordinates are its entries at the
    pivots.  A commutator outside the space raises ``StructureError``."""
    p = field.char
    n = math.isqrt(kernel.ambient)
    sparse = [[_sparse(row) for row in m._k] for m in mats]
    negated = [[{c: -x for c, x in row.items()} for row in m] for m in sparse]

    def product(left, right, out: dict) -> dict:
        # out plus left right, flattened row by row
        for r, row in enumerate(left):
            for t, x in row.items():
                for c, y in right[t].items():
                    out[r * n + c] = out.get(r * n + c, 0) + x * y
        return out

    table: BracketTable = {}
    for a, b in itertools.combinations(range(len(mats)), 2):
        comm = _nonzero(product(negated[b], sparse[a], product(sparse[a], sparse[b], {})), p)
        if _reduce(dict(comm), kernel._pivot_rows, p):
            raise StructureError("commutator of derivations left the solution space")
        table[(a, b)] = {k: comm[q] for k, q in enumerate(kernel.pivots) if q in comm}
    return table


class _DerivationAlgebra(LieAlgebra):
    """Der L as ``derivation_algebra`` returns it.  Field, dim and labels
    D0, D1, ... are set at once; the table's rows (the ``_rows`` slot)
    start unset, and the first read builds them by ``_derivation_table``
    through the checked constructor: the fill-on-read of
    ``StructureReport``."""

    __slots__ = ("_space", "_mats")

    def __init__(self, field: Field, space: Subspace, mats: List[Matrix]):
        self.field = field
        self.dim = len(mats)
        self.labels = tuple(f"D{t}" for t in range(self.dim))
        self._cache = {}
        self._space, self._mats = space, mats

    def __getattr__(self, name: str):
        # reached only while the slot `name` is unset
        if name != "_rows":
            raise AttributeError(name)
        table = _derivation_table(self.field, self._space, self._mats)
        self._rows = LieAlgebra(self.field, self.labels, table)._rows
        return self._rows


def centroid(L: LieAlgebra) -> List[Matrix]:
    """_Echelon basis of maps with phi[x, y] = [phi x, y] = [x, phi y] on
    distinct basis vectors: the commutant rows of ad L off the diagonal,
    with the floor 1 of the identity (``_map_solutions``).  Without the
    diagonal rows, [b_i, phi b_i] = 0, the solutions are more than the
    centroid on some algebras that are not perfect (r2, the Heisenberg
    algebras); without ``diagonal=False`` this is the commutant that
    ``is_simple`` reads.
    """
    rows = _commutant_equations(L, diagonal=False)
    return _map_solutions(L.field, L.dim, rows, min(L.dim, 1))


def _monic_rational_irreducible(p: UniPoly) -> Optional[bool]:
    """Exact irreducibility over Q for monic polynomials of degree <= 4.

    Degrees 2 and 3 reduce to the rational root theorem; degree 4
    additionally needs the finite search for a monic quadratic factor
    with integer coefficients.  Returns None above degree 4.
    """
    deg = p.degree
    if deg <= 0:
        return False
    if deg == 1:
        return True
    if deg > 4:
        return None
    _, ints = _integral_monic(p)
    if _int_monic_rational_root(ints) is not None:
        return False
    return deg < 4 or not _int_monic_quartic_splits(ints)


def _integral_monic(p: UniPoly) -> Tuple[int, List[int]]:
    """m and the coefficients of m^deg p(s/m), a monic integer polynomial
    in s when m is the common denominator of the coefficients of p."""
    deg, m = p.degree, common_denominator(p.coeffs)
    vals = [c * m ** (deg - i) for i, c in enumerate(p.coeffs)]
    assert all(val.denominator == 1 for val in vals)
    return m, [int(val) for val in vals]


def _divisors(n: int) -> List[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.extend((d, n // d))
        d += 1
    return sorted(set(out))


def _int_monic_rational_root(ints: List[int]) -> Optional[int]:
    """A rational, so integral, root of a monic integer polynomial, or None."""
    c0 = ints[0]
    if c0 == 0:
        return 0
    for d in _divisors(c0):
        for root in (d, -d):
            acc = 0
            for c in reversed(ints):
                acc = acc * root + c
            if acc == 0:
                return root
    return None


def _int_monic_quartic_splits(ints: List[int]) -> bool:
    """Does a rootless monic integer quartic factor into two monic quadratics?

    By Gauss's lemma a rational quadratic factorization implies an
    integer one: t^4+p3 t^3+p2 t^2+p1 t+p0 = (t^2+a t+b)(t^2+c t+d).
    Callers have ruled out rational roots, so p0 != 0 and b | p0.
    """
    p0, p1, p2, p3, _ = ints
    for base in _divisors(p0):
        for b in (base, -base):
            if p0 % b:
                continue
            d = p0 // b
            # a + c = p3; ad + bc = p1; b + d + ac = p2
            if d != b:
                num = p1 - b * p3
                if num % (d - b):
                    continue
                a = num // (d - b)
                c = p3 - a
                if b + d + a * c == p2:
                    return True
            else:
                # d == b forces p1 = b(a + c) = b p3; then a, c solve
                # s^2 - p3 s + (p2 - 2b) with integer roots
                if p1 != b * p3:
                    continue
                disc = p3 * p3 - 4 * (p2 - 2 * b)
                if disc >= 0:
                    r = math.isqrt(disc)
                    if r * r == disc and (p3 + r) % 2 == 0:
                        return True
    return False


def is_simple(L: LieAlgebra) -> Verdict:
    """Simplicity: L is nonzero and perfect, with no proper nonzero ideal.

    Refuted: the zero algebra, a line (``not-perfect``), and otherwise
    ``proper-ideal`` from the first proper nonzero ideal among [L, L] (a
    line when L is abelian), the center and the Killing radical, whose
    first row generates a proper ideal.  After these L is perfect and
    centerless.  Over F_p: certified ``exhaustive`` with ``lines_decided``
    when the ad(b_i) generate End(L), a polynomial test that no cap gates;
    else the ideal of every line decides within EXHAUSTIVE_CAP (a proper
    one refutes through the same recheck as above), and past it the
    answer is inconclusive ``budget``.  Over Q the Killing form is
    now nondegenerate (Cartan's criterion: L is not solvable), so L is
    simple iff its centroid is a field.  The centroid is read as the
    commutant of ad L (``_commutant_equations``), solved with the floor 1
    of the identity map: on a simple L the solve ends at rank n^2 - 1,
    before the last blocks are read.  A centroid probe phi whose minimal
    polynomial has full degree decides: ``killing-centroid`` if that is
    irreducible, ``proper-ideal`` from ker(phi - l) at a rational root l
    (phi commutes with every ad), inconclusive ``centroid-splits`` if it
    factors otherwise; ``centroid-undecided`` when no probe decides.
    """
    n = L.dim
    if n == 0:
        return Verdict.refuted(witness=(), reason="zero algebra")
    if n == 1:
        return Verdict.refuted(L.basis_vector(0), reason="not-perfect", ideal_dim=0)
    for ideal in _known_ideals(L):
        if 0 < ideal.dim < n:
            return _refuted_by_ideal(L, ideal.rows[0])
    if L.field.kind == "Fp":
        p = L.field.p
        lines = (p**n - 1) // (p - 1)
        if _ad_envelope_is_full(L):
            return Verdict.certified("exhaustive", lines_decided=lines, envelope_dim=n * n)
        if p**n > EXHAUSTIVE_CAP:
            return Verdict.inconclusive(reason="budget", needed=p**n, cap=EXHAUSTIVE_CAP)
        for x in _projective_points(L.field, n):
            if L.ideal_generated([x]).dim < n:
                return _refuted_by_ideal(L, x)
        return Verdict.certified("exhaustive", lines_scanned=lines)
    _recheck(L.killing_form().nondegenerate, "Cartan's criterion: this perfect algebra has a nondegenerate Killing form")
    cent = _map_solutions(L.field, n, _commutant_equations(L), 1)
    cdim = len(cent)
    if cdim == 1:
        return Verdict.certified("killing-centroid", centroid_dim=1)
    for weights in _centroid_probe_weights(cdim):
        phi = Matrix.zeros(L.field, n, n)
        for w, mat in zip(weights, cent):
            phi = phi + mat.scale(w)
        mp = phi.min_poly()
        if mp.degree == cdim:
            m, ints = _integral_monic(mp)
            root = _int_monic_rational_root(ints)
            if root is not None:
                eigenspace = (phi - Matrix.identity(L.field, n).scale(L.field.of(root) / m)).kernel()
                return _refuted_by_ideal(L, eigenspace.rows[0])
            verdict = _monic_rational_irreducible(mp)
            if verdict is True:
                return Verdict.certified("killing-centroid", centroid_dim=cdim)
            if verdict is False:
                return Verdict.inconclusive(reason="centroid-splits", centroid_dim=cdim)
    return Verdict.inconclusive(reason="centroid-undecided", centroid_dim=cdim)


def _known_ideals(L: LieAlgebra) -> Iterator[Subspace]:
    """[L, L] (a line of L when L is abelian), the center and the Killing
    radical, each computed only when the one before it was not proper."""
    commutant = L.commutant()
    yield commutant if commutant.dim else Subspace.from_vectors(L.field, L.dim, [L.basis_vector(0)])
    yield L.center()
    yield L.killing_form().gram.kernel()


def _refuted_by_ideal(L: LieAlgebra, witness: Vector) -> Verdict:
    """Refute simplicity by the ideal the witness generates, rechecked by
    routes the closure does not take: the span holds the witness and is
    closed under every ad b_i (``is_ideal``)."""
    ideal = L.ideal_generated([witness])
    _recheck(0 < ideal.dim < L.dim, "the witness must generate a proper nonzero ideal")
    _recheck(ideal.contains(witness), "the witness must lie in the ideal it generates")
    _recheck(L.is_ideal(ideal), "the span the witness generates must be an ideal")
    return Verdict.refuted(witness, reason="proper-ideal", ideal_dim=ideal.dim)


def _ad_envelope_is_full(L: LieAlgebra) -> bool:
    """Whether the unital associative algebra generated by the ad(b_i) is
    all of End(L).  Its elements carry x onto the ideal x generates, so
    then every nonzero x generates L.  The closure (``_Echelon.close``) of
    the identity and the ad(b_i) under left multiplication by every
    ad(b_i), each matrix flattened row by row."""
    n = L.dim
    ads = [L.ad_basis(i) for i in range(n)]
    return _Echelon(L.field, n * n).close(
        [Matrix.identity(L.field, n)] + ads,
        lambda m: (a * m for a in ads),
        lambda m: [x for row in m._k for x in row],
    ).full


def _centroid_probe_weights(k: int):
    yield tuple(range(1, k + 1))
    yield tuple((i + 1) * (i + 1) for i in range(k))
    yield tuple(1 for _ in range(k))


def _projective_points(field, n: int) -> Iterator[Vector]:
    """One representative per line of F_p^n (first nonzero coordinate 1),
    in lexicographic order: the later the lead, the smaller the point.  A
    representative comes before its multiples, so the first point with a
    property that nonzero scaling keeps is one of these."""
    elements = tuple(field.elements())
    for lead in reversed(range(n)):
        for rest in itertools.product(elements, repeat=n - lead - 1):
            yield elements[:1] * lead + elements[1:2] + rest


def _point_index(field, x: Vector) -> int:
    """The base-p value of x, its place in itertools.product order."""
    return functools.reduce(lambda index, r: index * field.p + r, field._to_k(x), 0)


# ---------------------------------------------------------------------------
# cohomology and central extensions


def cocycle_space(L: LieAlgebra) -> Subspace:
    """Z^2(L, K), the kernel of d on C^2(L, K) (``_coboundary_rows``)."""
    return _Echelon(L.field, math.comb(L.dim, 2), _coboundary_rows(L, 2)).kernel()


def coboundary_space(L: LieAlgebra) -> Subspace:
    """B^2(L, K) = d C^1(L, K): forms f([x, y]), spanned by f = b_m^*."""
    idx = _slots(L.dim, 2)
    forms = [[L.field._k_zero] * len(idx) for _ in range(L.dim)]
    for i, j, coeffs in L._cells():
        for m, c in coeffs:
            forms[m][idx[(i, j)]] = c
    return Subspace._span_k(L.field, len(idx), forms)


def h2_trivial(L: LieAlgebra) -> Tuple[int, List[Dict[Tuple[int, int], Scalar]]]:
    """dim H^2(L, K) and cocycle representatives of a basis modulo B^2.

    When ``_killing_route`` holds (a nondegenerate Killing form kappa) the
    answer is (0, []) in any characteristic: kappa(D x, y) = omega(x, y)
    defines a linear D for each 2-cocycle omega, the cocycle identity
    makes D a kappa-skew derivation, which is inner
    (``derivation_algebra``), and for D = ad a,
    omega(x, y) = kappa(a, [x, y]) is a coboundary.  Every other table
    compares Z^2 with B^2.  Among them is psl3 over F_3: its Killing form
    is 0, and its H^2 has dimension 7, not the 1 that the ``h2-psl3f3``
    check carries over from characteristic 0.  Jacobi puts B^2 inside
    Z^2, so B^2 comes first and Z^2, the kernel of d on C^2(L, K)
    (``_coboundary_rows``), is solved with the floor dim B^2 (``_Echelon``):
    where H^2 = 0 (gl3 over Q and over F_5) the solve ends once Z^2 = B^2
    is certain.
    """
    if _killing_route(L):
        return 0, []
    b2 = coboundary_space(L)
    z2 = _Echelon(L.field, b2.ambient, _coboundary_rows(L, 2), b2.dim).kernel()
    dim = z2.dim - b2.dim
    pairs = list(_slots(L.dim, 2))
    reps = []
    span = _Echelon(L.field, b2.ambient, b2._k)
    for row, krow in zip(z2.rows, z2._k):
        if span.add(krow) is not None:
            reps.append({pairs[s]: c for s, c in enumerate(row) if c})
        if len(reps) == dim:
            break
    return dim, reps


def is_cocycle(L: LieAlgebra, omega: Dict[Tuple[int, int], Scalar]) -> bool:
    idx = _slots(L.dim, 2)
    vec = [L.field.zero] * len(idx)
    for (i, j), c in omega.items():
        if not (0 <= i < j < L.dim):
            raise ValueError(f"cocycle key ({i}, {j}) must satisfy i < j")
        vec[idx[(i, j)]] = L.field.of(c)
    return cocycle_space(L).contains(vec)


def central_extension(L: LieAlgebra, omega: Dict[Tuple[int, int], Scalar]) -> LieAlgebra:
    """L + K c with [x, y]_new = [x, y] + omega(x, y) c, c central."""
    if not is_cocycle(L, omega):
        raise StructureError("not a 2-cocycle; extension would break Jacobi")
    table = {(i, j): dict(cell) for i, j, cell in L._cells()}
    for (i, j), c in omega.items():
        table.setdefault((i, j), {})[L.dim] = c
    labels = L.labels + ("c",)
    return LieAlgebra(L.field, labels, table)
