"""Lie and associative algebras presented by structure constants.

A LieAlgebra stores its bracket sparsely: for each basis pair i < j a map
from basis index k to the coefficient of [b_i, b_j] in b_k.  Antisymmetry
is baked into the representation and the Jacobi identity is checked on
every basis triple at construction time (the table enumerator uses the
unchecked constructor and validates separately).

Everything downstream - structure reports, the Killing form,
quotients, sums, scalar extensions by a commutative algebra, derivations,
centroid, second cohomology with trivial coefficients, central
extensions - is exact linear algebra over the base field.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .budgets import DERIVATION_DIM_CAP, EXHAUSTIVE_CAP, BudgetExceeded
from .fields import (
    Field,
    MultiPoly,
    QQ,
    Scalar,
    UniPoly,
    field_from_json,
    field_to_json,
    is_squarefree,
)
from .linalg import _Echelon, Matrix, Subspace, Vector, vec_add, vec_is_zero, vec_scale, vec_sub
from .verdict import Verdict


class StructureError(ValueError):
    """A structure-constant table violates a required identity."""


BracketTable = Dict[Tuple[int, int], Dict[int, Scalar]]


def _clean_table(field: Field, dim: int, table) -> BracketTable:
    out: BracketTable = {}
    for (i, j), coeffs in table.items():
        if not (0 <= i < j < dim):
            raise StructureError(f"bracket pair ({i}, {j}) must satisfy 0 <= i < j < dim")
        cleaned = {}
        for k, c in coeffs.items():
            if not 0 <= k < dim:
                raise StructureError(f"bracket ({i}, {j}) names component {k} outside the basis")
            c = field.of(c) if isinstance(c, int) else c
            if not field.contains(c):
                raise StructureError(f"coefficient {c!r} is not a {field!r} scalar")
            if c:
                cleaned[k] = c
        if cleaned:
            out[(i, j)] = cleaned
    return out


class LieAlgebra:
    """Finite-dimensional Lie algebra over Q or F_p given by its table."""

    __slots__ = ("field", "dim", "labels", "table", "_cache")

    def __init__(self, field: Field, labels: Sequence[str], table, *, _validated: bool = False):
        labels = tuple(labels)
        self.field = field
        self.dim = len(labels)
        self.labels = labels
        self.table = _clean_table(field, self.dim, table)
        self._cache: dict = {}
        if not _validated:
            bad = self.jacobi_violations()
            if bad:
                (i, j, k), defect = bad[0]
                raise StructureError(
                    f"Jacobi fails on basis triple ({i}, {j}, {k}): defect "
                    f"{[field.to_str(c) for c in defect]}"
                )

    @classmethod
    def unchecked(cls, field: Field, labels: Sequence[str], table) -> "LieAlgebra":
        """Skip Jacobi validation; used by the bulk table enumerator."""
        return cls(field, labels, table, _validated=True)

    # -- basic bracket machinery ------------------------------------------

    def zero_vector(self) -> Vector:
        return (self.field.zero,) * self.dim

    def basis_vector(self, i: int) -> Vector:
        z, o = self.field.zero, self.field.one
        return tuple(o if t == i else z for t in range(self.dim))

    def coerce_vector(self, v: Sequence) -> Vector:
        if len(v) != self.dim:
            raise ValueError(f"vector of length {len(v)} in a dim {self.dim} algebra")
        return tuple(self.field.of(c) if isinstance(c, int) else c for c in v)

    def basis_bracket(self, i: int, j: int) -> Vector:
        """[b_i, b_j] as a coordinate vector."""
        z = self.field.zero
        out = [z] * self.dim
        if i == j:
            return tuple(out)
        key = (i, j) if i < j else (j, i)
        coeffs = self.table.get(key)
        if coeffs:
            if i < j:
                for k, c in coeffs.items():
                    out[k] = c
            else:
                for k, c in coeffs.items():
                    out[k] = -c
        return tuple(out)

    def _res_table(self) -> Tuple[Tuple[int, int, Tuple[Tuple[int, int], ...]], ...]:
        """Over F_p, the table as (i, j, ((k, c), ...)) with residues c,
        built once and kept in the cache."""
        table = self._cache.get("residue_table")
        if table is None:
            table = tuple(
                (i, j, tuple((k, c.r) for k, c in coeffs.items()))
                for (i, j), coeffs in self.table.items()
            )
            self._cache["residue_table"] = table
        return table

    def _res_vector(self, v: Sequence) -> List[int]:
        if len(v) != self.dim:
            raise ValueError(f"vector of length {len(v)} in a dim {self.dim} algebra")
        return self.field._to_k(v)

    def _res_bracket(self, x: Sequence[int], y: Sequence[int]) -> List[int]:
        out = [0] * self.dim
        for i, j, coeffs in self._res_table():
            f = x[i] * y[j] - x[j] * y[i]
            if f:
                for k, c in coeffs:
                    out[k] += f * c
        p = self.field.p
        return [c % p for c in out]

    def _res_ad(self, x: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
        n = self.dim
        rows = [[0] * n for _ in range(n)]
        for i, j, coeffs in self._res_table():
            xi, xj = x[i], x[j]
            if xi:
                for k, c in coeffs:
                    rows[k][j] += xi * c
            if xj:
                for k, c in coeffs:
                    rows[k][i] -= xj * c
        p = self.field.p
        return tuple(tuple(c % p for c in row) for row in rows)

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        if self.field.kind == "Fp":
            return self.field._from_k(
                self._res_bracket(self._res_vector(x), self._res_vector(y))
            )
        x = self.coerce_vector(x)
        y = self.coerce_vector(y)
        out = [self.field.zero] * self.dim
        for (i, j), coeffs in self.table.items():
            f = x[i] * y[j] - x[j] * y[i]
            if f:
                for k, c in coeffs.items():
                    out[k] = out[k] + f * c
        return tuple(out)

    def ad(self, x: Sequence) -> Matrix:
        """Matrix of ad(x) = [x, -] in the defining basis."""
        n = self.dim
        if self.field.kind == "Fp":
            return Matrix._of_k(self.field, self._res_ad(self._res_vector(x)), n)
        x = self.coerce_vector(x)
        rows = [[self.field.zero] * n for _ in range(n)]
        for (i, j), coeffs in self.table.items():
            xi, xj = x[i], x[j]
            if xi:
                for k, c in coeffs.items():
                    rows[k][j] = rows[k][j] + xi * c
            if xj:
                for k, c in coeffs.items():
                    rows[k][i] = rows[k][i] - xj * c
        return Matrix(self.field, rows, ncols=n)

    def ad_basis(self, i: int) -> Matrix:
        key = ("ad_basis", i)
        if key not in self._cache:
            self._cache[key] = self.ad(self.basis_vector(i))
        return self._cache[key]

    def jacobi_violations(self) -> List[Tuple[Tuple[int, int, int], Vector]]:
        """All basis triples where the Jacobi identity fails."""
        if self.field.kind == "Fp":
            return self._res_jacobi_violations()
        bad = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                bij = self.basis_bracket(i, j)
                for k in range(j + 1, self.dim):
                    defect = vec_add(
                        vec_add(
                            self.bracket(bij, self.basis_vector(k)),
                            self.bracket(self.basis_bracket(j, k), self.basis_vector(i)),
                        ),
                        self.bracket(self.basis_bracket(k, i), self.basis_vector(j)),
                    )
                    if not vec_is_zero(defect):
                        bad.append(((i, j, k), defect))
        return bad

    def _res_jacobi_violations(self) -> List[Tuple[Tuple[int, int, int], Vector]]:
        """Jacobi over the sparse residue table: the defect at (i, j, k) is
        sum_m c_ij^m [b_m, b_k] + c_jk^m [b_m, b_i] + c_ki^m [b_m, b_j]."""
        n, p = self.dim, self.field.p
        br: List[List[tuple]] = [[()] * n for _ in range(n)]
        for i, j, coeffs in self._res_table():
            br[i][j] = coeffs
            br[j][i] = tuple((k, p - c) for k, c in coeffs)
        bad = []
        for i, j, k in itertools.combinations(range(n), 3):
            defect = [0] * n
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for m, cm in br[a][b]:
                    for l, cl in br[m][c]:
                        defect[l] += cm * cl
            defect = [d % p for d in defect]
            if any(defect):
                bad.append(((i, j, k), self.field._from_k(defect)))
        return bad

    # -- subspace queries ---------------------------------------------------

    def center(self) -> Subspace:
        if "center" not in self._cache:
            stacked = [row for i in range(self.dim) for row in self.ad_basis(i)._k]
            self._cache["center"] = Matrix._of_k(self.field, stacked, self.dim).kernel()
        return self._cache["center"]

    def commutant(self) -> Subspace:
        """The derived subalgebra [L, L]."""
        if "commutant" not in self._cache:
            vecs = [self.basis_bracket(i, j) for (i, j) in self.table]
            self._cache["commutant"] = Subspace.from_vectors(self.field, self.dim, vecs)
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
        if self.field.kind == "Fp":
            vecs = [self._res_bracket(u, v) for u in a._k for v in b._k]
            return Subspace._span_k(self.field, self.dim, vecs)
        vecs = [self.bracket(u, v) for u in a.rows for v in b.rows]
        return Subspace.from_vectors(self.field, self.dim, vecs)

    def ideal_generated(self, vectors: Sequence[Sequence]) -> Subspace:
        """Smallest ideal containing the vectors: a worklist closure.

        Each vector that enlarges the echelon basis is pushed once; popping
        it adds ad(b_i) of it for every i, reduced against the basis, until
        nothing new appears or the basis is full.
        """
        ech = _Echelon(self.field, self.dim)
        todo = [ech.add(self.field._to_k(self.coerce_vector(v))) for v in vectors]
        todo = [w for w in todo if w is not None]
        ads = [self.ad_basis(i) for i in range(self.dim)]
        while todo and not ech.full:
            v = todo.pop()
            for a in ads:
                w = ech.add(a._apply_k(v))
                if w is not None:
                    todo.append(w)
        return ech.subspace()

    def subalgebra_generated(self, vectors: Sequence[Sequence]) -> Subspace:
        span = Subspace.from_vectors(self.field, self.dim, [self.coerce_vector(v) for v in vectors])
        while True:
            grown = span.sum_with(self.bracket_span(span, span))
            if grown.dim == span.dim:
                return span
            span = grown

    def is_ideal(self, space: Subspace) -> bool:
        return all(
            space.contains(self.bracket(self.basis_vector(i), u))
            for i in range(self.dim)
            for u in space.rows
        )

    def is_subalgebra(self, space: Subspace) -> bool:
        return all(
            space.contains(self.bracket(u, v))
            for a, u in enumerate(space.rows)
            for v in space.rows[a + 1 :]
        )

    # -- reports -------------------------------------------------------------

    def lower_central_series(self) -> List[Subspace]:
        full = Subspace.full_space(self.field, self.dim)
        series = [full]
        while True:
            nxt = self.bracket_span(full, series[-1])
            if nxt.dim == series[-1].dim:
                break
            series.append(nxt)
            if nxt.is_zero():
                break
        return series

    def derived_series(self) -> List[Subspace]:
        series = [Subspace.full_space(self.field, self.dim)]
        while True:
            nxt = self.bracket_span(series[-1], series[-1])
            if nxt.dim == series[-1].dim:
                break
            series.append(nxt)
            if nxt.is_zero():
                break
        return series

    def structure_report(self) -> "StructureReport":
        if "report" in self._cache:
            return self._cache["report"]
        lcs = self.lower_central_series()
        ds = self.derived_series()
        nilpotent = lcs[-1].is_zero()
        solvable = ds[-1].is_zero()
        commutant = self.commutant()
        center = self.center()
        killing = self.killing_form()
        killing_rank = killing.gram.rank()
        radical_dim: Optional[int] = None
        semisimple: Optional[bool] = None
        if self.field.kind == "Q":
            radical = killing.orthogonal_of(commutant)
            radical_dim = radical.dim
            semisimple = killing_rank == self.dim
        report = StructureReport(
            dim=self.dim,
            abelian=commutant.is_zero(),
            nilpotent=nilpotent,
            solvable=solvable,
            nilpotency_class=len(lcs) - 1 if nilpotent else None,
            derived_length=len(ds) - 1 if solvable else None,
            center_dim=center.dim,
            commutant_dim=commutant.dim,
            killing_rank=killing_rank,
            radical_dim=radical_dim,
            semisimple=semisimple,
        )
        self._cache["report"] = report
        return report

    def killing_form(self) -> "BilinearForm":
        if "killing" in self._cache:
            return self._cache["killing"]
        n = self.dim
        ads = [self.ad_basis(i) for i in range(n)]
        gram_rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if j < i:
                    row.append(gram_rows[j][i])
                else:
                    row.append((ads[i] * ads[j]).trace())
            gram_rows.append(row)
        gram = Matrix(self.field, gram_rows, ncols=n)
        form = BilinearForm(self, gram)
        self._cache["killing"] = form
        return form

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        brackets = []
        for (i, j) in sorted(self.table):
            coeffs = {str(k): self.field.to_str(c) for k, c in sorted(self.table[(i, j)].items())}
            brackets.append({"i": i, "j": j, "coeffs": coeffs})
        return {
            "field": field_to_json(self.field),
            "dim": self.dim,
            "basis": list(self.labels),
            "brackets": brackets,
        }

    @classmethod
    def from_json_dict(cls, obj: dict, *, validate: bool = True) -> "LieAlgebra":
        field, labels = _parse_common(obj)
        if "brackets" not in obj or not isinstance(obj["brackets"], list):
            raise StructureError("missing brackets array")
        table: BracketTable = {}
        for entry in obj["brackets"]:
            i, j, coeffs = _parse_entry(field, len(labels), entry)
            if i >= j:
                raise StructureError(f"bracket entry has i >= j: {entry!r}")
            if (i, j) in table:
                raise StructureError(f"duplicate bracket entry for pair ({i}, {j})")
            table[(i, j)] = coeffs
        if validate:
            return cls(field, labels, table)
        return cls.unchecked(field, labels, table)

    def canonical_json(self) -> str:
        return canonical_dumps(self.to_json_dict())

    def rename(self, labels: Sequence[str]) -> "LieAlgebra":
        return LieAlgebra.unchecked(self.field, labels, self.table)

    def __repr__(self) -> str:
        return f"LieAlgebra(dim {self.dim} over {self.field!r})"


@dataclass
class StructureReport:
    dim: int
    abelian: bool
    nilpotent: bool
    solvable: bool
    nilpotency_class: Optional[int]
    derived_length: Optional[int]
    center_dim: int
    commutant_dim: int
    killing_rank: int
    radical_dim: Optional[int]
    semisimple: Optional[bool]

    def __post_init__(self):
        # abelian => nilpotent => solvable, recorded defensively
        if self.abelian and not self.nilpotent:
            raise StructureError("inconsistent report: abelian but not nilpotent")
        if self.nilpotent and not self.solvable:
            raise StructureError("inconsistent report: nilpotent but not solvable")

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "abelian": self.abelian,
            "nilpotent": self.nilpotent,
            "solvable": self.solvable,
            "nilpotency_class": self.nilpotency_class,
            "derived_length": self.derived_length,
            "center_dim": self.center_dim,
            "commutant_dim": self.commutant_dim,
            "killing_rank": self.killing_rank,
            "radical_dim": self.radical_dim,
            "semisimple": self.semisimple,
        }


class BilinearForm:
    """Symmetric bilinear form on an algebra, with invariance diagnosed."""

    __slots__ = ("algebra", "gram", "invariant", "nondegenerate")

    def __init__(self, algebra: LieAlgebra, gram: Matrix):
        if gram.m != algebra.dim or gram.n != algebra.dim:
            raise ValueError("Gram matrix shape does not match the algebra")
        self.algebra = algebra
        self.gram = gram
        self.invariant = self._check_invariance()
        self.nondegenerate = gram.rank() == algebra.dim

    def _check_invariance(self) -> bool:
        """<[b_i, b_j], b_k> = <b_i, [b_j, b_k]> for all i, j, k, that is
        G A_j + A_j^T G = 0 for every A_j = ad(b_j)."""
        g = self.gram
        for j in range(self.algebra.dim):
            a = self.algebra.ad_basis(j)
            if not (g * a + a.transpose() * g).is_zero():
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


class AssocAlgebra:
    """Associative unital algebra by structure constants (all basis pairs)."""

    __slots__ = ("field", "dim", "labels", "table", "unit")

    def __init__(self, field: Field, labels: Sequence[str], table, unit: Sequence):
        self.field = field
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        cleaned: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
        for (i, j), coeffs in table.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise StructureError(f"product pair ({i}, {j}) out of range")
            entry = {}
            for k, c in coeffs.items():
                if not 0 <= k < self.dim:
                    raise StructureError(f"product ({i}, {j}) names component {k} out of range")
                c = field.of(c) if isinstance(c, int) else c
                if c:
                    entry[k] = c
            if entry:
                cleaned[(i, j)] = entry
        self.table = cleaned
        self.unit = tuple(field.of(c) if isinstance(c, int) else c for c in unit)
        if len(self.unit) != self.dim:
            raise StructureError("unit vector has wrong length")
        self._validate()

    def basis_vector(self, i: int) -> Vector:
        z, o = self.field.zero, self.field.one
        return tuple(o if t == i else z for t in range(self.dim))

    def basis_product(self, i: int, j: int) -> Vector:
        z = self.field.zero
        out = [z] * self.dim
        for k, c in self.table.get((i, j), {}).items():
            out[k] = c
        return tuple(out)

    def multiply(self, x: Sequence, y: Sequence) -> Vector:
        x = tuple(self.field.of(c) if isinstance(c, int) else c for c in x)
        y = tuple(self.field.of(c) if isinstance(c, int) else c for c in y)
        out = [self.field.zero] * self.dim
        for (i, j), coeffs in self.table.items():
            f = x[i] * y[j]
            if f:
                for k, c in coeffs.items():
                    out[k] = out[k] + f * c
        return tuple(out)

    def _validate(self) -> None:
        n = self.dim
        for i in range(n):
            bi = self.basis_vector(i)
            if self.multiply(self.unit, bi) != bi or self.multiply(bi, self.unit) != bi:
                raise StructureError(f"unit fails on basis element {i}")
        for i in range(n):
            for j in range(n):
                ij = self.basis_product(i, j)
                for k in range(n):
                    left = self.multiply(ij, self.basis_vector(k))
                    right = self.multiply(self.basis_vector(i), self.basis_product(j, k))
                    if left != right:
                        raise StructureError(f"associativity fails on triple ({i}, {j}, {k})")

    def is_commutative(self) -> bool:
        return all(
            self.basis_product(i, j) == self.basis_product(j, i)
            for i in range(self.dim)
            for j in range(i + 1, self.dim)
        )

    def to_json_dict(self) -> dict:
        products = []
        for i in range(self.dim):
            for j in range(self.dim):
                coeffs = {
                    str(k): self.field.to_str(c)
                    for k, c in sorted(self.table.get((i, j), {}).items())
                }
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
        field, labels = _parse_common(obj)
        if "products" not in obj or not isinstance(obj["products"], list):
            raise StructureError("missing products array")
        if "unit" not in obj or not isinstance(obj["unit"], list):
            raise StructureError("missing unit vector")
        table: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
        for entry in obj["products"]:
            i, j, coeffs = _parse_entry(field, len(labels), entry)
            if (i, j) in table:
                raise StructureError(f"duplicate product entry for pair ({i}, {j})")
            table[(i, j)] = coeffs
        if not all(isinstance(s, str) for s in obj["unit"]):
            raise StructureError("unit entries must be strings")
        unit = [field.parse(s) for s in obj["unit"]]
        return cls(field, labels, table, unit)

    def canonical_json(self) -> str:
        return canonical_dumps(self.to_json_dict())

    def __repr__(self) -> str:
        return f"AssocAlgebra(dim {self.dim} over {self.field!r})"


def _parse_common(obj: dict) -> Tuple[Field, Tuple[str, ...]]:
    if not isinstance(obj, dict):
        raise StructureError("algebra file must contain a JSON object")
    for key in ("field", "dim", "basis"):
        if key not in obj:
            raise StructureError(f"missing {key!r}")
    field = field_from_json(obj["field"])
    labels = obj["basis"]
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise StructureError("basis must be a list of strings")
    if obj["dim"] != len(labels):
        raise StructureError(f"dim {obj['dim']} does not match basis length {len(labels)}")
    return field, tuple(labels)


def _parse_entry(field: Field, dim: int, entry) -> Tuple[int, int, Dict[int, Scalar]]:
    if not isinstance(entry, dict) or "i" not in entry or "j" not in entry:
        raise StructureError(f"bad table entry: {entry!r}")
    i, j = entry["i"], entry["j"]
    if any(type(t) is not int for t in (i, j)) or not (0 <= i < dim and 0 <= j < dim):
        raise StructureError(f"table entry indices must be integers in range: {entry!r}")
    raw = entry.get("coeffs", {})
    if not isinstance(raw, dict):
        raise StructureError(f"coeffs must be an object in entry ({i}, {j})")
    coeffs = {}
    for k_str, c_str in raw.items():
        try:
            k = int(k_str)
        except ValueError as exc:
            raise StructureError(f"bad component index {k_str!r}") from exc
        if not 0 <= k < dim:
            raise StructureError(f"component index {k} out of range in entry ({i}, {j})")
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
    pos = {c: t for t, c in enumerate(reps)}

    def project(v: Sequence) -> Vector:
        reduced = ideal.reduce(L.coerce_vector(v))
        return tuple(reduced[c] for c in reps)

    table: BracketTable = {}
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            img = project(L.basis_bracket(reps[a], reps[b]))
            coeffs = {k: c for k, c in enumerate(img) if c}
            if coeffs:
                table[(a, b)] = coeffs
    labels = tuple(L.labels[c] for c in reps)
    return LieAlgebra(L.field, labels, table), project


def quotient(L: LieAlgebra, ideal: Subspace) -> LieAlgebra:
    return quotient_with_projection(L, ideal)[0]


def direct_sum(L1: LieAlgebra, L2: LieAlgebra) -> LieAlgebra:
    if L1.field != L2.field:
        raise TypeError("direct sum of algebras over different fields")
    n1 = L1.dim
    labels = tuple(f"{s}.1" for s in L1.labels) + tuple(f"{s}.2" for s in L2.labels)
    table: BracketTable = {}
    for (i, j), coeffs in L1.table.items():
        table[(i, j)] = dict(coeffs)
    for (i, j), coeffs in L2.table.items():
        table[(i + n1, j + n1)] = {k + n1: c for k, c in coeffs.items()}
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
    for (i, j), coeffs in L.table.items():
        for s in range(dA):
            for t in range(dA):
                prod = A.basis_product(s, t)
                p = i * dA + s
                q = j * dA + t
                entry: Dict[int, Scalar] = {}
                for k, c in coeffs.items():
                    for u, m in enumerate(prod):
                        if m:
                            idx = k * dA + u
                            cur = entry.get(idx, L.field.zero) + c * m
                            if cur:
                                entry[idx] = cur
                            elif idx in entry:
                                del entry[idx]
                if entry:
                    table[(p, q)] = entry
    return LieAlgebra(L.field, labels, table)


def _map_equations(L: LieAlgebra) -> Iterator[tuple]:
    """Linear equations on the entries of a map phi of L, unknown phi[r][k]
    at index r * n + k.

    For each pair i < j and each coordinate r, yields the r-th coordinates
    of phi[b_i, b_j], [phi b_i, b_j] and [b_i, phi b_j].  Each part is
    (offset, [(key, c), ...]): coefficient c on the unknown offset + key.
    Pairs with a zero bracket yield equations too: their first part is
    empty.
    """
    n = L.dim
    bra = [[L.basis_bracket(s, j) for j in range(n)] for s in range(n)]
    # nonzero structure constants by output coordinate r, keyed s * n:
    # [b_s, b_j]_r in left[j][r] and [b_i, b_s]_r in right[i][r]
    left = [[[(s * n, bra[s][j][r]) for s in range(n) if bra[s][j][r]] for r in range(n)] for j in range(n)]
    right = [[[(s * n, bra[i][s][r]) for s in range(n) if bra[i][s][r]] for r in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            image = tuple(L.table.get((i, j), {}).items())
            for r in range(n):
                yield (r * n, image), (i, left[j][r]), (j, right[i][r])


def _equation_row(field: Field, n: int, image, *brackets) -> list:
    """Dense row of image minus the bracket parts, over the n * n unknowns."""
    row = [field.zero] * (n * n)
    offset, part = image
    for key, c in part:
        row[offset + key] = row[offset + key] + c
    for offset, part in brackets:
        for key, c in part:
            row[offset + key] = row[offset + key] - c
    return row


def _map_solutions(field: Field, n: int, rows: list) -> Tuple[Subspace, List[Matrix]]:
    """Solution space of the equations, and its rows as n x n matrices."""
    kernel = Matrix(field, rows, ncols=n * n).kernel()
    return kernel, [Matrix(field, [sol[r * n : (r + 1) * n] for r in range(n)], ncols=n) for sol in kernel.rows]


def derivation_algebra(L: LieAlgebra) -> Tuple[LieAlgebra, List[Matrix]]:
    """The Lie algebra of derivations, with its matrix basis.

    Solves D[b_i, b_j] = [D b_i, b_j] + [b_i, D b_j] over all pairs.  The
    result's structure constants come from commutators of the canonical
    kernel basis.
    """
    n = L.dim
    if L.field.kind == "Fp" and n > DERIVATION_DIM_CAP:
        raise BudgetExceeded(
            f"derivation algebra over F_p limited to dim <= {DERIVATION_DIM_CAP}, got {n}"
        )
    field = L.field
    rows = []
    for image, left, right in _map_equations(L):
        row = _equation_row(field, n, image, left, right)
        if any(row):
            rows.append(row)
    kernel, mats = _map_solutions(field, n, rows)

    def flatten(mat: Matrix) -> Vector:
        return tuple(c for row in mat.rows for c in row)

    def coords(mat: Matrix) -> Vector:
        got = kernel.coords_of(flatten(mat))
        if got is None:
            raise StructureError("commutator of derivations left the solution space")
        return got

    table: BracketTable = {}
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            comm = mats[a] * mats[b] - mats[b] * mats[a]
            cs = {k: c for k, c in enumerate(coords(comm)) if c}
            if cs:
                table[(a, b)] = cs
    labels = tuple(f"D{t}" for t in range(len(mats)))
    return LieAlgebra(field, labels, table), mats


def centroid(L: LieAlgebra) -> List[Matrix]:
    """_Echelon basis of maps commuting with all brackets:
    phi[x, y] = [phi x, y] = [x, phi y]."""
    n = L.dim
    field = L.field
    rows = []
    for image, left, right in _map_equations(L):
        for row in (_equation_row(field, n, image, left), _equation_row(field, n, image, right)):
            if any(row):
                rows.append(row)
    return _map_solutions(field, n, rows)[1]


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
    # substitute t -> s/m to land on a monic integer polynomial
    m = 1
    for c in p.coeffs:
        m = m * c.denominator // math.gcd(m, c.denominator)
    ints = []
    for i, c in enumerate(p.coeffs):
        val = c * m ** (deg - i)
        assert val.denominator == 1
        ints.append(int(val))
    if _int_monic_has_rational_root(ints):
        return False
    if deg < 4:
        return True
    return not _int_monic_quartic_splits(ints)


def _divisors(n: int) -> List[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.extend((d, n // d))
        d += 1
    return sorted(set(out))


def _int_monic_has_rational_root(ints: List[int]) -> bool:
    c0 = ints[0]
    if c0 == 0:
        return True
    for d in _divisors(c0):
        for root in (d, -d):
            acc = 0
            for c in reversed(ints):
                acc = acc * root + c
            if acc == 0:
                return True
    return False


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
    """Simplicity: no proper nonzero ideals and [L, L] = L.

    Over small F_p every line's generated ideal is scanned; over Q the
    certificate route is nondegenerate Killing form plus a centroid that
    is a field (irreducible minimal polynomial of full centroid degree,
    decided exactly up to degree 4).
    """
    n = L.dim
    if n == 0:
        return Verdict.refuted(witness=(), reason="zero algebra")
    commutant = L.commutant()
    if commutant.dim < n:
        # not perfect: refute via the commutant, or any line of an abelian L
        if n == 1:
            return Verdict.refuted(L.basis_vector(0), reason="not-perfect", ideal_dim=commutant.dim)
        witness_vec = commutant.rows[0] if not commutant.is_zero() else L.basis_vector(0)
        ideal = L.ideal_generated([witness_vec])
        if 0 < ideal.dim < n:
            return Verdict.refuted(witness_vec, reason="proper-ideal", ideal_dim=ideal.dim)
        return Verdict.refuted(witness_vec, reason="not-perfect", ideal_dim=commutant.dim)
    for candidate in (L.center(), L.killing_form().gram.kernel()):
        if 0 < candidate.dim < n:
            witness_vec = candidate.rows[0]
            ideal = L.ideal_generated([witness_vec])
            if 0 < ideal.dim < n:
                return Verdict.refuted(witness_vec, reason="proper-ideal", ideal_dim=ideal.dim)
    if L.field.kind == "Fp":
        total = L.field.p**n
        if total > EXHAUSTIVE_CAP:
            return Verdict.inconclusive(reason="budget", needed=total, cap=EXHAUSTIVE_CAP)
        lines = _projective_points(L.field, n)
        for x in lines:
            ideal = L.ideal_generated([x])
            if ideal.dim < n:
                return Verdict.refuted(x, reason="proper-ideal", ideal_dim=ideal.dim)
        return Verdict.certified("exhaustive", lines_scanned=len(lines))
    # Q route
    killing = L.killing_form()
    if not killing.nondegenerate:
        radical = killing.gram.kernel()
        if 0 < radical.dim < n:
            witness_vec = radical.rows[0]
            ideal = L.ideal_generated([witness_vec])
            if 0 < ideal.dim < n:
                return Verdict.refuted(witness_vec, reason="proper-ideal", ideal_dim=ideal.dim)
        return Verdict.inconclusive(reason="degenerate-killing-no-witness")
    cent = centroid(L)
    cdim = len(cent)
    if cdim == 1:
        return Verdict.certified("killing-centroid", centroid_dim=1)
    for weights in _centroid_probe_weights(cdim):
        phi = Matrix.zeros(L.field, n, n)
        for w, mat in zip(weights, cent):
            phi = phi + mat.scale(w)
        mp = phi.min_poly()
        if mp.degree == cdim:
            verdict = _monic_rational_irreducible(mp)
            if verdict is True:
                return Verdict.certified("killing-centroid", centroid_dim=cdim)
            if verdict is False:
                return Verdict.inconclusive(reason="centroid-splits", centroid_dim=cdim)
    return Verdict.inconclusive(reason="centroid-undecided", centroid_dim=cdim)


def _centroid_probe_weights(k: int):
    yield tuple(range(1, k + 1))
    yield tuple((i + 1) * (i + 1) for i in range(k))
    yield tuple(1 for _ in range(k))


def _projective_points(field, n: int) -> List[Vector]:
    """One representative per line of F_p^n: first nonzero coordinate 1."""
    from itertools import product as iproduct

    p = field.p
    pts = []
    for lead in range(n):
        tail = n - lead - 1
        for rest in iproduct(range(p), repeat=tail):
            vec = [0] * lead + [1] + list(rest)
            pts.append(tuple(field.of(c) for c in vec))
    return pts


# ---------------------------------------------------------------------------
# cohomology and central extensions


def _pair_index(n: int) -> Dict[Tuple[int, int], int]:
    idx = {}
    for i in range(n):
        for j in range(i + 1, n):
            idx[(i, j)] = len(idx)
    return idx


def cocycle_space(L: LieAlgebra) -> Subspace:
    """Z^2(L, K): alternating forms with w([x,y],z) + cyclic = 0."""
    n = L.dim
    idx = _pair_index(n)
    unknowns = len(idx)
    zero = L.field.zero

    def add_term(row, vec, k):
        # contributes w(vec, b_k) expanded in the unknowns
        for m, c in enumerate(vec):
            if not c or m == k:
                continue
            if m < k:
                row[idx[(m, k)]] = row[idx[(m, k)]] + c
            else:
                row[idx[(k, m)]] = row[idx[(k, m)]] - c

    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                row = [zero] * unknowns
                add_term(row, L.basis_bracket(i, j), k)
                add_term(row, L.basis_bracket(j, k), i)
                add_term(row, L.basis_bracket(k, i), j)
                if any(row):
                    rows.append(row)
    return Matrix(L.field, rows, ncols=unknowns).kernel()


def coboundary_space(L: LieAlgebra) -> Subspace:
    """B^2(L, K): forms f([x, y]) for functionals f."""
    n = L.dim
    idx = _pair_index(n)
    cols = []
    for m in range(n):
        col = [L.field.zero] * len(idx)
        for (i, j), slot in idx.items():
            col[slot] = L.basis_bracket(i, j)[m]
        cols.append(col)
    return Matrix.from_columns(L.field, cols, len(idx)).image()


def h2_trivial(L: LieAlgebra) -> Tuple[int, List[Dict[Tuple[int, int], Scalar]]]:
    """dim H^2(L, K) and cocycle representatives of a basis modulo B^2."""
    z2 = cocycle_space(L)
    b2 = coboundary_space(L)
    dim = z2.dim - b2.dim
    idx = _pair_index(L.dim)
    back = {slot: pair for pair, slot in idx.items()}
    reps = []
    span = b2
    for row in z2.rows:
        grown = span.sum_with(Subspace.from_vectors(L.field, len(idx), [row]))
        if grown.dim > span.dim:
            span = grown
            reps.append({back[s]: c for s, c in enumerate(row) if c})
        if len(reps) == dim:
            break
    return dim, reps


def is_cocycle(L: LieAlgebra, omega: Dict[Tuple[int, int], Scalar]) -> bool:
    idx = _pair_index(L.dim)
    vec = [L.field.zero] * len(idx)
    for (i, j), c in omega.items():
        if not (0 <= i < j < L.dim):
            raise ValueError(f"cocycle key ({i}, {j}) must satisfy i < j")
        vec[idx[(i, j)]] = L.field.of(c) if isinstance(c, int) else c
    return cocycle_space(L).contains(vec)


def central_extension(L: LieAlgebra, omega: Dict[Tuple[int, int], Scalar]) -> LieAlgebra:
    """L + K c with [x, y]_new = [x, y] + omega(x, y) c, c central."""
    if not is_cocycle(L, omega):
        raise StructureError("not a 2-cocycle; extension would break Jacobi")
    n = L.dim
    table: BracketTable = {}
    for (i, j), coeffs in L.table.items():
        table[(i, j)] = dict(coeffs)
    for (i, j), c in omega.items():
        c = L.field.of(c) if isinstance(c, int) else c
        if not c:
            continue
        entry = table.setdefault((i, j), {})
        entry[n] = c
    labels = L.labels + ("c",)
    return LieAlgebra(L.field, labels, table)
