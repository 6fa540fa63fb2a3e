"""Writing elements as single brackets, and minimality scans.

The rank-one solver turns the orthogonality relation between the two
Fitting components into an effective procedure: for a rank-one algebra
with a nondegenerate invariant form, a trace-free target is hit by
bracketing against a suitable vector orthogonal to it.  The quaternion
entry point runs that solver on the trace-zero part and rechecks the
answer in the associative table, so the two routes stay independent.
"""
from __future__ import annotations

from itertools import combinations, product as iproduct
from typing import Iterator, Optional, Sequence, Tuple

from .algebra import BilinearForm, LieAlgebra
from .budgets import SEARCH_HEIGHT, SUBSPACE_CAP, BudgetExceeded
from .catalog import QuaternionAlgebra, is_division, reduced_trace
from .fields import Field
from .linalg import Subspace, Vector, vec_is_zero, vec_scale
from .regularity import _search_schedule, fitting_set, is_regular_algebra, rank
from .verdict import _Record, RecheckFailed, Verdict


class CommutatorWitness(_Record):
    """A pair (z, y) with [z, y] = target, rechecked at construction and
    read-only after it."""

    __slots__ = ("algebra", "target", "z", "y", "provenance")

    def __init__(self, algebra: LieAlgebra, target: Vector, z: Vector, y: Vector, provenance: str):
        if algebra.bracket(z, y) != algebra.coerce_vector(target):
            raise ValueError("witness recheck failed: [z, y] != target")
        for name, value in zip(self.__slots__, (algebra, target, z, y, provenance)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


def _require_geometry(L: LieAlgebra, form: BilinearForm) -> None:
    if form.algebra is not L:
        raise ValueError("form belongs to a different algebra")
    g = form.gram
    if any(g.rows[i][j] != g.rows[j][i] for i in range(g.m) for j in range(i)):
        raise ValueError("form must be symmetric")
    if not form.invariant:
        raise ValueError("form must be invariant")
    if not form.nondegenerate:
        raise ValueError("form must be nondegenerate")


def orthogonal_complement(form: BilinearForm, space: Subspace) -> Subspace:
    """All v with form(u, v) = 0 for every u in the space."""
    return form.orthogonal_of(space)


class FittingOrthogonality(_Record):
    """Both sides of the complement identity for one almost-commuting set."""

    __slots__ = ("null_component", "one_component", "null_perp")

    def __init__(self, null_component: Subspace, one_component: Subspace, null_perp: Subspace):
        self.null_component = null_component
        self.one_component = one_component
        self.null_perp = null_perp

    @property
    def equal(self) -> bool:
        return self.null_perp == self.one_component


def fitting_orthogonality(
    L: LieAlgebra, form: BilinearForm, xs: Sequence[Sequence]
) -> FittingOrthogonality:
    """Compare the orthogonal complement of the joint null component
    against the joint one-component, under a nondegenerate invariant
    symmetric form."""
    _require_geometry(L, form)
    dec = fitting_set(L, [L.coerce_vector(x) for x in xs])
    return FittingOrthogonality(dec.null, dec.one, form.orthogonal_of(dec.null))


def rank1_commutator(L: LieAlgebra, form: BilinearForm, x: Sequence) -> CommutatorWitness:
    """Solve [z, y] = x in a rank-one algebra carrying a nondegenerate
    invariant symmetric form.

    y runs through the echelon basis of the orthogonal complement of x;
    the first one whose bracket map reaches x wins.  Free coordinates of
    z are pinned to zero, so the witness is deterministic.
    """
    _require_geometry(L, form)
    x = L.coerce_vector(x)
    if vec_is_zero(x):
        raise ValueError("target must be nonzero")
    if rank(L) != 1:
        raise ValueError("solver needs a rank-one algebra")
    perp = form.orthogonal_of(Subspace.from_vectors(L.field, L.dim, [x]))
    minus_x = vec_scale(x, -L.field.one)
    for y in perp.rows:
        z = L.ad(y).solve(minus_x)  # [z, y] = -[y, z] = -(ad y) z
        if z is not None:
            return CommutatorWitness(L, x, z, y, "rank1-solver")
    raise ValueError("no orthogonal direction reaches the target; hypotheses violated")


def quaternion_commutator(Q: QuaternionAlgebra, x: Sequence) -> Tuple[Vector, Vector]:
    """Write a trace-free quaternion as an associative commutator uv - vu.

    Requires a certified division algebra (negative a and b over the
    rationals).  The answer is found by the Lie rank-one solver on the
    trace-zero part with its Killing form, then rechecked against the
    associative multiplication table.
    """
    x = tuple(Q.field.of(c) for c in x)
    if len(x) != 4:
        raise ValueError("expected 4 coordinates")
    if not any(x):
        raise ValueError("target must be nonzero")
    if reduced_trace(Q, x):
        raise ValueError("target must have reduced trace zero")
    if not is_division(Q).is_certified:
        raise ValueError("commutator representation needs a division algebra")
    T = Q.trace_zero()
    w = rank1_commutator(T, T.killing_form(), x[1:])
    u = (Q.field.zero,) + w.z
    v = (Q.field.zero,) + w.y
    uv = Q.multiply(u, v)
    vu = Q.multiply(v, u)
    if tuple(a - b for a, b in zip(uv, vu)) != x:
        raise RecheckFailed("associative recheck failed")
    return u, v


def commutator_search(L: LieAlgebra, target: Sequence) -> Optional[CommutatorWitness]:
    """Look for [z, y] = target by scanning deterministic directions y
    (basis vectors, then small integer combinations) and solving the
    linear system for z.  Returns None when the scan is exhausted."""
    target = L.coerce_vector(target)
    if not L.commutant().contains(target):
        raise ValueError("target lies outside the span of brackets")
    if vec_is_zero(target):
        zero = L.zero_vector()
        return CommutatorWitness(L, target, zero, zero, "search")
    minus_target = vec_scale(target, -L.field.one)
    for y in _search_schedule(L.field, L.dim, SEARCH_HEIGHT, 0, 0):
        z = L.ad(y).solve(minus_target)
        if z is not None:
            return CommutatorWitness(L, target, z, y, "search")
    return None


# ---------------------------------------------------------------------------
# minimality by exhaustive subalgebra scan


_PROPERTIES = ("abelian", "nilpotent", "regular")


def _holds(L: LieAlgebra, prop: str) -> bool:
    if prop == "abelian":
        return L.structure_report().abelian
    if prop == "nilpotent":
        return L.structure_report().nilpotent
    verdict = is_regular_algebra(L, mode="exhaustive")
    return verdict.is_certified


def _count_subspaces(p: int, n: int, d: int) -> int:
    """The number of d-dimensional subspaces of F_p^n, the Gaussian
    binomial prod (p^(n-i) - 1) / prod (p^(i+1) - 1) over i < d."""
    top = bottom = 1
    for i in range(d):
        top *= p ** (n - i) - 1
        bottom *= p ** (i + 1) - 1
    return top // bottom


def _subspaces(field: Field, n: int, d: int) -> Iterator[Subspace]:
    """All d-dimensional subspaces, one canonical echelon matrix each."""
    for pivots in combinations(range(n), d):
        slots = [
            (t, c) for t in range(d) for c in range(pivots[t] + 1, n) if c not in pivots
        ]
        for vals in iproduct(range(field.p), repeat=len(slots)):
            rows = [[0] * n for _ in range(d)]
            for t in range(d):
                rows[t][pivots[t]] = 1
            for (t, c), val in zip(slots, vals):
                rows[t][c] = val
            yield Subspace(field, n, rows, pivots)


def _restrict_lie(L: LieAlgebra, S: Subspace) -> Optional[LieAlgebra]:
    """The subalgebra on S's echelon basis, or None if S is not closed."""
    d = len(S.rows)
    table = {}
    for i in range(d):
        for j in range(i + 1, d):
            br = L.bracket(S.rows[i], S.rows[j])
            if not S.contains(br):
                return None
            coords = S.coords_of(br)
            entry = {k: c for k, c in enumerate(coords) if c}
            if entry:
                table[(i, j)] = entry
    return LieAlgebra.unchecked(L.field, tuple(f"s{t + 1}" for t in range(d)), table)


def proper_subalgebras(L: LieAlgebra) -> Iterator[Tuple[Subspace, LieAlgebra]]:
    """Every nonzero proper subalgebra of an algebra over a finite field,
    as its subspace and the algebra on the subspace's echelon basis, by
    dimension and then in the order of ``_subspaces``."""
    for d in range(1, L.dim):
        for S in _subspaces(L.field, L.dim, d):
            sub = _restrict_lie(L, S)
            if sub is not None:
                yield S, sub


def is_minimal_non(L: LieAlgebra, prop: str) -> Verdict:
    """Does the algebra fail the property while every proper subalgebra
    satisfies it?  Decided by scanning all proper subspaces of the
    finite-field coordinate space."""
    if prop not in _PROPERTIES:
        raise ValueError(f"property must be one of {_PROPERTIES}")
    if L.field.kind != "Fp":
        raise ValueError("the subalgebra scan needs a finite field")
    if _holds(L, prop):
        full = Subspace.full_space(L.field, L.dim)
        return Verdict.refuted(full.rows, reason="property-holds-on-the-whole-algebra")
    p, n = L.field.p, L.dim
    total = sum(_count_subspaces(p, n, d) for d in range(1, n))
    if total > SUBSPACE_CAP:
        raise BudgetExceeded(f"{total} proper subspaces exceed the cap {SUBSPACE_CAP}")
    checked = 0
    for S, sub in proper_subalgebras(L):
        checked += 1
        if not _holds(sub, prop):
            return Verdict.refuted(S.rows, reason="proper-subalgebra-fails", subalgebra_dim=sub.dim)
    return Verdict.certified(
        "exhaustive", subalgebras_checked=checked, subspaces_scanned=total
    )
