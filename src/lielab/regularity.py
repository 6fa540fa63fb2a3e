"""Rank, regular elements, and Fitting decompositions.

For x = sum x_m b_m, the characteristic polynomial of the adjoint map
expands as chi_{ad x}(t) = sum a_i(x) t^i, where each a_i is a polynomial
in the coordinates of x, homogeneous of degree n - i.  The rank of the
algebra is the least i such that a_i(x) != 0 for some actual element x
(equivalently, the least multiplicity of the eigenvalue zero across all
adjoint maps); x is regular when that minimum is attained at x, and the
algebra is regular when every nonzero element is regular.

The symbolic route computes the a_i exactly as multivariate polynomials
(a determinant of linear forms, feasible for dim <= 8); over a finite
field the definition is pointwise, so formal results are only trusted
when the degree is below the field size and otherwise the whole space is
scanned.  Over the rationals a full grid of side dim+1 decides vanishing
deterministically when the symbolic route is out of budget.

All positive regularity answers over an infinite field come from one of
two honest certificates: nilpotency (rank = dim, so every zero-
multiplicity is forced to the minimum) or a definite quadratic a_1 in
dimension 3.  Everything else is a witness (refuted) or Inconclusive
with the search evidence attached.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .algebra import LieAlgebra, StructureError
from .budgets import (
    DEFAULT_SEED,
    EXHAUSTIVE_CAP,
    SEARCH_HEIGHT,
    SEARCH_POINTS_CAP,
    SEARCH_TRIALS,
    SYMBOLIC_DIM,
    BudgetExceeded,
)
from .fields import Field, MultiPoly, Scalar, UniPoly, is_squarefree
from .linalg import Matrix, Subspace, Vector, diagonalize_quadratic, _res_char_poly
from .verdict import Verdict, _recheck


# ---------------------------------------------------------------------------
# characteristic coefficients, symbolic and concrete


def ad_char_coeffs(L: LieAlgebra, x: Sequence) -> Tuple[Scalar, ...]:
    """Coefficients a_0(x)..a_n(x) of chi_{ad x}, ascending."""
    chi = L.ad(x).char_poly()
    return tuple(chi.coeff(i) for i in range(L.dim + 1))


def zero_multiplicity(L: LieAlgebra, x: Sequence) -> int:
    """Multiplicity of the eigenvalue 0 of ad x = index of first nonzero a_i.

    Over F_p this stays in the residue kernel: residue table, residue
    ad x, residue char poly, with no Matrix and no Fp built.
    """
    if L.field.kind == "Fp":
        coeffs = _res_char_poly(L._res_ad(L._res_vector(x)), L.field.p)
    else:
        coeffs = ad_char_coeffs(L, x)
    for i, c in enumerate(coeffs):
        if c:
            return i
    raise AssertionError("characteristic polynomial cannot be zero")


def linear_family_char_coeffs(field: Field, mats: Sequence[Matrix], nvars: int) -> List[MultiPoly]:
    """Characteristic coefficients of M(x) = sum x_m mats[m], as polynomials.

    mats holds one square matrix per variable; the result is the list
    a_0..a_d of MultiPoly in nvars variables with
    det(t*Id - M(x)) = sum a_i(x) t^i.  Determinant by minor expansion
    with column-subset dynamic programming over polynomial entries, so
    the cost grows as 2^d; callers enforce the budget.
    """
    if len(mats) != nvars:
        raise ValueError("one coefficient matrix per variable required")
    d = mats[0].n if mats else 0
    for m in mats:
        if not m.is_square() or m.n != d:
            raise ValueError("coefficient matrices must be square of equal size")
    # entries live in nvars+1 variables, t last
    nv = nvars + 1
    zero = MultiPoly.zero(field, nv)

    def entry(r: int, c: int) -> MultiPoly:
        terms: Dict[Tuple[int, ...], Scalar] = {}
        for m, mat in enumerate(mats):
            coef = mat.rows[r][c]
            if coef:
                exps = [0] * nv
                exps[m] = 1
                terms[tuple(exps)] = -coef
        if r == c:
            exps = [0] * nv
            exps[nv - 1] = 1
            terms[tuple(exps)] = field.one
        return MultiPoly(field, nv, terms)

    entries = [[entry(r, c) for c in range(d)] for r in range(d)]
    minors: Dict[int, MultiPoly] = {0: MultiPoly.const(field, nv, 1)}
    for row in range(d):
        grown: Dict[int, MultiPoly] = {}
        for mask, det in minors.items():
            for col in range(d):
                bit = 1 << col
                if mask & bit:
                    continue
                e = entries[row][col]
                if e.is_zero():
                    continue
                pos = bin(mask & (bit - 1)).count("1")
                term = e * det
                if (row + pos) % 2:
                    term = -term
                key = mask | bit
                acc = grown.get(key)
                grown[key] = term if acc is None else acc + term
        minors = grown
        if not minors:
            minors = {0: zero}
            break
    full = minors.get((1 << d) - 1, MultiPoly.const(field, nv, 1) if d == 0 else zero)
    # split by t-degree
    out_terms: List[Dict[Tuple[int, ...], Scalar]] = [{} for _ in range(d + 1)]
    for exps, c in full.terms.items():
        out_terms[exps[-1]][exps[:-1]] = c
    return [MultiPoly(field, nvars, t) for t in out_terms]


@dataclass
class GenericCharPoly:
    """The coefficients of chi_{ad x} as functions of the coordinates of x.

    When `symbolic` the a_i are exact MultiPoly values; otherwise the
    dimension exceeded the symbolic budget and only pointwise evaluation
    (through concrete adjoint matrices) is available.
    """

    algebra: LieAlgebra
    coeffs: Optional[Tuple[MultiPoly, ...]]
    symbolic: bool

    def __post_init__(self):
        n = self.algebra.dim
        if self.symbolic:
            _recheck(
                self.coeffs is not None and len(self.coeffs) == n + 1,
                "one coefficient per degree 0..dim",
            )
            one = MultiPoly.const(self.algebra.field, n, 1)
            _recheck(self.coeffs[n] == one, "characteristic polynomial must be monic")
            if n >= 1:
                _recheck(self.coeffs[0].is_zero(), "a_0 must vanish (x kills itself)")
            for i, a in enumerate(self.coeffs):
                _recheck(a.is_homogeneous(n - i), f"a_{i} must be homogeneous of degree {n - i}")

    def formal_rank(self) -> int:
        """Least i with a_i not the zero polynomial (symbolic only)."""
        if not self.symbolic:
            raise BudgetExceeded("formal rank needs the symbolic coefficients")
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                return i
        raise AssertionError("monic coefficient a_n is never zero")


def generic_char_poly(L: LieAlgebra, *, allow_evaluation_fallback: bool = False) -> GenericCharPoly:
    """Symbolic a_0..a_n for dim <= the symbolic budget.

    Beyond the budget: with permission, an evaluation-only object is
    returned (callers sample concrete elements); otherwise the budget
    error propagates.
    """
    cached = L._cache.get("generic")
    if cached is not None:
        return cached
    n = L.dim
    if n > SYMBOLIC_DIM:
        if allow_evaluation_fallback:
            return GenericCharPoly(L, None, False)
        raise BudgetExceeded(
            f"symbolic characteristic coefficients limited to dim <= {SYMBOLIC_DIM}, got {n}"
        )
    mats = [L.ad_basis(i) for i in range(n)]
    coeffs = tuple(linear_family_char_coeffs(L.field, mats, n))
    g = GenericCharPoly(L, coeffs, True)
    L._cache["generic"] = g
    return g


# ---------------------------------------------------------------------------
# rank


def _all_vectors(field: Field, n: int) -> Iterator[Vector]:
    for tup in iproduct(tuple(field.elements()), repeat=n):
        yield tup


def _rank_by_scan(L: LieAlgebra, lower: int = 1) -> int:
    """Pointwise rank by evaluating zero-multiplicities on a deciding set.

    Over F_p the whole space decides; over the rationals the grid
    {0..n}^n does, because each a_i has degree at most n in every
    coordinate and a nonzero polynomial cannot vanish on a full grid
    with more points per axis than its degree.  `lower` is a proven
    lower bound on every zero-multiplicity (1, since x kills itself, or
    the formal rank), so the first point that attains it is a witness
    and ends the scan.
    """
    n = L.dim
    if L.field.kind == "Fp":
        total = L.field.p**n
        if total > EXHAUSTIVE_CAP:
            raise BudgetExceeded(
                f"rank scan needs {total} points, over the cap {EXHAUSTIVE_CAP}"
            )
        points: Iterator[Sequence] = _all_vectors(L.field, n)
    else:
        total = (n + 1) ** n
        if total > EXHAUSTIVE_CAP:
            raise BudgetExceeded(
                f"rank grid needs {total} points, over the cap {EXHAUSTIVE_CAP}"
            )
        points = iproduct(range(n + 1), repeat=n)
    best = n
    for pt in points:
        nu = zero_multiplicity(L, pt)
        if nu < best:
            best = nu
            if best <= lower:
                break
    return best


def rank(L: LieAlgebra) -> int:
    """Least multiplicity of the zero eigenvalue over all adjoint maps."""
    cached = L._cache.get("rank")
    if cached is not None:
        return cached
    n = L.dim
    if n == 0:
        result = 0
    elif L.structure_report().nilpotent:
        # every adjoint map is nilpotent, so chi = t^n throughout
        result = n
    elif n <= SYMBOLIC_DIM:
        r = generic_char_poly(L).formal_rank()
        if L.field.kind == "Q" or n - r < L.field.p:
            # a nonzero polynomial of per-variable degree < field size
            # cannot vanish at every point, so a witness element exists
            result = r
        else:
            # a_0 .. a_{r-1} vanish identically, so nu >= r everywhere
            result = _rank_by_scan(L, r)
    else:
        result = _rank_by_scan(L)
    L._cache["rank"] = result
    return result


# ---------------------------------------------------------------------------
# Fitting decompositions


@dataclass
class FittingDecomposition:
    """L = null + one with respect to (ad x)^dim for x in `against`."""

    null: Subspace
    one: Subspace
    against: Tuple[Vector, ...]

    @property
    def nu(self) -> int:
        return self.null.dim


def _assert_fitting(L: LieAlgebra, dec: FittingDecomposition) -> None:
    n = L.dim
    _recheck(dec.null.dim + dec.one.dim == n, "component dimensions must sum to dim")
    _recheck(dec.null.intersect(dec.one).is_zero(), "components must be independent")
    for u in dec.null.rows:
        for v in dec.null.rows:
            _recheck(dec.null.contains(L.bracket(u, v)), "null component must be a subalgebra")
    for u in dec.null.rows:
        for v in dec.one.rows:
            _recheck(dec.one.contains(L.bracket(u, v)), "[null, one] must land in one")
    for x in dec.against:
        power = L.ad(x) ** n
        for u in dec.null.rows:
            _recheck(not any(power.apply(u)), "ad^dim must kill the null component")
        img = Subspace.from_vectors(L.field, n, [power.apply(v) for v in dec.one.rows])
        _recheck(
            img.dim == dec.one.dim or len(dec.against) > 1,
            "ad^dim must act injectively on the one component",
        )


def fitting(L: LieAlgebra, x: Sequence) -> FittingDecomposition:
    """Kernel and image of (ad x)^dim."""
    x = L.coerce_vector(x)
    power = L.ad(x) ** L.dim
    dec = FittingDecomposition(power.kernel(), power.image(), (x,))
    _assert_fitting(L, dec)
    return dec


def fitting_set(L: LieAlgebra, xs: Sequence[Sequence]) -> FittingDecomposition:
    """Joint decomposition for an almost-commuting family.

    The null component is the intersection of the single-element null
    components; the one component is the sum of the single-element one
    components.  Almost commuting (each member killed by a power of
    every other member's adjoint map) is verified first.
    """
    vecs = [L.coerce_vector(x) for x in xs]
    if not vecs:
        raise ValueError("empty element set")
    n = L.dim
    powers = [L.ad(x) ** n for x in vecs]
    for p in powers:
        for y in vecs:
            if any(p.apply(y)):
                raise StructureError("set is not almost commuting")
    null = Subspace.full_space(L.field, n)
    one = Subspace.zero_space(L.field, n)
    for p in powers:
        null = null.intersect(p.kernel())
        one = one.sum_with(p.image())
    dec = FittingDecomposition(null, one, tuple(vecs))
    _assert_fitting(L, dec)
    return dec


# ---------------------------------------------------------------------------
# regular elements and algebras


def is_regular_element(L: LieAlgebra, x: Sequence) -> bool:
    """a_rank(x) != 0; cross-checked against the null-component dimension."""
    x = L.coerce_vector(x)
    if not any(x):
        raise ValueError("regularity of an element is defined for nonzero elements")
    r = rank(L)
    nu = zero_multiplicity(L, x)
    _recheck(fitting(L, x).nu == nu, "null component dimension must equal the zero multiplicity")
    return nu == r


def _search_schedule(
    field: Field, n: int, height: int, trials: int, seed: int
) -> Iterator[Vector]:
    """Deterministic nonzero candidates: basis vectors, then integer
    points shell by shell (max-coordinate height 1..height, lexicographic),
    then seeded pseudo-random vectors."""
    z, o = field.zero, field.one
    for i in range(n):
        yield tuple(o if t == i else z for t in range(n))
    emitted = 0
    for h in range(1, height + 1):
        if emitted >= SEARCH_POINTS_CAP:
            break
        for raw in iproduct(range(-h, h + 1), repeat=n):
            if max(abs(c) for c in raw) != h:
                continue
            vec = tuple(field.of(c) for c in raw)
            if not any(vec):
                continue
            yield vec
            emitted += 1
            if emitted >= SEARCH_POINTS_CAP:
                break
    rng = random.Random(seed)
    for _ in range(trials):
        if field.kind == "Q":
            raw = [rng.getrandbits(64) - (1 << 63) for _ in range(n)]
        else:
            raw = [rng.randrange(field.p) for _ in range(n)]
        vec = tuple(field.of(c) for c in raw)
        if any(vec):
            yield vec


def _recheck_not_regular(L: LieAlgebra, x: Vector, r: int) -> None:
    nu = zero_multiplicity(L, x)
    _recheck(nu != r, "witness recheck failed: element is regular after all")
    _recheck(fitting(L, x).nu == nu, "witness recheck failed: Fitting null component disagrees")


def _scan(
    L: LieAlgebra, mode: str, seed: int, fails: Callable[[Vector], bool], **known
) -> Verdict:
    """Walk the candidates of `mode` and refute with the first x that
    `fails`; `known` is evidence every verdict carries.

    exhaustive: every nonzero vector of F_p^n within budget, so a scan
    without failure certifies.  Any other mode walks _search_schedule,
    which can only refute.
    """
    n = L.dim
    if mode == "exhaustive":
        if L.field.kind != "Fp":
            raise ValueError("exhaustive mode requires a finite field")
        total = L.field.p**n
        if total > EXHAUSTIVE_CAP:
            raise BudgetExceeded(f"{total} vectors exceed the cap {EXHAUSTIVE_CAP}")
        known["total_nonzero"] = total - 1
        candidates: Iterator[Vector] = (x for x in _all_vectors(L.field, n) if any(x))
    else:
        candidates = _search_schedule(L.field, n, SEARCH_HEIGHT, SEARCH_TRIALS, seed)
    scanned = 0
    for x in candidates:
        scanned += 1
        if fails(x):
            return Verdict.refuted(x, scanned=scanned, **known)
    if mode == "exhaustive":
        return Verdict.certified("exhaustive", scanned=scanned, **known)
    return Verdict.inconclusive(
        scanned=scanned, height=SEARCH_HEIGHT, trials=SEARCH_TRIALS, seed=seed, **known
    )


def is_regular_algebra(
    L: LieAlgebra, mode: str = "search", *, seed: int = DEFAULT_SEED
) -> Verdict:
    """Is every nonzero element regular?

    exhaustive: finite field, full scan within budget.
    search: deterministic points then seeded trials; can only refute.
    certificate: dimension-3 definite-quadratic-form route, else search.
    Nilpotent algebras short-circuit in every mode: rank = dim forces
    every zero-multiplicity to the minimum.
    """
    if mode not in ("exhaustive", "search", "certificate"):
        raise ValueError(f"unknown mode {mode!r}")
    n = L.dim
    if n == 0:
        return Verdict.certified("structural", reason="zero-dimensional, vacuously regular")
    if L.structure_report().nilpotent:
        return Verdict.certified("structural", reason="nilpotent", rank=n)
    r = rank(L)
    if mode == "certificate":
        cert = _definite_a1_certificate(L, r)
        if cert is not None:
            return cert
    # zero_multiplicity by module global: instrumentation may wrap it
    verdict = _scan(L, mode, seed, lambda x: zero_multiplicity(L, x) != r, rank=r)
    if verdict.is_refuted:
        _recheck_not_regular(L, verdict.witness, r)
    return verdict


def _definite_a1_certificate(L: LieAlgebra, r: int) -> Optional[Verdict]:
    """Certified regular when rank 1, dim 3, and a_1 is a definite
    quadratic form over the rationals (then a_1(x) != 0 for every real,
    hence every rational, nonzero x)."""
    if L.field.kind != "Q" or r != 1 or L.dim != 3:
        return None
    g = generic_char_poly(L)
    a1 = g.coeffs[1]
    gram_rows = [[L.field.zero] * 3 for _ in range(3)]
    for exps, c in a1.terms.items():
        hot = [i for i, e in enumerate(exps) if e]
        if sum(exps) != 2:
            return None
        if len(hot) == 1:
            gram_rows[hot[0]][hot[0]] = c
        else:
            i, j = hot
            half = c / L.field.of(2)
            gram_rows[i][j] = half
            gram_rows[j][i] = half
    gram = Matrix(L.field, gram_rows, ncols=3)
    diag = diagonalize_quadratic(gram)
    if any(not d for d in diag):
        return None
    signs = {d > 0 for d in diag}
    if len(signs) != 1:
        return None
    return Verdict.certified(
        "definite-quadratic-form",
        rank=1,
        diagonal=[L.field.to_str(d) for d in diag],
        sign="positive" if signs.pop() else "negative",
    )


# ---------------------------------------------------------------------------
# anisotropy and nilpotent-freeness


def is_semisimple_ad(L: LieAlgebra, x: Sequence) -> bool:
    """Squarefree minimal polynomial of ad x (the field is perfect)."""
    return is_squarefree(L.ad(x).min_poly())


def _noncentral_nilpotent_witness(L: LieAlgebra) -> Optional[Vector]:
    """For a nilpotent non-abelian algebra every basis vector has a
    nilpotent adjoint map; return one outside the center."""
    center = L.center()
    for i in range(L.dim):
        v = L.basis_vector(i)
        if not center.contains(v):
            return v
    return None


def is_anisotropic(L: LieAlgebra, mode: str = "search", *, seed: int = DEFAULT_SEED) -> Verdict:
    """Is ad x semisimple for every element x?"""
    return _aniso_like(L, mode, seed, lambda x: not is_semisimple_ad(L, x))


def is_nilpotent_free(L: LieAlgebra, mode: str = "search", *, seed: int = DEFAULT_SEED) -> Verdict:
    """Does every element with nilpotent ad lie in the center?"""
    return _aniso_like(
        L, mode, seed, lambda x: (L.ad(x) ** L.dim).is_zero() and not L.center().contains(x)
    )


def _aniso_like(L: LieAlgebra, mode: str, seed: int, fails: Callable[[Vector], bool]) -> Verdict:
    if mode not in ("exhaustive", "search", "certificate"):
        raise ValueError(f"unknown mode {mode!r}")
    n = L.dim
    if n == 0:
        return Verdict.certified("structural", reason="zero-dimensional")
    report = L.structure_report()
    if report.abelian:
        # every ad is zero: semisimple (min poly t), and everything central
        return Verdict.certified("structural", reason="abelian")
    if report.nilpotent:
        witness = _noncentral_nilpotent_witness(L)
        _recheck(witness is not None, "nilpotent non-abelian algebra must have noncentral elements")
        _recheck(fails(witness), "witness recheck failed: noncentral nilpotent element passes")
        return Verdict.refuted(witness, reason="nilpotent-nonabelian")
    if mode == "certificate":
        cert = _aniso_certificate(L)
        if cert is not None:
            return cert
    return _scan(L, mode, seed, fails)


def _aniso_certificate(L: LieAlgebra) -> Optional[Verdict]:
    """Dimension-3 rank-1 definite route: with a_2 identically zero,
    chi_{ad x} = t*(t^2 + a_1(x)) and a definite a_1 makes that
    squarefree for every nonzero x, so every adjoint map is semisimple
    and the only ad-nilpotent element is zero."""
    if L.field.kind != "Q" or L.dim != 3:
        return None
    if rank(L) != 1:
        return None
    g = generic_char_poly(L)
    if not g.coeffs[2].is_zero():
        return None
    inner = _definite_a1_certificate(L, 1)
    if inner is None or not inner.is_certified:
        return None
    return Verdict.certified(
        "definite-quadratic-form",
        rank=1,
        a2="0",
        diagonal=inner.evidence["diagonal"],
        sign=inner.evidence["sign"],
    )


# ---------------------------------------------------------------------------
# restricted and induced actions on an ideal (characteristic factorization)


def ideal_action_matrices(L: LieAlgebra, ideal: Subspace) -> Tuple[List[Matrix], List[Matrix]]:
    """Per-basis-direction matrices of ad b_m on the ideal and on the quotient.

    The ideal's echelon rows are the inner basis; coset representatives
    are the ambient basis vectors at non-pivot columns.  Returned lists
    feed the same symbolic machinery as the full adjoint family, so
    chi_{ad x} = chi_{restriction} * chi_{quotient} can be checked both
    pointwise and generically.
    """
    if not L.is_ideal(ideal):
        raise StructureError("subspace is not an ideal")
    n = L.dim
    d = ideal.dim
    reps = ideal.complement_indices()
    inner: List[Matrix] = []
    outer: List[Matrix] = []
    for m in range(n):
        bm = L.basis_vector(m)
        rows_in = [[L.field.zero] * d for _ in range(d)]
        for s, u in enumerate(ideal.rows):
            img = L.bracket(bm, u)
            _recheck(ideal.contains(img), "[b_m, u] must stay in the ideal")
            for t, p in enumerate(ideal.pivots):
                rows_in[t][s] = img[p]
        inner.append(Matrix(L.field, rows_in, ncols=d))
        q = len(reps)
        rows_out = [[L.field.zero] * q for _ in range(q)]
        for s, c in enumerate(reps):
            img = ideal.reduce(L.bracket(bm, L.basis_vector(c)))
            for t, cc in enumerate(reps):
                rows_out[t][s] = img[cc]
        outer.append(Matrix(L.field, rows_out, ncols=q))
    return inner, outer


def char_poly_factorization(L: LieAlgebra, ideal: Subspace, x: Sequence) -> Tuple[UniPoly, UniPoly, UniPoly]:
    """(chi on the ideal, chi on the quotient, chi on L) for a concrete x."""
    x = L.coerce_vector(x)
    inner, outer = ideal_action_matrices(L, ideal)
    restr = _combine(L.field, inner, x)
    quot = _combine(L.field, outer, x)
    return restr.char_poly(), quot.char_poly(), L.ad(x).char_poly()


def _combine(field: Field, mats: Sequence[Matrix], x: Sequence) -> Matrix:
    d = mats[0].n if mats else 0
    acc = Matrix.zeros(field, d, d)
    for c, m in zip(x, mats):
        if c:
            acc = acc + m.scale(c)
    return acc


def relative_rank(L: LieAlgebra, ideal: Subspace) -> Tuple[int, int]:
    """Formal least nonvanishing indices for the two factor families,
    with x ranging over the whole algebra (not just the ideal).

    This is the quantity that adds up along an ideal: the least zero-
    multiplicity of the restricted action plus that of the quotient
    action equals the rank of L, because the characteristic polynomial
    factors accordingly and generic x minimizes both factors at once.
    """
    n = L.dim
    if n > SYMBOLIC_DIM:
        raise BudgetExceeded(f"relative rank limited to dim <= {SYMBOLIC_DIM}")
    inner, outer = ideal_action_matrices(L, ideal)
    a_in = linear_family_char_coeffs(L.field, inner, n)
    a_out = linear_family_char_coeffs(L.field, outer, n)

    def least(coeffs: List[MultiPoly]) -> int:
        for i, a in enumerate(coeffs):
            if not a.is_zero():
                return i
        raise AssertionError("monic family cannot vanish entirely")

    return least(a_in), least(a_out)
