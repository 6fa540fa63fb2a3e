"""Rank, regular elements, and Fitting decompositions.

For x = sum x_m b_m, the characteristic polynomial of the adjoint map
expands as chi_{ad x}(t) = sum a_i(x) t^i, where each a_i is a polynomial
in the coordinates of x, homogeneous of degree n - i.  The rank of the
algebra is the least i such that a_i(x) != 0 for some actual element x
(equivalently, the least multiplicity of the eigenvalue zero across all
adjoint maps); x is regular when that minimum is attained at x, and the
algebra is regular when every nonzero element is regular.

The symbolic route computes the a_i exactly as multivariate polynomials
(a determinant of linear forms, feasible for dim <= 8), one expansion per
algebra, cached: ``generic_char_poly`` reads the entries of
t*Id - sum x_m ad b_m straight from the table rows.  The expansion runs
on Python ints over both fields: over Q the adjoint family is first
scaled to integers by the lcm den of its denominators, and because a_i is
homogeneous of degree n - i the integer expansion gives den^(n-i) a_i,
which one division per coefficient undoes.  Over a finite
field the definition is pointwise, so formal results are only trusted
when the degree is below the field size and otherwise the whole space is
scanned.  Over the rationals the rank is known only within the symbolic
budget.

Once ``rank`` has the expansion, the scans read nu off it instead of
building ad x: nu(x) >= rank everywhere, so x is not regular exactly where
a_rank(x) = 0, and the rank scan looks for a line with a_r(x) != 0 for
its proven bound r.  Each evaluates one a_i on kernel scalars, compiled
on its first use.  Every recheck keeps the Hessenberg
``zero_multiplicity``, a route the scan does not take: the witness of a
refutation, the line where a rank scan meets its bound, and a full rescan
should an exhaustive scan certify.  Tables with no expansion (dim above
the budget) are scanned by ``zero_multiplicity`` itself.

All positive regularity answers over an infinite field come from one of
two honest certificates: nilpotency (rank = dim, so every zero-
multiplicity is forced to the minimum) or a definite quadratic a_1 in
dimension 3.  Everything else is a witness (refuted) or Inconclusive
with the search evidence attached.  That a_1 is read from the Killing
Gram matrix and the traces of the ad b_i, not from the symbolic
expansion, and ``relative_rank`` expands the two factor families of an
ideal through ``linear_family_char_coeffs``, the same expansion on
matrices.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as iproduct
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .algebra import _point_index, _projective_points, LieAlgebra, StructureError, quotient_with_projection
from .budgets import (
    DEFAULT_SEED,
    EXHAUSTIVE_CAP,
    SEARCH_HEIGHT,
    SEARCH_POINTS_CAP,
    SEARCH_TRIALS,
    SYMBOLIC_DIM,
    BudgetExceeded,
)
from .fields import Field, MultiPoly, Scalar, UniPoly, common_denominator, is_squarefree, poly_radical
from .linalg import _char_poly, Matrix, Subspace, Vector, diagonalize_quadratic
from .verdict import _recheck, _Record, Verdict


# ---------------------------------------------------------------------------
# characteristic coefficients, symbolic and concrete


def ad_char_coeffs(L: LieAlgebra, x: Sequence) -> Tuple[Scalar, ...]:
    """Coefficients a_0(x)..a_n(x) of chi_{ad x}, ascending."""
    chi = L.ad(x).char_poly()
    return tuple(chi.coeff(i) for i in range(L.dim + 1))


def zero_multiplicity(L: LieAlgebra, x: Sequence) -> int:
    """Multiplicity of the eigenvalue 0 of ad x = index of first nonzero a_i,
    read off the kernel-scalar coefficients of the Hessenberg char poly
    (``linalg._char_poly``), so no UniPoly and no field scalars are built."""
    for i, c in enumerate(_char_poly(L.ad(x)._k, L.field.char)):
        if c:
            return i
    raise AssertionError("characteristic polynomial cannot be zero")


def _char_expansion(
    field: Field, d: int, nvars: int, entries: Sequence[Sequence[list]]
) -> List[Dict[Tuple[int, ...], Scalar]]:
    """Characteristic coefficients a_0..a_d of M(x) = sum x_m M_m, a d x d
    family, as dicts from exponent tuple to nonzero kernel scalar, with
    det(t*Id - M(x)) = sum a_i(x) t^i.  entries[r][col] lists the (m, c)
    with c = M_m[r][col] != 0 in kernel scalars, m ascending.

    Determinant by minor expansion with column-subset dynamic programming,
    so the cost grows as 2^d; callers enforce the budget.  The expansion
    runs on Python ints over both fields, each polynomial a dict from a
    packed monomial (exponent e_m of variable m, t last, as the digit of
    weight base^m) to its coefficient.  Over Q the family is first scaled
    by the lcm den of its denominators: a_i is homogeneous of degree d - i,
    so the expansion of den*M gives den^(d-i) a_i.
    """
    p = field.char
    den = 1 if p else common_denominator(c for row in entries for e in row for _, c in e)
    base = d + 1  # no exponent exceeds d
    weights = [base**m for m in range(nvars + 1)]
    # t*Id - den*M(x) at (r, col) as [(monomial, coefficient), ...]
    packed = [
        [[(weights[m], -c if p else -c.numerator * (den // c.denominator)) for m, c in e] for e in row]
        for row in entries
    ]
    for r in range(d):
        packed[r][r].append((weights[nvars], 1))
    minors: Dict[int, Dict[int, int]] = {0: {0: 1}}
    for row in range(d):
        grown: Dict[int, Dict[int, int]] = {}
        for mask, det in minors.items():
            for col in range(d):
                bit = 1 << col
                e = packed[row][col]
                if mask & bit or not e:
                    continue
                sign = -1 if (row + (mask & (bit - 1)).bit_count()) % 2 else 1
                acc = grown.setdefault(mask | bit, {})
                for w, a in e:
                    a *= sign
                    for mono, v in det.items():
                        mono += w
                        acc[mono] = acc.get(mono, 0) + a * v
        minors = {}
        for mask, poly in grown.items():
            if p:
                poly = {mono: v % p for mono, v in poly.items() if v % p}
            else:
                poly = {mono: v for mono, v in poly.items() if v}
            if poly:
                minors[mask] = poly
    full = minors.get((1 << d) - 1, {})
    # unpack and split by t-degree, undoing the scaling over Q
    out: List[Dict[Tuple[int, ...], Scalar]] = [{} for _ in range(d + 1)]
    for mono, v in full.items():
        exps = []
        for _ in range(nvars):
            mono, e = divmod(mono, base)
            exps.append(e)
        if den != 1:
            v = Fraction(v, den ** (d - mono))
            v = v.numerator if v.denominator == 1 else v
        out[mono][tuple(exps)] = v
    return out


def linear_family_char_coeffs(field: Field, mats: Sequence[Matrix], nvars: int) -> List[MultiPoly]:
    """Characteristic coefficients of M(x) = sum x_m mats[m], as polynomials.

    mats holds one square matrix per variable; the result is the list
    a_0..a_d of MultiPoly in nvars variables with
    det(t*Id - M(x)) = sum a_i(x) t^i, from ``_char_expansion``.
    """
    if len(mats) != nvars:
        raise ValueError("one coefficient matrix per variable required")
    d = mats[0].n if mats else 0
    for m in mats:
        if not m.is_square() or m.n != d:
            raise ValueError("coefficient matrices must be square of equal size")
    ks = [m._k for m in mats]
    entries = [[[(m, k[r][col]) for m, k in enumerate(ks) if k[r][col]] for col in range(d)] for r in range(d)]
    return [MultiPoly(field, nvars, t) for t in _char_expansion(field, d, nvars, entries)]


class GenericCharPoly(_Record):
    """The coefficients a_0..a_n of chi_{ad x} in the coordinates of x.

    ``terms[i]`` is a_i as a dict from exponent tuple to nonzero kernel
    scalar, rechecked on construction (one per degree, monic, a_0 = 0,
    a_i homogeneous of degree n - i); ``coeffs`` are the MultiPoly
    values, built on first read.  ``value`` evaluates one a_i at a point
    in kernel scalars, compiling it on its first evaluation.  Equality
    and repr read the algebra and ``terms`` only.
    """

    __slots__ = ("algebra", "terms", "_coeffs", "_compiled")

    def _values(self) -> tuple:
        return self.algebra, self.terms

    def __init__(self, algebra: LieAlgebra, terms: Tuple[Dict[Tuple[int, ...], Scalar], ...]):
        n = algebra.dim
        _recheck(len(terms) == n + 1, "one coefficient per degree 0..dim")
        _recheck(terms[n] == {(0,) * n: 1}, "characteristic polynomial must be monic")
        if n >= 1:
            _recheck(not terms[0], "a_0 must vanish (x kills itself)")
        for i, a in enumerate(terms):
            _recheck(all(sum(e) == n - i for e in a), f"a_{i} must be homogeneous of degree {n - i}")
        self.algebra = algebra
        self.terms = terms
        self._coeffs = None
        self._compiled: List[Optional[list]] = [None] * (n + 1)

    @property
    def coeffs(self) -> Tuple[MultiPoly, ...]:
        if self._coeffs is None:
            field, n = self.algebra.field, self.algebra.dim
            self._coeffs = tuple(MultiPoly(field, n, t) for t in self.terms)
        return self._coeffs

    def formal_rank(self) -> int:
        """Least i with a_i not the zero polynomial."""
        return next(i for i, a in enumerate(self.terms) if a)

    def value(self, i: int, x: Sequence) -> Scalar:
        """a_i(x) for x in kernel scalars, as a kernel scalar (reduced mod p)."""
        compiled = self._compiled[i]
        if compiled is None:
            # each term as its coefficient and the index of every variable
            # factor, repeated by its exponent
            compiled = self._compiled[i] = [
                (c, tuple(m for m, e in enumerate(exps) for _ in range(e))) for exps, c in self.terms[i].items()
            ]
        s = 0
        for c, factors in compiled:
            for m in factors:
                c *= x[m]
            s += c
        p = self.algebra.field.char
        return s % p if p else s


def _least_nonzero(coeffs: Sequence[MultiPoly]) -> int:
    """Index of the first a_i that is not the zero polynomial; a monic family has one."""
    return next(i for i, a in enumerate(coeffs) if not a.is_zero())


def generic_char_poly(L: LieAlgebra) -> GenericCharPoly:
    """Symbolic a_0..a_n for dim <= the symbolic budget; beyond it the
    budget error propagates.  The family t*Id - sum x_m ad b_m is read
    straight from the table rows: [b_m, b_j] has coefficient c at b_k
    exactly when (k, c) is in row m at j, the entry (k, j) of ad b_m."""
    cached = L._cache.get("generic")
    if cached is not None:
        return cached
    n = L.dim
    if n > SYMBOLIC_DIM:
        raise BudgetExceeded(
            f"symbolic characteristic coefficients limited to dim <= {SYMBOLIC_DIM}, got {n}"
        )
    entries: List[List[list]] = [[[] for _ in range(n)] for _ in range(n)]
    for m, row in enumerate(L._rows):
        for j, cell in row.items():
            for k, c in cell:
                entries[k][j].append((m, c))
    g = GenericCharPoly(L, tuple(_char_expansion(L.field, n, n, entries)))
    L._cache["generic"] = g
    return g


# ---------------------------------------------------------------------------
# rank


def _rank_by_scan(L: LieAlgebra, lower: int = 1) -> int:
    """Pointwise rank over F_p: the least zero-multiplicity over the lines
    of F_p^n (``_projective_points``), as nu(cx) = nu(x) for c != 0; the
    cap counts all p^n points.  `lower` is a proven lower bound on every
    zero-multiplicity (1, since x kills itself, or the formal rank), so the
    first line that attains it is a witness and ends the scan.

    When ``rank`` has expanded the a_i (``generic_char_poly``), the lines
    are first searched for a_lower(x) != 0, which is nu(x) = lower as
    nu >= lower everywhere; the Hessenberg ``zero_multiplicity`` rechecks
    the line found.  Without the expansion, or when a_lower vanishes on
    every line, each line gets ``zero_multiplicity``: a least nu above the
    bound rests on every line, so no single recheck could confirm it.
    """
    n = L.dim
    total = L.field.p**n
    if total > EXHAUSTIVE_CAP:
        raise BudgetExceeded(f"rank scan needs {total} points, over the cap {EXHAUSTIVE_CAP}")
    g = L._cache.get("generic")
    if g is not None:
        hit = next((x for x in _projective_points(L.field, n) if g.value(lower, L._k_vector(x))), None)
        if hit is not None:
            _recheck(zero_multiplicity(L, hit) == lower, "rank scan recheck failed: a_lower(x) != 0 but nu(x) != lower")
            return lower
    best = n
    for pt in _projective_points(L.field, n):
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
    elif L.field.kind == "Q":
        # the deciding grid {0..n}^n has (n+1)^n >= 10^9 points above the
        # symbolic budget, more than EXHAUSTIVE_CAP allows
        raise BudgetExceeded(f"rank grid needs {(n + 1) ** n} points, over the cap {EXHAUSTIVE_CAP}")
    else:
        result = _rank_by_scan(L)
    L._cache["rank"] = result
    return result


# ---------------------------------------------------------------------------
# Fitting decompositions


class FittingDecomposition(_Record):
    """L = null + one with respect to (ad x)^dim for x in `against`."""

    __slots__ = ("null", "one", "against")

    def __init__(self, null: Subspace, one: Subspace, against: Tuple[Vector, ...]):
        self.null = null
        self.one = one
        self.against = against

    @property
    def nu(self) -> int:
        return self.null.dim


def _assert_fitting(L: LieAlgebra, dec: FittingDecomposition, powers: Sequence[Matrix]) -> None:
    """Recheck dec against powers, the (ad x)^dim of each x in dec.against.

    Two checks that cannot fail are skipped.  A full null component
    contains every vector of length dim, so its subalgebra check would
    bracket dim^2 pairs only to accept each; a zero one component has a
    zero image, so injectivity on it reads 0 = 0.  Every other check runs,
    the power killing the null component included: for an ad-nilpotent x
    (null component L) that is what certifies nu = dim."""
    n = L.dim
    _recheck(dec.null.dim + dec.one.dim == n, "component dimensions must sum to dim")
    # with the dimensions summing to n, the components are independent iff they span L
    _recheck(dec.null.sum_with(dec.one).dim == n, "components must be independent")
    # in kernel scalars, so no bracket makes a round trip through Fp objects
    if not dec.null.is_full():
        for u in dec.null._k:
            for v in dec.null._k:
                _recheck(dec.null.contains(L._product_k(u, v)), "null component must be a subalgebra")
    for u in dec.null._k:
        for v in dec.one._k:
            _recheck(dec.one.contains(L._product_k(u, v)), "[null, one] must land in one")
    for power in powers:
        for u in dec.null._k:
            _recheck(not any(power._apply_k(u)), "ad^dim must kill the null component")
        if dec.one.is_zero():
            continue
        img = Subspace._span_k(L.field, n, [power._apply_k(v) for v in dec.one._k])
        _recheck(
            img.dim == dec.one.dim or len(powers) > 1,
            "ad^dim must act injectively on the one component",
        )


def fitting(L: LieAlgebra, x: Sequence) -> FittingDecomposition:
    """Kernel and image of (ad x)^dim."""
    return fitting_set(L, [x])


def fitting_set(L: LieAlgebra, xs: Sequence[Sequence]) -> FittingDecomposition:
    """Joint decomposition for an almost-commuting family.

    The null component is the intersection of the single-element null
    components; the one component is the sum of the single-element one
    components.  Almost commuting (each member killed by a power of
    every other member's adjoint map) is verified first, for families of
    two or more: a single x always almost commutes with itself, since
    (ad x)^dim x = (ad x)^(dim-1) [x, x] = 0 in the antisymmetric rows
    ``_clean_table`` builds.  A zero (ad x)^dim (ad x nilpotent) gives
    kernel L and image 0 with no elimination (``Matrix.kernel`` and
    ``Matrix.image``); ``_assert_fitting`` rechecks every answer.
    """
    vecs = [L.coerce_vector(x) for x in xs]
    if not vecs:
        raise ValueError("empty element set")
    n = L.dim
    powers = [L.ad(x) ** n for x in vecs]
    if len(vecs) > 1:
        for p in powers:
            for y in vecs:
                if any(p._apply_k(L._k_vector(y))):
                    raise StructureError("set is not almost commuting")
    null, one = powers[0].kernel(), powers[0].image()
    for p in powers[1:]:
        null = null.intersect(p.kernel())
        one = one.sum_with(p.image())
    dec = FittingDecomposition(null, one, tuple(vecs))
    _assert_fitting(L, dec, powers)
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


def _require_finite_field(L: LieAlgebra) -> None:
    if L.field.kind != "Fp":
        raise ValueError("exhaustive mode requires a finite field")


def _scan(
    L: LieAlgebra, mode: str, seed: int, fails: Callable[[Vector], bool], **known
) -> Verdict:
    """Walk the candidates of `mode` and refute with the first x that
    `fails`; `known` is evidence every verdict carries.

    exhaustive: F_p^n within budget, so a scan without failure certifies.
    `fails` must be invariant under nonzero scaling (nu, semisimple or
    nilpotent ad x, and the center are), so the first failing point in
    lexicographic order is a line's representative: `fails` runs once per
    line (``_projective_points``).  ``scanned`` counts every nonzero point
    up to the witness, its base-p value, or all p^n - 1 on certifying; the
    cap counts the p^n points.  Any other mode walks _search_schedule,
    which can only refute.
    """
    n = L.dim
    if mode == "exhaustive":
        _require_finite_field(L)
        total = L.field.p**n
        if total > EXHAUSTIVE_CAP:
            raise BudgetExceeded(f"{total} vectors exceed the cap {EXHAUSTIVE_CAP}")
        known["total_nonzero"] = total - 1
        x = next(filter(fails, _projective_points(L.field, n)), None)
        if x is None:
            return Verdict.certified("exhaustive", scanned=total - 1, **known)
        return Verdict.refuted(x, scanned=_point_index(L.field, x), **known)
    scanned = 0
    for x in _search_schedule(L.field, n, SEARCH_HEIGHT, SEARCH_TRIALS, seed):
        scanned += 1
        if fails(x):
            return Verdict.refuted(x, scanned=scanned, **known)
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
    if mode == "exhaustive":
        # before the rank, whose budget error would hide the bad usage
        _require_finite_field(L)
    r = rank(L)
    if mode == "certificate":
        cert = _definite_a1(L)
        if cert is not None:
            diagonal, sign, _ = cert
            _recheck(r == 1, "a definite a_1 forces rank 1")
            return Verdict.certified("definite-quadratic-form", rank=1, diagonal=diagonal, sign=sign)
    # zero_multiplicity by module global: instrumentation may wrap it
    by_hessenberg = lambda x: zero_multiplicity(L, x) != r
    g = L._cache.get("generic")
    if g is None:
        verdict = _scan(L, mode, seed, by_hessenberg, rank=r)
    else:
        # nu(x) >= rank everywhere, so nu(x) != rank exactly where a_rank(x) = 0
        verdict = _scan(L, mode, seed, lambda x: not g.value(r, L._k_vector(x)), rank=r)
        if verdict.is_certified:
            # over F_p only a nilpotent algebra is regular (Chevalley-Warning
            # on a_rank, then Engel), and those returned above: this rescan
            # runs only when the expansion is wrong
            _recheck(_scan(L, mode, seed, by_hessenberg).is_certified, "certificate recheck failed: a line has nu != rank")
    if verdict.is_refuted:
        _recheck_not_regular(L, verdict.witness, r)
    return verdict


def _a1_gram(L: LieAlgebra, tau: Sequence[Scalar]) -> Matrix:
    """Gram matrix of a_1 for a dimension-3 algebra: (tau tau^T - K)/2,
    with K the Killing Gram and tau_i = tr ad b_i.

    For A = ad x, det A = 0, so chi_A = t^3 - tr(A) t^2 + a_1 t with
    a_1 = ((tr A)^2 - tr A^2)/2, and tr A = tau.x, tr A^2 = x^T K x.
    """
    K = L.killing_form().gram.rows
    return Matrix(L.field, [[(tau[i] * tau[j] - K[i][j]) / 2 for j in range(3)] for i in range(3)], 3)


def _definite_a1(L: LieAlgebra) -> Optional[Tuple[List[str], str, bool]]:
    """(diagonal, sign, a_2 identically zero) when L has dimension 3 over
    the rationals and a_1 is a definite quadratic form, else None.

    A definite a_1 vanishes at no nonzero real, hence no nonzero rational,
    x: so every zero-multiplicity is 1, the rank is 1 and L is regular.
    When also a_2 = -tr ad x vanishes identically (tau = 0), chi_{ad x} =
    t*(t^2 + a_1(x)) is squarefree for every nonzero x, so every adjoint
    map is semisimple and the only ad-nilpotent element is zero.
    """
    if L.field.kind != "Q" or L.dim != 3:
        return None
    tau = [L.ad_basis(i).trace() for i in range(3)]
    diag = diagonalize_quadratic(_a1_gram(L, tau))
    signs = {d > 0 for d in diag}
    if not all(diag) or len(signs) != 1:
        return None
    return [L.field.to_str(d) for d in diag], "positive" if signs.pop() else "negative", not any(tau)


# ---------------------------------------------------------------------------
# anisotropy and nilpotent-freeness


def is_semisimple_ad(L: LieAlgebra, x: Sequence) -> bool:
    """Squarefree minimal polynomial of ad x (the field is perfect)."""
    return is_squarefree(L.ad(x).min_poly())


def _noncentral_nilpotent_witness(L: LieAlgebra) -> Vector:
    """In a nilpotent algebra every basis vector has a nilpotent adjoint
    map; a non-abelian one has some outside the center: return the first."""
    center = L.center()
    return next(v for v in map(L.basis_vector, range(L.dim)) if not center.contains(v))


def _radical_survives(L: LieAlgebra, x: Vector) -> bool:
    """rad(chi)(ad x) != 0, for chi the Hessenberg characteristic polynomial
    of ad x: ad x is semisimple exactly when the product of the distinct
    irreducible factors of chi kills it.  Applied by Horner to one unit
    vector after another, so it stops at the first that survives."""
    a = L.ad(x)
    field, p = L.field, L.field.char
    coeffs = field._to_k(poly_radical(a.char_poly()).coeffs)
    for j in range(L.dim):
        unit = [int(t == j) for t in range(L.dim)]
        w = unit
        for c in reversed(coeffs[:-1]):
            w = [y + c * u for y, u in zip(a._apply_k(w), unit)]
            if p:
                w = [y % p for y in w]
        if any(w):
            return True
    return False


def is_anisotropic(L: LieAlgebra, mode: str = "search", *, seed: int = DEFAULT_SEED) -> Verdict:
    """Is ad x semisimple for every element x?  A refuting x is rechecked
    by a route the scan (the minimal polynomial) does not take:
    ``_radical_survives``."""
    verdict = _aniso_like(L, mode, seed, lambda x: not is_semisimple_ad(L, x))
    if verdict.is_refuted:
        _recheck(_radical_survives(L, verdict.witness), "witness recheck failed: ad x is semisimple")
    return verdict


def is_nilpotent_free(L: LieAlgebra, mode: str = "search", *, seed: int = DEFAULT_SEED) -> Verdict:
    """Does every element with nilpotent ad lie in the center?  A refuting
    x is rechecked by routes the scan does not take: chi_{ad x} = t^n, ad x != 0."""
    verdict = _aniso_like(L, mode, seed, lambda x: (L.ad(x) ** L.dim).is_zero() and not L.center().contains(x))
    if verdict.is_refuted:
        _recheck(zero_multiplicity(L, verdict.witness) == L.dim, "witness recheck failed: chi_{ad x} is not t^dim")
        _recheck(not L.ad(verdict.witness).is_zero(), "witness recheck failed: ad x is zero")
    return verdict


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
        _recheck(fails(witness), "witness recheck failed: noncentral nilpotent element passes")
        return Verdict.refuted(witness, reason="nilpotent-nonabelian")
    if mode == "certificate":
        cert = _definite_a1(L)
        if cert is not None and cert[2]:
            diagonal, sign, _ = cert
            return Verdict.certified("definite-quadratic-form", rank=1, a2="0", diagonal=diagonal, sign=sign)
    return _scan(L, mode, seed, fails)


# ---------------------------------------------------------------------------
# restricted and induced actions on an ideal (characteristic factorization)


def _ideal_actions(L: LieAlgebra, ideal: Subspace, x: Vector) -> Tuple[Matrix, Matrix]:
    """(ad x on the ideal, ad x on the quotient) for x in field scalars.
    Column s of the first is [x, u_s], rechecked to lie in the ideal, at
    the pivots of its echelon rows u_s; the second is ad of the coset of
    x in ``quotient_with_projection`` (built once per ideal and cached),
    which raises StructureError when the subspace is not an ideal."""
    key = ("quotient", ideal)
    if key not in L._cache:
        L._cache[key] = quotient_with_projection(L, ideal)
    quot, project = L._cache[key]
    images = [L.bracket(x, u) for u in ideal.rows]
    _recheck(all(map(ideal.contains, images)), "[x, u] must stay in the ideal")
    inner = Matrix(L.field, [[img[p] for img in images] for p in ideal.pivots], ncols=ideal.dim)
    # [x - i, rep] = [x, rep] modulo the ideal for i in the ideal
    return inner, quot.ad(project(x))


def char_poly_factorization(L: LieAlgebra, ideal: Subspace, x: Sequence) -> Tuple[UniPoly, UniPoly, UniPoly]:
    """(chi on the ideal, chi on the quotient, chi on L) for a concrete x,
    from the actions of ad x (``_ideal_actions``), so that
    chi_{ad x} = chi_{restriction} * chi_{quotient} can be checked."""
    x = L.coerce_vector(x)
    inner, outer = _ideal_actions(L, ideal, x)
    return inner.char_poly(), outer.char_poly(), L.ad(x).char_poly()


def relative_rank(L: LieAlgebra, ideal: Subspace) -> Tuple[int, int]:
    """Formal least nonvanishing indices for the two factor families,
    with x ranging over the whole algebra (not just the ideal).

    This is the quantity that adds up along an ideal: the least zero-
    multiplicity of the restricted action plus that of the quotient
    action equals the rank of L, because the characteristic polynomial
    factors accordingly and generic x minimizes both factors at once.
    The two families are the actions of each ad b_m (``_ideal_actions``).
    """
    n = L.dim
    if n > SYMBOLIC_DIM:
        raise BudgetExceeded(f"relative rank limited to dim <= {SYMBOLIC_DIM}")
    actions = [_ideal_actions(L, ideal, L.basis_vector(m)) for m in range(n)]
    return tuple(
        _least_nonzero(linear_family_char_coeffs(L.field, [pair[side] for pair in actions], n)) for side in (0, 1)
    )
