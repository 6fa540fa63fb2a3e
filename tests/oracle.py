"""The independent oracle of the test suite.

Each object is computed from its definition, with the standard library
only: nothing here imports lielab, so a fault in lielab cannot hide in the
reference it is checked against.  A field is named by its characteristic
p: 0 for Q, whose scalars are Fractions, or a prime p, whose scalars are
ints in [0, p).  A scalar handed in is read as an int, a Fraction or its
decimal string, so an F_p scalar of any library reads as its residue.
Vectors are tuples, matrices tuples of rows.  An ``Algebra(p, n, c)`` has
c[i][j] the coordinates of [b_i, b_j]; ``read`` takes it from the
``to_json_dict()`` document of a table.  Elimination is Gauss-Jordan;
characteristic polynomials are det(tI - A) by cofactor expansion, with no
division; Der, the commutant of ad L and the 2-cocycles are dense
equations from their definitions; the closures are fixed points.
"""
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import mul

Algebra = namedtuple("Algebra", "p n c")


# -- scalars and linear algebra ------------------------------------------------


def scalar(p, x):
    if type(x) is not int and type(x) is not Fraction:
        s = str(x)
        x = int(s) if s.lstrip("-").isdigit() else Fraction(s)
    if p:
        return x % p if type(x) is int else x.numerator * pow(x.denominator, -1, p) % p
    return x if type(x) is Fraction else Fraction(x)


def _red(p, x):
    return x % p if p else x


def _axpy(p, u, f, w):
    """u - f w."""
    return [(x - f * y) % p for x, y in zip(u, w)] if p else [x - f * y for x, y in zip(u, w)]


def _monic(p, u, lead):
    inv = pow(u[lead], -1, p) if p else 1 / u[lead]
    return [x * inv % p for x in u] if p else [x * inv for x in u]


def vector(p, v):
    return tuple(scalar(p, x) for x in v)


def matrix(p, rows):
    return tuple(vector(p, r) for r in rows)


def rref(p, rows, ncols):
    """Reduced row echelon form: (the nonzero rows, their pivot columns)."""
    return _rref(p, [list(r) for r in matrix(p, rows)], ncols)


def _rref(p, a, ncols):
    """rref of the lists of scalars a, which it overwrites."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        a[r] = _monic(p, a[r], c)
        for i in range(len(a)):
            if i != r and a[i][c]:
                a[i] = _axpy(p, a[i], a[i][c], a[r])
        pivots.append(c)
    return tuple(tuple(row) for row in a[: len(pivots)]), tuple(pivots)


def rank(p, rows, ncols):
    return len(rref(p, rows, ncols)[1])


def span(p, n, vectors):
    """The echelon basis of the span of the vectors in K^n."""
    return rref(p, vectors, n)[0]


def kernel(p, rows, ncols):
    """The echelon basis of {x : rows x = 0}."""
    erows, pivots = rref(p, rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [scalar(p, int(c == f)) for c in range(ncols)]
        for row, c in zip(erows, pivots):
            v[c] = _red(p, -row[f])
        basis.append(v)
    return span(p, ncols, basis)


def image(p, rows, ncols):
    """The echelon basis of the span of the columns."""
    rows = matrix(p, rows)
    return span(p, len(rows), [[row[j] for row in rows] for j in range(ncols)])


def solve(p, rows, ncols, b):
    """The solution of rows x = b with every free unknown 0, or None."""
    erows, pivots = rref(p, [tuple(row) + (x,) for row, x in zip(rows, b)], ncols + 1)
    if ncols in pivots:
        return None
    x = dict(zip(pivots, (row[ncols] for row in erows)))
    return tuple(x.get(c, scalar(p, 0)) for c in range(ncols))


def _dot(p, u, v):
    if p:
        return sum(map(mul, u, v)) % p
    return sum((x * y for x, y in zip(u, v) if x and y), Fraction(0))


def apply(p, rows, v):
    v = vector(p, v)
    return tuple(_dot(p, row, v) for row in matrix(p, rows))


def _mul(p, a, b, ncols):
    """a b for a and b of scalars, b with ncols columns: row r is the sum
    of the rows of b weighted by row r of a."""
    out = []
    for row in a:
        acc = [scalar(p, 0)] * ncols
        for x, brow in zip(row, b):
            if x:
                acc = [u + x * v for u, v in zip(acc, brow)]
        out.append(tuple([u % p for u in acc] if p else acc))
    return tuple(out)


def matmul(p, a, b, ncols):
    return _mul(p, matrix(p, a), matrix(p, b), ncols)


@lru_cache(maxsize=None)
def identity(p, n):
    return tuple(tuple(scalar(p, int(i == j)) for j in range(n)) for i in range(n))


def power(p, a, k):
    """a^k by repeated squaring."""
    a, acc = matrix(p, a), identity(p, len(a))
    while k:
        if k & 1:
            acc = _mul(p, acc, a, len(a))
        a, k = _mul(p, a, a, len(a)), k >> 1
    return acc


def combine(p, mats, x):
    """sum x_m mats[m] for d x d matrices."""
    d = len(mats[0]) if mats else 0
    acc = [[scalar(p, 0)] * d for _ in range(d)]
    for xm, m in zip(vector(p, x), mats):
        acc = [_axpy(p, row, -xm, mrow) for row, mrow in zip(acc, matrix(p, m))]
    return tuple(map(tuple, acc))


# -- polynomials ---------------------------------------------------------------
#
# A polynomial is a dict from exponent tuples to nonzero scalars.


def _poly_mul(p, a, b, sign, out):
    """out + sign a b."""
    for (ea, x), (eb, y) in product(a.items(), b.items()):
        e = tuple(map(sum, zip(ea, eb)))
        out[e] = _red(p, out.get(e, 0) + sign * x * y)
    return {e: c for e, c in out.items() if c}


def linear_family_char_coeffs(p, mats, nvars):
    """det(tI - sum x_m mats[m]) = sum a_k(x) t^k by cofactor expansion
    along the rows, each signed minor of the rows so far kept once per set
    of columns: the list of the a_k as polynomials in x_1..x_nvars."""
    mats = [matrix(p, m) for m in mats]
    d = len(mats[0]) if mats else 0

    def entry(r, col):
        # x_m has the exponent tuple of unit m, t the last one
        terms = {m: _red(p, -mat[r][col]) for m, mat in enumerate(mats)}
        terms[nvars] = scalar(p, int(r == col))
        return {tuple(int(i == m) for i in range(nvars + 1)): c for m, c in terms.items() if c}

    entries = [[entry(r, col) for col in range(d)] for r in range(d)]
    minors = {0: {(0,) * (nvars + 1): scalar(p, 1)}}
    for r in range(d):
        grown = {}
        for mask, minor in minors.items():
            for c in range(d):
                if not mask >> c & 1 and entries[r][c]:
                    sign = -1 if bin(mask >> c).count("1") % 2 else 1
                    grown[mask | 1 << c] = _poly_mul(p, entries[r][c], minor, sign, grown.get(mask | 1 << c, {}))
        minors = grown
    out = [{} for _ in range(d + 1)]
    for e, c in minors.get((1 << d) - 1, {}).items():
        out[e[-1]][e[:-1]] = c
    return out


def char_poly(p, a):
    """det(tI - a), its coefficients from t^0 up: the family x a at x = 1."""
    return tuple(_red(p, sum(a_k.values(), scalar(p, 0))) for a_k in linear_family_char_coeffs(p, [a], 1))


def det(p, a):
    return _red(p, (-1) ** len(a) * char_poly(p, a)[0])


def min_poly(p, a):
    """The monic polynomial of least degree that kills a: the first power
    of a, flattened, that is a combination of the powers before it."""
    n = len(a)
    powers = [identity(p, n)]
    while True:
        flat = [[x for row in q for x in row] for q in powers]
        sol = solve(p, [[f[e] for f in flat[:-1]] for e in range(n * n)], len(flat) - 1, flat[-1])
        if sol is not None:
            return tuple(_red(p, -x) for x in sol) + (scalar(p, 1),)
        powers.append(matmul(p, powers[-1], a, n))


# -- algebras ------------------------------------------------------------------


def pairs(n):
    """The pairs i < j in order: the cells of a table, the unknowns of a skew form."""
    return list(combinations(range(n), 2))


def _algebra(p, n, cells):
    """The algebra whose [b_i, b_j], i < j, has the coordinates cells[i, j]."""
    c = [[(scalar(p, 0),) * n] * n for _ in range(n)]
    for (i, j), v in cells.items():
        c[i][j], c[j][i] = v, tuple(_red(p, -x) for x in v)
    return Algebra(p, n, tuple(map(tuple, c)))


def read(doc):
    """The algebra of a ``to_json_dict()`` document."""
    p = 0 if doc["field"]["kind"] == "Q" else doc["field"]["p"]
    n, cells = doc["dim"], {}
    for entry in doc["brackets"]:
        coeffs = {int(k): s for k, s in entry["coeffs"].items()}
        cells[entry["i"], entry["j"]] = tuple(scalar(p, coeffs.get(k, 0)) for k in range(n))
    return _algebra(p, n, cells)


def from_coefficients(p, n, coeffs):
    """The table whose pairs i < j, in order, take n coefficients each."""
    v = vector(p, coeffs)
    return _algebra(p, n, {pair: v[s * n : (s + 1) * n] for s, pair in enumerate(pairs(n))})


def bracket(A, x, y):
    p, n, c = A
    x, y, out = vector(p, x), vector(p, y), [scalar(p, 0)] * n
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj:
                out = _axpy(p, out, -xi * yj, c[i][j])
    return tuple(out)


def ad(A, x):
    """The matrix of ad x: entry (k, j) is the b_k coordinate of [x, b_j]."""
    p, n, c = A
    x = vector(p, x)
    return tuple(tuple(_dot(p, x, [c[i][j][k] for i in range(n)]) for j in range(n)) for k in range(n))


def jacobi_defects(A):
    """Each triple i < j < k with [[b_i, b_j], b_k] + [[b_j, b_k], b_i]
    + [[b_k, b_i], b_j] nonzero, with that sum."""
    b, out = identity(A.p, A.n), []
    for i, j, k in combinations(range(A.n), 3):
        terms = [bracket(A, A.c[x][y], b[z]) for x, y, z in ((i, j, k), (j, k, i), (k, i, j))]
        defect = tuple(_red(A.p, sum(cs)) for cs in zip(*terms))
        if any(defect):
            out.append(((i, j, k), defect))
    return out


@lru_cache(maxsize=None)
def census_flags(p, n):
    """(coefficients, Jacobi holds) for every table of dimension n over
    F_p, the coefficients of the pairs i < j in order, in product order."""
    count = n * len(pairs(n))
    return tuple((c, not jacobi_defects(from_coefficients(p, n, c))) for c in product(range(p), repeat=count))


def bracket_span(A, us, vs):
    return span(A.p, A.n, [bracket(A, u, v) for u in us for v in vs])


def _fixed_point(p, n, seeds, step):
    """The span of the seeds with step(basis) added until it stops growing."""
    s = span(p, n, seeds)
    while True:
        grown = span(p, n, list(s) + list(step(s)))
        if len(grown) == len(s):
            return s
        s = grown


def ideal(A, vectors):
    return _fixed_point(A.p, A.n, vectors, lambda s: bracket_span(A, identity(A.p, A.n), s))


def subalgebra(A, vectors):
    return _fixed_point(A.p, A.n, vectors, lambda s: bracket_span(A, s, s))


def close(p, n, maps, seeds):
    """The least span holding the seeds and closed under the maps."""
    return _fixed_point(p, n, seeds, lambda s: [apply(p, m, u) for m in maps for u in s])


def is_ideal(A, rows):
    return rank(A.p, list(rows) + list(bracket_span(A, identity(A.p, A.n), rows)), A.n) == rank(A.p, rows, A.n)


def envelope_is_full(A):
    """Whether the identity and the ad b_i generate End(L) as an algebra:
    the span of I and the ad b_i closed under left multiplication by every
    ad b_i, by a worklist that stops once the span is full."""
    p, n = A.p, A.n
    ads = [ad(A, b) for b in identity(p, n)]
    echelon, todo = {}, []  # pivot -> row, zero before the pivot and 1 there

    def add(m):
        v = [x for row in m for x in row]
        for c in sorted(echelon):
            v = _axpy(p, v, v[c], echelon[c]) if v[c] else v
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is not None:
            echelon[lead] = _monic(p, v, lead)
            todo.append(m)

    for m in (identity(p, n), *ads):
        add(m)
    while todo and len(echelon) < n * n:
        m = todo.pop()
        for a in ads:
            add(_mul(p, a, m, n))
    return len(echelon) == n * n


def nu(A, x):
    """The multiplicity of the eigenvalue 0 of ad x, n - rank (ad x)^n: the
    rank where the images (ad x)^k K^n stop shrinking."""
    p, n = A.p, A.n
    a, images = ad(A, x), identity(p, n)
    while True:
        smaller = _rref(p, [[_dot(p, row, v) for row in a] for v in images], n)[0]
        if len(smaller) == len(images):
            return n - len(smaller)
        images = smaller


def pointwise_rank(A, lower):
    """The least nu over every point of F_p^n, the walk ending at the first
    nu <= lower, a proven lower bound on every nu."""
    best = A.n
    for x in product(range(A.p), repeat=A.n):
        best = min(best, nu(A, x))
        if best <= lower:
            break
    return best


def fitting(A, xs):
    """(null, one, nu) of the almost-commuting family xs: the common kernel
    and the summed image of the (ad x)^n, and the null dimension; None if
    some (ad x)^n y is nonzero for x, y in the family."""
    p, n = A.p, A.n
    powers = [power(p, ad(A, x), n) for x in xs]
    if any(any(apply(p, m, y)) for m in powers for y in xs):
        return None
    null = kernel(p, [row for m in powers for row in m], n)
    return null, span(p, n, [v for m in powers for v in image(p, m, n)]), len(null)


def ideal_actions(A, ideal_rows, x):
    """The matrices of ad x on the ideal, in its echelon basis read at the
    pivots, and on the quotient, in the cosets of the basis vectors off the
    pivots; ValueError if the span is not an ideal."""
    p, n = A.p, A.n
    rows, pivots = rref(p, ideal_rows, n)

    def reduce(v):
        for row, c in zip(rows, pivots):
            v = _axpy(p, v, v[c], row) if v[c] else v
        return v

    inner = [bracket(A, x, u) for u in rows]
    if any(any(reduce(v)) for v in inner):
        raise ValueError("not an ideal")
    cosets = [c for c in range(n) if c not in pivots]
    outer = [reduce(bracket(A, x, identity(p, n)[c])) for c in cosets]
    return tuple(tuple(v[c] for v in inner) for c in pivots), tuple(tuple(v[t] for v in outer) for t in cosets)


# -- equation systems ----------------------------------------------------------
#
# A linear map phi of L is the flat vector of its matrix: phi[r][k], the
# coefficient of b_r in phi(b_k), at r * n + k.


def _rows(p, size, equations):
    """Dense rows over `size` unknowns, one per list of (unknown, coefficient)."""
    rows = []
    for terms in equations:
        row = [scalar(p, 0)] * size
        for u, x in terms:
            row[u] = _red(p, row[u] + x)
        rows.append(tuple(row))
    return rows


def der_equations(A):
    """phi[b_i, b_j] - [phi b_i, b_j] - [b_i, phi b_j] = 0, coordinate r,
    for every pair i < j."""
    p, n, c = A
    return _rows(p, n * n, (
        [(r * n + k, c[i][j][k]) for k in range(n) if c[i][j][k]]
        + [(s * n + i, -c[s][j][r]) for s in range(n) if c[s][j][r]]
        + [(s * n + j, -c[i][s][r]) for s in range(n) if c[i][s][r]]
        for i, j in pairs(n)
        for r in range(n)
    ))


def der(A):
    """The derivations, flat, as the echelon basis of their space."""
    return kernel(A.p, der_equations(A), A.n * A.n)


def commutant_equations(A):
    """phi ad b_i - ad b_i phi = 0, entry (r, k), for every i."""
    p, n = A.p, A.n
    return _rows(p, n * n, (
        [(r * n + s, a[s][k]) for s in range(n) if a[s][k]] + [(s * n + k, -a[r][s]) for s in range(n) if a[r][s]]
        for a in (ad(A, b) for b in identity(p, n))
        for r in range(n)
        for k in range(n)
    ))


def cocycle_equations(A):
    """w([b_i, b_j], b_k) + w([b_j, b_k], b_i) + w([b_k, b_i], b_j) = 0 for
    every triple i < j < k, w skew in the unknowns of ``pairs``."""
    p, n, c = A
    slot = {pair: s for s, pair in enumerate(pairs(n))}
    return _rows(p, len(slot), (
        [
            (slot[min(m, z), max(m, z)], cm if m < z else -cm)
            for x, y, z in ((i, j, k), (j, k, i), (k, i, j))
            for m, cm in enumerate(c[x][y])
            if cm and m != z
        ]
        for i, j, k in combinations(range(n), 3)
    ))


def cocycles(A):
    """Z^2(L, K) as an echelon basis in the unknowns of ``pairs``."""
    return kernel(A.p, cocycle_equations(A), len(pairs(A.n)))


def coboundaries(A):
    """B^2(L, K): the forms w(x, y) = f([x, y]) for f in the dual of L."""
    return span(A.p, len(pairs(A.n)), [[A.c[i][j][m] for i, j in pairs(A.n)] for m in range(A.n)])


def structure_constants(p, n, mats):
    """The table {(a, b): {k: c}} of the commutators of the independent
    n x n matrices in the coordinates of the matrices themselves;
    ValueError if a commutator leaves their span."""
    d, size = len(mats), n * n
    mats = [matrix(p, m) for m in mats]
    # the echelon form of [M | I] is [T M | T]: coordinates in T M are the
    # entries at the pivots, and those times T are coordinates in M
    erows, pivots = _rref(p, [[x for row in m for x in row] + list(identity(p, d)[i]) for i, m in enumerate(mats)], size + d)
    if len(pivots) < d or any(c >= size for c in pivots):
        raise ValueError("the matrices are dependent")
    table = {}
    for a, b in combinations(range(d), 2):
        ab, ba = _mul(p, mats[a], mats[b], n), _mul(p, mats[b], mats[a], n)
        v = _axpy(p, [x for row in ab for x in row], 1, [x for row in ba for x in row]) + [scalar(p, 0)] * d
        for row, x in zip(erows, [v[c] for c in pivots]):
            v = _axpy(p, v, x, row) if x else v
        if any(v[:size]):
            raise ValueError("a commutator left the span")
        # v[size:] is now minus the coordinates times T
        if cs := {k: _red(p, -x) for k, x in enumerate(v[size:]) if x}:
            table[a, b] = cs
    return table


# -- forms and series ----------------------------------------------------------


def killing(A):
    """K_ij = tr(ad b_i ad b_j)."""
    ads = [ad(A, b) for b in identity(A.p, A.n)]
    return tuple(tuple(_red(A.p, sum(_dot(A.p, r, col) for r, col in zip(x, zip(*y)))) for y in ads) for x in ads)


def is_invariant(A, gram):
    """<[b_i, b_j], b_k> = <b_i, [b_j, b_k]> for every i, j, k."""
    p, n, c = A
    g = matrix(p, gram)
    return all(_dot(p, c[i][j], [r[k] for r in g]) == _dot(p, g[i], c[j][k]) for i, j, k in product(range(n), repeat=3))


def _series(A, step):
    """L, step(L), ... until a term is zero or no smaller than the last."""
    series = [identity(A.p, A.n)]
    while series[-1] and len(nxt := step(series[-1])) < len(series[-1]):
        series.append(nxt)
    return series


def lower_central_series(A):
    return _series(A, lambda s: bracket_span(A, identity(A.p, A.n), s))


def derived_series(A):
    return _series(A, lambda s: bracket_span(A, s, s))


# -- the definite a_1 of a dimension-3 algebra over Q ---------------------------


def a1_gram(A):
    """The Gram matrix of a_1, the coefficient of t in det(tI - ad x), by
    polarization: a_1(b_i) on the diagonal and
    (a_1(b_i + b_j) - a_1(b_i) - a_1(b_j)) / 2 off it."""
    units = identity(A.p, A.n)

    def a1(x):
        return char_poly(A.p, ad(A, x))[1]

    q = [a1(u) for u in units]
    return tuple(
        tuple(q[i] if i == j else (a1(_axpy(A.p, u, -1, v)) - q[i] - q[j]) / 2 for j, v in enumerate(units))
        for i, u in enumerate(units)
    )


def definite_a1(A):
    """(the diagonal, positive, a_2 identically zero) when a_1 is definite,
    else None.  It needs rank 1 (a_1 is the first coefficient of
    det(tI - ad x) not identically zero) and the leading principal minors
    d_1, d_2, d_3 of a_1's Gram matrix nonzero with d_1, d_2 / d_1, d_3 / d_2
    of one sign: that is the diagonal."""
    coeffs = linear_family_char_coeffs(A.p, [ad(A, b) for b in identity(A.p, A.n)], A.n)
    if coeffs[0] or not coeffs[1]:
        return None
    gram = a1_gram(A)
    minors = [det(A.p, [row[:k] for row in gram[:k]]) for k in range(1, A.n + 1)]
    if not all(minors):
        return None
    diagonal = tuple(m / before for m, before in zip(minors, [1] + minors))
    signs = {d > 0 for d in diagonal}
    return (diagonal, signs.pop(), not coeffs[2]) if len(signs) == 1 else None


# -- psl3 over F_3 from 3 x 3 matrices -------------------------------------------
#
# The one source of this table that does not come from lielab: psl3 over F_3
# is the traceless 3 x 3 matrices modulo the scalars (tr I = 3 = 0), with
# basis E12, E13, E21, E23, E31, E32, H = E11 - E22; mod I, E22 - E33 is
# congruent to H.

_OFF_DIAGONAL = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))


def unit3(r, c):
    return tuple(tuple(int((a, b) == (r, c)) for b in range(3)) for a in range(3))


PSL3_BASIS = tuple(unit3(r, c) for r, c in _OFF_DIAGONAL) + (((1, 0, 0), (0, 2, 0), (0, 0, 0)),)


def _psl3_coords(x, y):
    """Coordinates of [x, y] modulo I; diag(a, b, c) = a*h1 + (a+b)*h2 = (2a+b)*H."""
    m = [_axpy(3, u, 1, v) for u, v in zip(matmul(3, x, y, 3), matmul(3, y, x, 3))]
    return tuple(m[r][c] for r, c in _OFF_DIAGONAL) + ((2 * m[0][0] + m[1][1]) % 3,)


def psl3_mod3():
    return _algebra(3, 7, {(i, j): _psl3_coords(PSL3_BASIS[i], PSL3_BASIS[j]) for i, j in pairs(7)})


def induced_mod3(x):
    """The map y -> [x, y] of psl3 over F_3 for a 3 x 3 matrix x, flat."""
    cols = [_psl3_coords(x, b) for b in PSL3_BASIS]
    return tuple(cols[k][m] for m in range(7) for k in range(7))
