"""The F_p residue kernel against the Fp-object loops it replaced.

The reference functions below are the elimination and Hessenberg loops
that ran on Fp objects before the kernel moved to plain ints mod p.  They
stay here, and only here, as an independent oracle: every echelon form,
kernel, solution and characteristic or minimal polynomial from the
residue kernel must equal theirs exactly.  The fixed-point ideal closure
that the worklist closure replaced is kept the same way.
"""
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from lielab import gl, heisenberg, pgl, sl, strict_upper, zero_multiplicity
from lielab.fields import GF, QQ, UniPoly, poly_lcm
from lielab.linalg import Matrix, Subspace

FIELDS = [GF(2), GF(3), GF(5), GF(7), GF(2147483647)]


# -- reference: the Fp-object loops --------------------------------------


def ref_rref(field, rows, ncols):
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.one / rows[r][c]
        if inv != field.one:
            rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def ref_kernel(field, rows, ncols):
    """Canonical echelon rows of the null space."""
    erows, pivots = ref_rref(field, rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [field.zero] * ncols
        v[f] = field.one
        for r, p in enumerate(pivots):
            v[p] = -erows[r][f]
        basis.append(v)
    return ref_rref(field, basis, ncols)[0]


def ref_solve(field, rows, ncols, b):
    aug = [tuple(row) + (bb,) for row, bb in zip(rows, b)]
    erows, pivots = ref_rref(field, aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for r, p in enumerate(pivots):
        x[p] = erows[r][ncols]
    return tuple(x)


def ref_char_poly(field, rows):
    n = len(rows)
    h = [list(row) for row in rows]
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
    t = UniPoly.t(field)
    polys = [UniPoly.one(field)]
    for m in range(1, n + 1):
        p = (t - UniPoly(field, [h[m - 1][m - 1]])) * polys[m - 1]
        prod = field.one
        for i in range(1, m):
            prod = prod * h[m - i][m - i - 1]
            coeff = h[m - 1 - i][m - 1]
            if coeff and prod:
                p = p - polys[m - 1 - i].scale(coeff * prod)
        polys.append(p)
    return polys[n]


def ref_apply(field, rows, v):
    out = []
    for row in rows:
        acc = field.zero
        for a, x in zip(row, v):
            acc = acc + a * x
        out.append(acc)
    return tuple(out)


def ref_min_poly(field, rows):
    n = len(rows)
    acc = UniPoly.one(field)
    for s in range(n):
        if acc.degree == n:
            break
        v = tuple(field.one if i == s else field.zero for i in range(n))
        chain = [v]
        w = ref_apply(field, rows, v)
        while True:
            cols = [[col[i] for col in chain] for i in range(n)]
            sol = ref_solve(field, cols, len(chain), w)
            if sol is not None:
                local = UniPoly(field, [-c for c in sol] + [field.one])
                break
            chain.append(w)
            w = ref_apply(field, rows, w)
        acc = poly_lcm(acc, local)
    return acc


# -- strategies --------------------------------------------------------------


@st.composite
def matrices(draw, square=False):
    """(field, Fp rows, ncols): full-rank-ish or forced rank-deficient,
    including the empty shapes 0x0, m x 0 and 0 x n."""
    field = draw(st.sampled_from(FIELDS))
    p = field.p
    m = draw(st.integers(0, 6))
    n = m if square else draw(st.integers(0, 6))
    small = st.integers(0, min(p - 1, 3))
    entry = st.one_of(small, st.integers(0, p - 1))
    if draw(st.booleans()) and m and n:
        # rank at most k: every row a combination of k base rows
        k = draw(st.integers(0, min(m, n) - 1))
        base = [[draw(entry) for _ in range(n)] for _ in range(k)]
        coef = [[draw(entry) for _ in range(k)] for _ in range(m)]
        ints = [[sum(c * b[j] for c, b in zip(cr, base)) for j in range(n)] for cr in coef]
    else:
        ints = [[draw(entry) for _ in range(n)] for _ in range(m)]
    rows = [tuple(field.of(c) for c in row) for row in ints]
    return field, rows, n


# -- kernel against reference ----------------------------------------------------


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_rref_matches_reference(case):
    field, rows, n = case
    assert Matrix(field, rows, ncols=n).rref() == ref_rref(field, rows, n)


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_kernel_matches_reference(case):
    field, rows, n = case
    mat = Matrix(field, rows, ncols=n)
    ker = mat.kernel()
    assert ker.rows == ref_kernel(field, rows, n)
    assert ker.dim + mat.rank() == n


@given(matrices(), st.data())
@settings(max_examples=120, deadline=None)
def test_solve_matches_reference(case, data):
    field, rows, n = case
    m = len(rows)
    if data.draw(st.booleans()):
        # a consistent right-hand side: the image of a random x
        x = [field.of(data.draw(st.integers(0, field.p - 1))) for _ in range(n)]
        b = ref_apply(field, rows, x)
    else:
        b = tuple(field.of(data.draw(st.integers(0, field.p - 1))) for _ in range(m))
    got = Matrix(field, rows, ncols=n).solve(b)
    assert got == ref_solve(field, rows, n, b)
    if got is not None:
        assert ref_apply(field, rows, got) == tuple(b)


@given(matrices(square=True))
@settings(max_examples=120, deadline=None)
def test_char_poly_matches_reference(case):
    field, rows, n = case
    assert Matrix(field, rows, ncols=n).char_poly() == ref_char_poly(field, rows)


@given(matrices(square=True))
@settings(max_examples=100, deadline=None)
def test_min_poly_matches_reference(case):
    field, rows, n = case
    assert Matrix(field, rows, ncols=n).min_poly() == ref_min_poly(field, rows)


def test_empty_shapes():
    for field in FIELDS:
        for m, n in ((0, 0), (3, 0), (0, 4)):
            mat = Matrix(field, [()] * m, ncols=n)
            assert mat.rref() == ((), ())
            assert mat.kernel().dim == n
            assert mat.solve((field.zero,) * m) == (field.zero,) * n
        assert Matrix(field, [], ncols=0).char_poly() == UniPoly.one(field)


# -- residue zero multiplicity against the char poly ------------------------------


def _first_nonzero(poly):
    return next(i for i, c in enumerate(poly.coeffs) if c)


def _ad_by_fp_objects(L, x):
    """ad x built from the Fp table with Fp arithmetic, not the residue table."""
    n = L.dim
    rows = [[L.field.zero] * n for _ in range(n)]
    for (i, j), coeffs in L.table.items():
        for k, c in coeffs.items():
            rows[k][j] = rows[k][j] + x[i] * c
            rows[k][i] = rows[k][i] - x[j] * c
    return rows


def test_zero_multiplicity_sl2_f5_every_point():
    F5 = GF(5)
    L = sl(F5, 2)
    for x in product(tuple(F5.elements()), repeat=L.dim):
        nu = zero_multiplicity(L, x)
        assert nu == _first_nonzero(L.ad(x).char_poly())
        assert nu == _first_nonzero(ref_char_poly(F5, _ad_by_fp_objects(L, x)))


def test_zero_multiplicity_pgl3_f3_every_point():
    F3 = GF(3)
    L = pgl(F3, 3)
    elements = tuple(F3.elements())
    for idx, x in enumerate(product(elements, repeat=L.dim)):
        nu = zero_multiplicity(L, x)
        assert nu == _first_nonzero(L.ad(x).char_poly()), x
        if idx % 97 == 0:
            assert nu == _first_nonzero(ref_char_poly(F3, _ad_by_fp_objects(L, x))), x



# -- worklist ideal closure against the fixed-point closure ------------------------


def _ideal_by_fixed_point(L, vectors):
    """The closure the worklist replaced: re-echelonize the span with every
    [b_i, u] until it stops growing."""
    span = Subspace.from_vectors(L.field, L.dim, [L.coerce_vector(v) for v in vectors])
    while True:
        grown = span
        for i in range(L.dim):
            imgs = [L.bracket(L.basis_vector(i), u) for u in span.rows]
            grown = grown.sum_with(Subspace.from_vectors(L.field, L.dim, imgs))
        if grown.dim == span.dim:
            return span
        span = grown


IDEAL_CASES = [
    pgl(GF(3), 3),
    gl(GF(5), 2),
    strict_upper(GF(2), 4),
    heisenberg(QQ, 2),
    strict_upper(QQ, 4),
    gl(QQ, 2),
]


@given(st.sampled_from(IDEAL_CASES), st.data())
@settings(max_examples=60, deadline=None)
def test_ideal_generated_matches_fixed_point(L, data):
    """Same canonical echelon rows, so equality of Subspaces also checks
    that the worklist basis is fully reduced."""
    lo, hi = (0, L.field.p - 1) if L.field.kind == "Fp" else (-3, 3)
    vectors = data.draw(st.lists(st.lists(st.integers(lo, hi), min_size=L.dim, max_size=L.dim), max_size=2))
    assert L.ideal_generated(vectors) == _ideal_by_fixed_point(L, vectors)
