"""End-to-end acceptance battery.

Twelve scenario tests, one per headline capability, each printing a
single PASS/FAIL line with its runtime.  Every comparison is exact; the
wall-clock caps are asserted, not advisory.  Failures collect all
mismatches first so the printed line and the assertion message carry
the complete picture.
"""

import functools
import json
import random
import time

from lielab.algebra import (
    LieAlgebra,
    canonical_dumps,
    central_extension,
    derivation_algebra,
    direct_sum,
    h2_trivial,
)
from lielab.budgets import DEFAULT_SEED
from lielab.catalog import (
    QuaternionAlgebra,
    abelian,
    enumerate_tables,
    heisenberg,
    is_division,
    pgl,
    psl,
    r2,
    sl,
    sl_image_in_pgl,
    strict_upper,
    su2q,
)
from lielab.cli import run_verify
from lielab.commutator import fitting_orthogonality, is_minimal_non, quaternion_commutator
from lielab.fields import GF, QQ, MultiPoly
from lielab.linalg import Subspace, vec_is_zero, vec_scale, vec_sub
from lielab.regularity import (
    char_poly_factorization,
    generic_char_poly,
    is_regular_algebra,
    rank,
    relative_rank,
    zero_multiplicity,
)

import oracle
from cases import canonical_instances, census_tables, form_value

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def _sample(rng, field, dim):
    """One nonzero coordinate vector, matching the CLI's sampling."""
    while True:
        if field.kind == "Q":
            v = tuple(QQ.of(rng.randint(-9, 9)) for _ in range(dim))
        else:
            v = tuple(field.of(rng.randrange(field.p)) for _ in range(dim))
        if not vec_is_zero(v):
            return v


class _Criterion:
    """Collects mismatches, then prints exactly one PASS/FAIL line."""

    def __init__(self, label, cap_seconds):
        self.label = label
        self.cap = cap_seconds
        self.problems = []
        self.started = time.monotonic()

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)

    def done(self):
        elapsed = time.monotonic() - self.started
        if elapsed >= self.cap:
            self.problems.append(f"took {elapsed:.2f}s, cap {self.cap}s")
        status = "PASS" if not self.problems else "FAIL"
        print(f"{status}  {self.label}  ({elapsed:.2f}s)")
        assert not self.problems, "; ".join(self.problems)


@functools.lru_cache(maxsize=None)
def _psl3_mod3_oracle():
    """Dimensions of Der, the pgl3 and ad images, Z^2, B^2, H^2 and the
    trace-form rank of psl3 over F_3, from the oracle's table built from
    3 x 3 matrices mod 3, nothing of it from lielab."""
    A = oracle.psl3_mod3()
    z2, b2 = len(oracle.cocycles(A)), len(oracle.coboundaries(A))
    basis = oracle.PSL3_BASIS
    trace_gram = [[sum(x[a][k] * y[k][a] for a in range(3) for k in range(3)) for y in basis] for x in basis]
    return {
        "der": len(oracle.der(A)),
        "pgl_image": oracle.rank(3, [oracle.induced_mod3(oracle.unit3(r, c)) for r in range(3) for c in range(3)], 49),
        "ad": oracle.rank(3, [oracle.induced_mod3(x) for x in basis], 49),
        "z2": z2,
        "b2": b2,
        "h2": z2 - b2,
        "trace_form_rank": oracle.rank(3, trace_gram, 7),
    }


def test_nilpotent_families_have_full_rank():
    c = _Criterion("nilpotent-full-rank", 1.0)
    for field in (QQ, F5):
        for L in (heisenberg(field, 1), heisenberg(field, 2), strict_upper(field, 4)):
            c.check(rank(L) == L.dim, f"rank {rank(L)} != dim {L.dim} over {field}")
            v = is_regular_algebra(L)
            c.check(v.is_certified, f"not certified regular: {v.status}")
            c.check(v.certificate == "structural", f"wrong certificate {v.certificate}")
    c.done()


def test_char_poly_factors_along_ideals():
    c = _Criterion("chi-factors-through-ideal", 1.0)
    rng = random.Random(DEFAULT_SEED)

    R = r2(QQ)
    ideal_r = Subspace.from_vectors(QQ, 2, [R.basis_vector(1)])
    D = direct_sum(sl(QQ, 2), sl(QQ, 2))
    ideal_d = Subspace.from_vectors(
        QQ, 6, [D.basis_vector(0), D.basis_vector(1), D.basis_vector(2)]
    )
    for L, ideal in ((R, ideal_r), (D, ideal_d)):
        for _ in range(50):
            x = _sample(rng, QQ, L.dim)
            chi_i, chi_q, chi_l = char_poly_factorization(L, ideal, x)
            c.check(chi_i * chi_q == chi_l, f"factorization failed at {x}")
        ri, rq = relative_rank(L, ideal)
        c.check(ri + rq == rank(L), f"relative ranks {ri}+{rq} != rank {rank(L)}")
    c.done()


def test_su2q_definite_coefficient():
    c = _Criterion("su2q-definite-a1", 1.0)
    SU = su2q()
    g = generic_char_poly(SU)
    x1, x2, x3 = (MultiPoly(QQ, 3, {e: 1}) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    expected = (x1 * x1 + x2 * x2 + x3 * x3).scale(QQ.of(4))
    c.check(MultiPoly(QQ, 3, g.terms[1]) == expected, "a_1 is not 4(x1^2 + x2^2 + x3^2)")
    v = is_regular_algebra(SU, mode="certificate")
    c.check(v.is_certified, f"verdict {v.status}")
    c.check(v.certificate == "definite-quadratic-form", f"certificate {v.certificate}")
    c.done()


def test_negative_instances_are_refuted():
    c = _Criterion("negative-instances", 2.0)
    v = is_regular_algebra(sl(QQ, 2))
    c.check(v.is_refuted, f"sl2(Q): {v.status}")
    c.check(v.witness == (QQ.one, QQ.zero, QQ.zero), f"witness {v.witness}")

    w = is_regular_algebra(sl(F5, 2), mode="exhaustive")
    c.check(w.is_refuted, f"sl2(F5): {w.status}")
    c.check(w.evidence.get("total_nonzero") == 124, f"evidence {w.evidence}")

    H = QuaternionAlgebra(F5, F5.of(-1), F5.of(-1))
    d = is_division(H)
    c.check(d.is_refuted, f"F5 quaternions: {d.status}")
    if d.is_refuted:
        x, y = d.witness
        c.check(
            vec_is_zero(H.multiply(x, y)) and not vec_is_zero(x) and not vec_is_zero(y),
            "witness is not a zero divisor pair",
        )
    c.done()


def test_fitting_components_are_killing_orthogonal():
    c = _Criterion("fitting-killing-orthogonality", 1.0)
    rng = random.Random(DEFAULT_SEED)
    for L in (sl(QQ, 2), su2q()):
        form = L.killing_form()
        for i in range(L.dim):
            res = fitting_orthogonality(L, form, [L.basis_vector(i)])
            c.check(res.equal, f"basis element {i}: perp != one-component")
        for _ in range(100):
            x = _sample(rng, QQ, L.dim)
            res = fitting_orthogonality(L, form, [x])
            c.check(res.equal, f"sampled {x}: perp != one-component")
    c.done()


def test_trace_zero_quaternions_are_commutators():
    c = _Criterion("quaternion-commutators", 1.0)
    rng = random.Random(DEFAULT_SEED)
    Q = QuaternionAlgebra(QQ, QQ.of(-1), QQ.of(-1))
    produced = 0
    while produced < 100:
        x = (QQ.zero,) + _sample(rng, QQ, 3)
        u, v = quaternion_commutator(Q, x)
        # recheck straight through the associative product table
        c.check(
            vec_sub(Q.multiply(u, v), Q.multiply(v, u)) == x,
            f"uv - vu != x for {x}",
        )
        produced += 1
    c.done()


def test_projective_traceless_quotients():
    c = _Criterion("traceless-projective-quotients", 10.0)
    P = psl(F3, 3)
    G = pgl(F3, 3)
    c.check(P.dim == 7, f"psl dim {P.dim}")
    c.check(G.dim == 8, f"pgl dim {G.dim}")
    mod3 = _psl3_mod3_oracle()
    der, _mats = derivation_algebra(P)
    c.check(
        der.dim == mod3["der"],
        f"Der(psl3/F3): lielab dim {der.dim}, mod-3 oracle dim {mod3['der']}",
    )
    c.check(
        G.dim == mod3["pgl_image"] < der.dim,
        f"pgl3 inside Der(psl3/F3): lielab pgl dim {G.dim}, mod-3 oracle image dim "
        f"{mod3['pgl_image']}, lielab Der dim {der.dim}",
    )
    img = sl_image_in_pgl(F3, 3)
    c.check(img.dim == 7, f"traceless image dim {img.dim}")
    c.check(img.contains_subspace(G.commutant()), "[pgl,pgl] not inside traceless image")
    c.done()


def test_second_cohomology_dimensions():
    c = _Criterion("second-cohomology", 5.0)
    c.check(h2_trivial(sl(QQ, 2))[0] == 0, f"sl2(Q): {h2_trivial(sl(QQ, 2))[0]}")
    c.check(h2_trivial(heisenberg(QQ, 1))[0] == 2, "h3 should have a plane of classes")
    P = psl(F3, 3)
    d, reps = h2_trivial(P)
    E = central_extension(P, reps[0])
    c.check(E.dim == 8, f"extension dim {E.dim}")
    c.check(E.center().dim == 1, f"extension center {E.center().dim}")
    c.check(E.commutant().dim == 8, "extension is not perfect")
    mod3 = _psl3_mod3_oracle()
    c.check(
        d == mod3["h2"],
        f"H2(psl3/F3): lielab dim {d}, mod-3 oracle dim {mod3['h2']} "
        f"(Z2 {mod3['z2']}, B2 {mod3['b2']})",
    )
    # a nondegenerate invariant form makes Z2 the form-skew derivations and B2 the inner ones
    der, _mats = derivation_algebra(P)
    c.check(
        mod3["trace_form_rank"] == mod3["ad"] == P.dim and d == der.dim - P.dim,
        f"H2(psl3/F3): lielab dim {d}, lielab Der - ad = {der.dim} - {P.dim}, "
        f"mod-3 oracle ad dim {mod3['ad']}, trace-form rank {mod3['trace_form_rank']}",
    )
    c.done()


def test_minimal_counterexample_scans():
    c = _Criterion("minimal-counterexamples", 2.0)
    v = is_minimal_non(r2(F3), "regular")
    c.check(v.is_certified and v.certificate == "exhaustive", f"r2/F3 regular: {v.status}")
    w = is_minimal_non(r2(F3), "nilpotent")
    c.check(w.is_certified, f"r2/F3 nilpotent: {w.status}")
    c.check(r2(F3).structure_report().solvable, "r2 must be solvable")

    L = direct_sum(su2q(), abelian(QQ, 1))
    u = is_regular_algebra(L)
    c.check(u.is_refuted, f"su2q+center: {u.status}")
    if u.is_refuted:
        c.check(L.center().contains(u.witness), f"witness {u.witness} not central")
    s = is_regular_algebra(su2q(), mode="certificate")
    c.check(s.is_certified, f"su2q: {s.status}")
    c.done()


def test_small_binary_census():
    c = _Criterion("dimension-three-binary-census", 30.0)
    dim2 = list(enumerate_tables(2, F2))
    c.check(len(dim2) == 4, f"{len(dim2)} tables in dimension 2")
    c.check(all(t.jacobi_ok for t in dim2), "every 2-dimensional table is a Lie algebra")
    regular = [
        t for t in dim2 if is_regular_algebra(t.algebra(), mode="exhaustive").is_certified
    ]
    c.check(len(regular) == 1, f"{len(regular)} regular tables in dimension 2")
    c.check(
        regular and regular[0].algebra().structure_report().abelian,
        "the regular one must be abelian",
    )
    for dim in (1, 2, 3):
        for t in census_tables(dim, F2):
            L = t.algebra()
            c.check(
                (rank(L) == dim) == L.structure_report().nilpotent,
                f"rank/nilpotency mismatch at dim {dim}: {t.coeffs}",
            )
    c.done()


def test_invariant_suite_over_catalog():
    c = _Criterion("catalog-invariant-suite", 10.0)
    rng = random.Random(DEFAULT_SEED)
    instances = canonical_instances()
    for trial in range(200):
        name, L = instances[trial % len(instances)]
        x = _sample(rng, L.field, L.dim)
        y = _sample(rng, L.field, L.dim)
        z = _sample(rng, L.field, L.dim)
        s = L.field.of(rng.randrange(7) - 3)
        br = L.bracket
        c.check(
            br(x, y) == vec_scale(br(y, x), -L.field.one), f"{name}: antisymmetry"
        )
        lhs = br(tuple(a + s * b for a, b in zip(x, z)), y)
        rhs = tuple(a + s * b for a, b in zip(br(x, y), br(z, y)))
        c.check(lhs == rhs, f"{name}: linearity in the first slot")
        jac = tuple(
            a + b + d
            for a, b, d in zip(br(x, br(y, z)), br(y, br(z, x)), br(z, br(x, y)))
        )
        c.check(vec_is_zero(jac), f"{name}: Jacobi at sampled triple")
        c.check(L.ad(x).apply(y) == br(x, y), f"{name}: ad mismatch")
        k = L.killing_form()
        c.check(
            form_value(k, br(x, y), z) == form_value(k, x, br(y, z)),
            f"{name}: Killing associativity",
        )
    c.done()


def test_reproducible_serialization():
    c = _Criterion("byte-stable-serialization", 5.0)
    for name, L in canonical_instances():
        text = L.canonical_json()
        again = LieAlgebra.from_json_dict(json.loads(text)).canonical_json()
        c.check(text == again, f"{name}: round trip changed bytes")

    code1, payload1, _ = run_verify(DEFAULT_SEED, None)
    code2, payload2, _ = run_verify(DEFAULT_SEED, None)
    c.check(code1 == code2, "verify exit codes differ between runs")
    c.check(
        canonical_dumps(payload1) == canonical_dumps(payload2),
        "verify payloads differ between runs",
    )
    c.done()
