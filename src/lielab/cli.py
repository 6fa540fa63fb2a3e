"""Command-line surface.

Every command reads an algebra as JSON (a file path or ``-`` for
standard input), prints one canonical JSON report on standard output
(``--human`` switches to indented text), and exits 0 for
success/certified, 1 for refuted or failed checks, 2 for inconclusive
outcomes, 3 for input errors.  Diagnostics go to standard error.
``main`` is the one place that turns an exception into an exit code: a
ValueError (CliError and StructureError among them) is bad input, and a
BudgetExceeded that no command answers with its own payload is
inconclusive.

``verify`` runs the fixed suite of named instance checks; the check ids
are stable anchors (lemma1-*, lemma4-*, cor-*, th-*, ...) so a failure
names the exact claim that broke.
"""
from __future__ import annotations

import argparse
import random
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .algebra import (
    AssocAlgebra,
    LieAlgebra,
    canonical_dumps,
    central_extension,
    centroid,
    derivation_algebra,
    direct_sum,
    h2_trivial,
)
from .budgets import DEFAULT_SEED, BudgetExceeded
from .catalog import (
    CATALOG_HELP,
    QuaternionAlgebra,
    abelian,
    catalog_names,
    enumerate_tables,
    heisenberg,
    is_division,
    make,
    pgl,
    psl,
    r2,
    sl,
    sl_image_in_pgl,
    strict_upper,
    su2q,
)
from .commutator import (
    commutator_search,
    fitting_orthogonality,
    is_minimal_non,
    proper_subalgebras,
    quaternion_commutator,
    rank1_commutator,
)
from .fields import GF, QQ, Field, field_to_json
from .linalg import Subspace
from .regularity import (
    char_poly_factorization,
    fitting,
    is_anisotropic,
    is_nilpotent_free,
    is_regular_algebra,
    is_regular_element,
    rank,
    relative_rank,
)


class CliError(ValueError):
    """Bad input: malformed file, unknown name, out-of-range vector."""


# ---------------------------------------------------------------------------
# input plumbing


def _read_json_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _parse_payload(path: str) -> dict:
    import json

    text = _read_json_text(path)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise CliError("top-level JSON value must be an object")
    return obj


def _load_any(path: str, *, validate: bool = True):
    obj = _parse_payload(path)
    try:
        if "products" in obj:
            return AssocAlgebra.from_json_dict(obj)
        return LieAlgebra.from_json_dict(obj, validate=validate)
    except (ValueError, TypeError, KeyError) as exc:
        raise CliError(f"invalid algebra file: {exc}") from exc


def _load_lie(path: str) -> LieAlgebra:
    alg = _load_any(path)
    if not isinstance(alg, LieAlgebra):
        raise CliError("this command needs a Lie algebra table, not an associative one")
    return alg


def _parse_vector(L: LieAlgebra, text: str) -> tuple:
    parts = [p for p in text.split(",")]
    if len(parts) != L.dim:
        raise CliError(f"element needs {L.dim} comma-separated coordinates, got {len(parts)}")
    return tuple(L.field.parse(p) for p in parts)


def _parse_field(text: str) -> Field:
    text = text.strip()
    if text in ("Q", "q"):
        return QQ
    if text and text[0] in ("F", "f") and text[1:].isdigit():
        return GF(int(text[1:]))
    raise CliError(f"unknown field {text!r}; use Q or F<p>")


def _str_rows(field: Field, rows) -> List[List[str]]:
    return [[field.to_str(c) for c in row] for row in rows]


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, payload)


def cmd_validate(args) -> Tuple[int, dict]:
    alg = _load_any(args.algebra, validate=False)
    if isinstance(alg, AssocAlgebra):
        return 0, {"valid": True, "kind": "associative", "dim": alg.dim}
    bad = alg.jacobi_violations()
    if bad:
        return 1, {
            "valid": False,
            "kind": "lie",
            "dim": alg.dim,
            "violations": [
                {"triple": list(t), "defect": [alg.field.to_str(c) for c in d]}
                for t, d in bad
            ],
        }
    return 0, {"valid": True, "kind": "lie", "dim": alg.dim}


def _identity(L: LieAlgebra, path: str) -> dict:
    import hashlib  # only analyze hashes, so other commands do not load it

    digest = hashlib.sha256(L.canonical_json().encode()).hexdigest()[:16]
    name = "stdin" if path == "-" else path.rsplit("/", 1)[-1]
    return {"source": name, "table_sha256": digest}


def cmd_analyze(args) -> Tuple[int, dict]:
    L = _load_lie(args.algebra)
    notes: Dict[str, str] = {}
    report: Dict[str, object] = {
        "identity": _identity(L, args.algebra),
        "field": field_to_json(L.field),
        "structure": L.structure_report().to_json_dict(),
    }

    def guarded(key: str, fn: Callable[[], object]) -> None:
        try:
            report[key] = fn()
        except BudgetExceeded as exc:
            report[key] = None
            notes[key] = str(exc)

    # certificate mode falls back to the seeded search on its own, so it
    # strictly dominates plain search for a one-shot report
    guarded("rank", lambda: rank(L))
    guarded(
        "regular",
        lambda: is_regular_algebra(L, mode="certificate", seed=args.seed).to_json_dict(L.field),
    )
    guarded(
        "anisotropic",
        lambda: is_anisotropic(L, mode="certificate", seed=args.seed).to_json_dict(L.field),
    )
    guarded(
        "nilpotent_free",
        lambda: is_nilpotent_free(L, mode="certificate", seed=args.seed).to_json_dict(L.field),
    )
    guarded("derivation_dim", lambda: derivation_algebra(L)[0].dim)
    guarded("centroid_dim", lambda: len(centroid(L)))
    guarded("h2_dim", lambda: h2_trivial(L)[0])
    report["killing_rank"] = L.killing_form().gram.rank()
    report["notes"] = notes
    return 0, report


def cmd_rank(args) -> Tuple[int, dict]:
    L = _load_lie(args.algebra)
    try:
        r = rank(L)
    except BudgetExceeded as exc:
        return 2, {"dim": L.dim, "rank": None, "note": str(exc)}
    return 0, {"dim": L.dim, "rank": r, "nilpotent": L.structure_report().nilpotent}


def cmd_regular(args) -> Tuple[int, dict]:
    L = _load_lie(args.algebra)
    try:
        verdict = is_regular_algebra(L, mode=args.mode, seed=args.seed)
    except BudgetExceeded as exc:
        return 2, {"mode": args.mode, "note": str(exc)}
    return verdict.exit_code(), {"mode": args.mode, "regular": verdict.to_json_dict(L.field)}


def cmd_fitting(args) -> Tuple[int, dict]:
    L = _load_lie(args.algebra)
    x = _parse_vector(L, args.element)
    if not any(x):
        raise CliError("element must be nonzero")
    dec = fitting(L, x)
    payload = {
        "element": [L.field.to_str(c) for c in x],
        "nu": dec.nu,
        "null_component": _str_rows(L.field, dec.null.rows),
        "one_component": _str_rows(L.field, dec.one.rows),
    }
    try:
        payload["rank"] = rank(L)
        payload["regular_element"] = is_regular_element(L, x)
    except BudgetExceeded as exc:
        payload["rank"] = None
        payload["regular_element"] = None
        payload["note"] = str(exc)
    return 0, payload


def cmd_anisotropic(args) -> Tuple[int, dict]:
    L = _load_lie(args.algebra)
    try:
        aniso = is_anisotropic(L, mode=args.mode, seed=args.seed)
        nil_free = is_nilpotent_free(L, mode=args.mode, seed=args.seed)
    except BudgetExceeded as exc:
        return 2, {"mode": args.mode, "note": str(exc)}
    return aniso.exit_code(), {
        "mode": args.mode,
        "anisotropic": aniso.to_json_dict(L.field),
        "nilpotent_free": nil_free.to_json_dict(L.field),
    }


def cmd_commutator(args) -> Tuple[int, dict]:
    L = _load_lie(args.algebra)
    target = _parse_vector(L, args.target)
    if args.form == "killing":
        form = L.killing_form()
        if not form.nondegenerate:
            raise CliError("the Killing form is degenerate here; drop --form")
        w = rank1_commutator(L, form, target)
    else:
        w = commutator_search(L, target)
        if w is None:
            return 2, {
                "target": [L.field.to_str(c) for c in target],
                "witness": None,
                "note": "search exhausted without a solution",
            }
    return 0, {
        "target": [L.field.to_str(c) for c in w.target],
        "witness": {
            "z": [L.field.to_str(c) for c in w.z],
            "y": [L.field.to_str(c) for c in w.y],
            "provenance": w.provenance,
        },
    }


def cmd_derivations(args) -> Tuple[int, dict]:
    L = _load_lie(args.algebra)
    der, mats = derivation_algebra(L)
    return 0, {
        "dim": der.dim,
        "basis": [_str_rows(L.field, m.rows) for m in mats],
    }


def cmd_centroid(args) -> Tuple[int, dict]:
    L = _load_lie(args.algebra)
    mats = centroid(L)
    return 0, {
        "dim": len(mats),
        "basis": [_str_rows(L.field, m.rows) for m in mats],
    }


def cmd_h2(args) -> Tuple[int, dict]:
    L = _load_lie(args.algebra)
    dim, reps = h2_trivial(L)
    return 0, {
        "dim": dim,
        "representatives": [
            [
                {"i": i, "j": j, "c": L.field.to_str(c)}
                for (i, j), c in sorted(rep.items())
            ]
            for rep in reps
        ],
    }


def cmd_catalog(args) -> Tuple[int, dict]:
    if args.action == "list":
        return 0, {
            "algebras": [{"name": n, "about": CATALOG_HELP[n]} for n in catalog_names()]
        }
    # emit
    if not args.name:
        raise CliError("catalog emit needs a name")
    field = _parse_field(args.field) if args.field else None
    params = {k: v for k, v in (("n", args.n), ("a", args.a), ("b", args.b)) if v is not None}
    if args.name == "quaternion":
        if "n" in params:
            raise CliError("quaternion takes a and b, not n")
        f = field if field is not None else QQ
        a, b = (f.parse(params.get(k, "-1")) for k in ("a", "b"))
        return 0, QuaternionAlgebra(f, a, b).assoc.to_json_dict()
    try:
        alg = make(args.name, field, **params)
    except BudgetExceeded as exc:  # a refused size is bad input here, not an open question
        raise CliError(str(exc)) from exc
    return 0, alg.to_json_dict()


def cmd_enumerate(args) -> Tuple[int, dict]:
    field = _parse_field(args.field)
    if field.kind != "Fp":
        raise CliError("enumeration runs over a finite field; pass --field F<p>")
    total = jacobi_valid = nilpotent_count = regular_count = 0
    for t in enumerate_tables(args.dim, field):
        total += 1
        if not t.jacobi_ok:
            continue
        jacobi_valid += 1
        alg = t.algebra()
        if alg.structure_report().nilpotent:
            nilpotent_count += 1
        if is_regular_algebra(alg, mode="exhaustive").is_certified:
            regular_count += 1
    return 0, {
        "dim": args.dim,
        "field": field_to_json(field),
        "tables": total,
        "jacobi_valid": jacobi_valid,
        "nilpotent": nilpotent_count,
        "regular": regular_count,
    }


# ---------------------------------------------------------------------------
# the named instance checks behind `verify`


class _Mismatch(Exception):
    def __init__(self, detail: dict):
        super().__init__(canonical_dumps(detail))
        self.detail = detail


def _require(cond: bool, **info) -> None:
    if not cond:
        raise _Mismatch({k: str(v) for k, v in info.items()})


def _sample_vectors(field: Field, dim: int, count: int, seed: int, *, height: int = 9):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if field.kind == "Q":
            v = tuple(field.of(rng.randint(-height, height)) for _ in range(dim))
        else:
            v = tuple(field.of(rng.randrange(field.p)) for _ in range(dim))
        if any(v):
            out.append(v)
    return out


def _check_nilpotent_is_regular(L: LieAlgebra) -> None:
    _require(L.structure_report().nilpotent, expected="nilpotent", algebra=L.labels)
    _require(rank(L) == L.dim, rank=rank(L), dim=L.dim)
    v = is_regular_algebra(L)
    _require(v.is_certified and v.certificate == "structural", verdict=v.status)


def _lemma1_check(build: Callable[[Field], LieAlgebra]) -> Callable[[int], dict]:
    """Lemma 1 on build(Q) and build(F5): a nilpotent algebra is regular."""

    def check(seed: int) -> dict:
        for f in (QQ, GF(5)):
            L = build(f)
            _check_nilpotent_is_regular(L)
        return {"dims": [L.dim], "fields": ["Q", "F5"]}

    return check


def check_lemma2_heisenberg_f3(seed: int) -> dict:
    # a regular algebra: every subalgebra must still be regular
    L = heisenberg(GF(3), 1)
    _require(is_regular_algebra(L, mode="exhaustive").is_certified, algebra="heisenberg@F3")
    count = 0
    for S, sub in proper_subalgebras(L):
        count += 1
        _require(is_regular_algebra(sub, mode="exhaustive").is_certified, subalgebra=S.rows)
    return {"subalgebras_checked": count}


def check_lemma3_r2(seed: int) -> dict:
    # solvable (hence non-semisimple) and non-nilpotent forces non-regular
    out = {}
    for name, L, mode in (("Q", r2(QQ), "search"), ("F3", r2(GF(3)), "exhaustive")):
        rep = L.structure_report()
        _require(rep.solvable and not rep.nilpotent, field=name)
        v = is_regular_algebra(L, mode=mode, seed=seed)
        _require(v.is_refuted, field=name, verdict=v.status)
        out[name] = [L.field.to_str(c) for c in v.witness]
    return {"witnesses": out}


def _lemma4_check(
    build: Callable[[], LieAlgebra], ideal_basis: Sequence[int], ideal_name: str, expect_pair: Tuple[int, int]
) -> Callable[[int], dict]:
    """Lemma 4 on build() over Q and the ideal spanned by the basis vectors
    ideal_basis: chi factors through the ideal at 50 sampled elements, and
    the relative ranks are expect_pair and add up to the rank."""

    def check(seed: int) -> dict:
        L = build()
        ideal = Subspace.from_vectors(QQ, L.dim, [L.basis_vector(i) for i in ideal_basis])
        _require(L.is_ideal(ideal), ideal=ideal_name)
        for x in _sample_vectors(QQ, L.dim, 50, seed):
            chi_in, chi_out, chi_full = char_poly_factorization(L, ideal, x)
            _require(chi_in * chi_out == chi_full, x=[L.field.to_str(c) for c in x])
        pair = relative_rank(L, ideal)
        _require(pair == expect_pair, relative=pair, expected=expect_pair)
        _require(pair[0] + pair[1] == rank(L), total=pair[0] + pair[1], rank=rank(L))
        return {"samples": 50, "relative_rank": list(expect_pair)}

    return check


def _check_orthogonality(L: LieAlgebra, seed: int, samples: int) -> int:
    form = L.killing_form()
    _require(form.nondegenerate, form="killing")
    xs = [L.basis_vector(i) for i in range(L.dim)]
    xs += _sample_vectors(L.field, L.dim, samples, seed)
    for x in xs:
        fo = fitting_orthogonality(L, form, [x])
        _require(
            fo.equal,
            x=[L.field.to_str(c) for c in x],
            perp=fo.null_perp.rows,
            one=fo.one_component.rows,
        )
    return len(xs)


def check_lemma51_sl2_killing(seed: int) -> dict:
    return {"elements": _check_orthogonality(sl(QQ, 2), seed, 100)}


def check_lemma51_su2q_killing(seed: int) -> dict:
    return {"elements": _check_orthogonality(su2q(), seed, 100)}


def check_lemma52_su2q(seed: int) -> dict:
    L = su2q()
    form = L.killing_form()
    xs = [L.basis_vector(i) for i in range(3)] + _sample_vectors(QQ, 3, 25, seed)
    for x in xs:
        rank1_commutator(L, form, x)  # witness recheck is built in
    return {"witnesses": len(xs)}


def check_cor_quaternion(seed: int) -> dict:
    Q = QuaternionAlgebra(QQ, -1, -1)
    targets = [(QQ.zero,) + v for v in _sample_vectors(QQ, 3, 100, seed)]
    for x in targets:
        u, v = quaternion_commutator(Q, x)
        uv, vu = Q.multiply(u, v), Q.multiply(v, u)
        _require(
            tuple(a - b for a, b in zip(uv, vu)) == x,
            x=[QQ.to_str(c) for c in x],
        )
    return {"targets": len(targets)}


def check_cor_d_su2q(seed: int) -> dict:
    L = su2q()
    _require(rank(L) == 1, rank=rank(L))
    reg = is_regular_algebra(L, mode="certificate")
    _require(reg.is_certified and reg.certificate == "definite-quadratic-form", v=reg.status)
    aniso = is_anisotropic(L, mode="certificate")
    _require(aniso.is_certified, v=aniso.status)
    return {"rank": 1, "certificates": [reg.certificate, aniso.certificate]}


def check_minnonreg_r2f3(seed: int) -> dict:
    L = r2(GF(3))
    rep = L.structure_report()
    _require(rep.solvable and not rep.nilpotent, algebra="r2@F3")
    for prop in ("nilpotent", "regular"):
        v = is_minimal_non(L, prop)
        _require(v.is_certified, prop=prop, verdict=v.status)
    return {"minimal_non": ["nilpotent", "regular"]}


def check_minnonreg_su2q(seed: int) -> dict:
    inner = su2q()
    L = direct_sum(inner, abelian(QQ, 1))
    v = is_regular_algebra(L, seed=seed)
    _require(v.is_refuted, verdict=v.status)
    _require(L.center().contains(v.witness), witness=v.witness)
    sub = is_regular_algebra(inner, mode="certificate")
    _require(sub.is_certified, verdict=sub.status)
    return {
        "central_witness": [L.field.to_str(c) for c in v.witness],
        "subalgebra": "certified regular",
    }


def check_psl_pgl_dims(seed: int) -> dict:
    F3 = GF(3)
    P, G = psl(F3, 3), pgl(F3, 3)
    _require(P.dim == 7, psl_dim=P.dim)
    _require(G.dim == 8, pgl_dim=G.dim)
    img = sl_image_in_pgl(F3, 3)
    _require(img.dim == 7 and img.contains_subspace(G.commutant()), commutant=G.commutant().dim)
    _require(P.commutant().dim == 7 and P.center().dim == 0, perfect=P.commutant().dim)
    return {"psl_dim": 7, "pgl_dim": 8, "commutant_in_traceless_image": True}


def check_der_psl3f3(seed: int) -> dict:
    P = psl(GF(3), 3)
    der, _mats = derivation_algebra(P)
    _require(der.dim == 8, der_dim=der.dim)
    return {"der_dim": 8, "algebra_dim": P.dim}


def _h2_check(build: Callable[[], LieAlgebra], expected: int) -> Callable[[int], dict]:
    """dim H^2(build(), trivial coefficients) == expected."""

    def check(seed: int) -> dict:
        d, _ = h2_trivial(build())
        _require(d == expected, h2=d)
        return {"h2_dim": expected}

    return check


def check_central_ext_psl3f3(seed: int) -> dict:
    # Extension properties hold for any representative of a nonzero class;
    # the h2 dimension itself is asserted by the h2-psl3f3 check.
    P = psl(GF(3), 3)
    d, reps = h2_trivial(P)
    _require(d >= 1, h2=d)
    E = central_extension(P, reps[0])
    _require(E.dim == 8, dim=E.dim)
    _require(E.center().dim == 1, center=E.center().dim)
    _require(E.commutant().dim == 8, commutant=E.commutant().dim)
    return {"extension_dim": 8, "center_dim": 1, "perfect": True, "h2_dim": d}


def check_negative_sl2q(seed: int) -> dict:
    v = is_regular_algebra(sl(QQ, 2), seed=seed)
    _require(v.is_refuted, verdict=v.status)
    _require(v.witness == (QQ.one, QQ.zero, QQ.zero), witness=v.witness)
    return {"witness": [QQ.to_str(c) for c in v.witness]}


def check_negative_sl2f5(seed: int) -> dict:
    v = is_regular_algebra(sl(GF(5), 2), mode="exhaustive")
    _require(v.is_refuted, verdict=v.status)
    _require(v.evidence.get("total_nonzero") == 124, scanned=v.evidence)
    return {"witness": [GF(5).to_str(c) for c in v.witness], "total_nonzero": 124}


def check_negative_quat_f5(seed: int) -> dict:
    Q = QuaternionAlgebra(GF(5), -1, -1)
    v = is_division(Q)
    _require(v.is_refuted, verdict=v.status)
    x, xb = v.witness
    _require(tuple(c.r for c in x) == (0, 0, 1, 2), witness=x)
    _require(not any(Q.multiply(x, xb)), product="nonzero")
    return {"zero_divisor": [[GF(5).to_str(c) for c in w] for w in v.witness]}


def check_conjecture_su2q(seed: int) -> dict:
    # empirical only: on this non-nilpotent regular algebra, every sampled
    # element of the bracket span is itself a single bracket
    L = su2q()
    _require(L.commutant().dim == L.dim, commutant=L.commutant().dim)
    form = L.killing_form()
    xs = [L.basis_vector(i) for i in range(3)] + _sample_vectors(QQ, 3, 10, seed)
    for x in xs:
        rank1_commutator(L, form, x)
    return {"elements_tested": len(xs), "scope": "sampled instances only"}


_CHECKS: List[Tuple[str, Callable[[int], dict]]] = [
    ("lemma1-heisenberg", _lemma1_check(lambda f: heisenberg(f, 1))),
    ("lemma1-heisenberg5", _lemma1_check(lambda f: heisenberg(f, 2))),
    ("lemma1-strict-upper4", _lemma1_check(lambda f: strict_upper(f, 4))),
    ("lemma2-heisenberg-f3", check_lemma2_heisenberg_f3),
    ("lemma3-r2", check_lemma3_r2),
    ("lemma4-eqchi-r2", _lemma4_check(lambda: r2(QQ), [1], "span(y)", (0, 1))),
    ("lemma4-eqchi-sl2sum", _lemma4_check(lambda: direct_sum(sl(QQ, 2), sl(QQ, 2)), [0, 1, 2], "first summand", (1, 1))),
    ("lemma5.1-sl2-killing", check_lemma51_sl2_killing),
    ("lemma5.1-su2q-killing", check_lemma51_su2q_killing),
    ("lemma5.2-su2q", check_lemma52_su2q),
    ("cor-quaternion-commutator", check_cor_quaternion),
    ("cor-d-su2q", check_cor_d_su2q),
    ("th-minnonreg-i-r2f3", check_minnonreg_r2f3),
    ("th-minnonreg-ii-su2q", check_minnonreg_su2q),
    ("psl-pgl-dims", check_psl_pgl_dims),
    ("der-psl3f3", check_der_psl3f3),
    ("h2-sl2q", _h2_check(lambda: sl(QQ, 2), 0)),
    ("h2-h3", _h2_check(lambda: heisenberg(QQ, 1), 2)),
    ("h2-psl3f3", _h2_check(lambda: psl(GF(3), 3), 1)),
    ("central-ext-psl3f3", check_central_ext_psl3f3),
    ("negative-sl2q-regular", check_negative_sl2q),
    ("negative-sl2f5-regular", check_negative_sl2f5),
    ("negative-quat-f5-division", check_negative_quat_f5),
    ("conjecture-su2q-commutators", check_conjecture_su2q),
]


def verify_check_names() -> List[str]:
    return [name for name, _ in _CHECKS]


def run_verify(seed: int, only: Optional[str] = None) -> Tuple[int, dict, List[str]]:
    """Run the suite; returns (exit code, canonical payload, human lines).

    Elapsed times go to the human rendering only, keeping the canonical
    JSON identical across runs.
    """
    entries = []
    lines = []
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}
    for name, fn in _CHECKS:
        if only is not None and name != only:
            continue
        started = time.perf_counter()
        try:
            detail = fn(seed)
            status = "PASS"
        except _Mismatch as m:
            status, detail = "FAIL", m.detail
        except BudgetExceeded as exc:
            status, detail = "SKIP", {"note": str(exc)}
        elapsed = time.perf_counter() - started
        counts[status] += 1
        entries.append({"name": name, "status": status, "detail": detail})
        lines.append(f"{status:4s} {name:35s} {elapsed * 1000:8.1f} ms")
    if only is not None and not entries:
        raise CliError(f"unknown check {only!r}; names: {', '.join(verify_check_names())}")
    payload = {"seed": seed, "checks": entries, "counts": counts}
    return (1 if counts["FAIL"] else 0), payload, lines


def cmd_verify(args) -> Tuple[int, dict]:
    code, payload, lines = run_verify(args.seed, args.check)
    if args.human:
        for line in lines:
            print(line)
        print(
            f"{payload['counts']['PASS']} passed, {payload['counts']['FAIL']} failed, "
            f"{payload['counts']['SKIP']} skipped"
        )
        return code, None
    return code, payload


# ---------------------------------------------------------------------------
# plumbing


def _human_lines(obj, indent: int = 0, nested: bool = False) -> List[str]:
    """Indented text: a dict one key a line, a list of scalars on one line,
    and the items of any other list each closed by a "-" line.  A list of
    that kind inside a list goes one level deeper (``nested``), and the
    "-" that closes it also closes its last item."""
    pad = "  " * indent
    out = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v:
                out.append(f"{pad}{k}:")
                out.extend(_human_lines(v, indent + 1))
            else:
                out.append(f"{pad}{k}: {_flat(v)}")
    elif isinstance(obj, list):
        if _is_flat(obj):
            out.append(f"{pad}{_flat(obj)}")
        else:
            for t, v in enumerate(obj):
                deeper = isinstance(v, list) and not _is_flat(v)
                out.extend(_human_lines(v, indent + 1 if deeper else indent, deeper))
                if not (nested and t == len(obj) - 1):
                    out.append(f"{pad}-")
    else:
        out.append(f"{pad}{_flat(obj)}")
    return out


def _is_flat(items: list) -> bool:
    return all(not isinstance(v, (dict, list)) for v in items)


def _flat(v) -> str:
    if isinstance(v, list):
        return "[" + ", ".join(_flat(x) for x in v) + "]"
    if v is None:
        return "-"
    return str(v)


def _emit(payload, human: bool) -> None:
    if payload is None:
        return
    if human:
        print("\n".join(_human_lines(payload)))
    else:
        print(canonical_dumps(payload))


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 (bad input), not argparse's 2, which would read
    as "inconclusive"; --help still exits 0."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="lielab",
        description="Exact structure-constant computations for finite-dimensional Lie algebras.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, *, algebra=True, seed=False):
        if algebra:
            p.add_argument("algebra", help="algebra JSON file, or - for stdin")
        if seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--human", action="store_true", help="indented text instead of JSON")

    p = sub.add_parser("validate", help="check a table file (Jacobi, field membership)")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("analyze", help="full structure/regularity report")
    common(p, seed=True)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("rank", help="least zero-eigenvalue multiplicity over all elements")
    common(p)
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("regular", help="is every nonzero element regular?")
    common(p, seed=True)
    p.add_argument("--mode", choices=("search", "exhaustive", "certificate"), default="search")
    p.set_defaults(fn=cmd_regular)

    p = sub.add_parser("fitting", help="null/one decomposition for one element")
    common(p)
    p.add_argument("--element", required=True, help="comma-separated coordinates")
    p.set_defaults(fn=cmd_fitting)

    p = sub.add_parser("anisotropic", help="no isotropic vectors / no nilpotent elements outside the center")
    common(p, seed=True)
    p.add_argument("--mode", choices=("search", "exhaustive", "certificate"), default="search")
    p.set_defaults(fn=cmd_anisotropic)

    p = sub.add_parser("commutator", help="write a target element as one bracket")
    common(p)
    p.add_argument("--target", required=True, help="comma-separated coordinates")
    p.add_argument("--form", choices=("killing",), default=None, help="use the rank-one solver")
    p.set_defaults(fn=cmd_commutator)

    p = sub.add_parser("derivations", help="matrix basis of the derivation algebra")
    common(p)
    p.set_defaults(fn=cmd_derivations)

    p = sub.add_parser("centroid", help="matrix basis of the centroid")
    common(p)
    p.set_defaults(fn=cmd_centroid)

    p = sub.add_parser("h2", help="dimension of the trivial-coefficient second cohomology")
    common(p)
    p.set_defaults(fn=cmd_h2)

    p = sub.add_parser("catalog", help="built-in algebras")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("name", nargs="?", help="catalog name for emit")
    p.add_argument("--field", default=None, help="Q or F<p>")
    p.add_argument("--n", type=int, default=None, help="size parameter")
    p.add_argument("--a", default=None, help="quaternion parameter a (default -1)")
    p.add_argument("--b", default=None, help="quaternion parameter b (default -1)")
    p.add_argument("--human", action="store_true")
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("enumerate", help="scan all tables of a small dimension")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--field", required=True, help="F<p>")
    p.add_argument("--human", action="store_true")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify", help="run the named instance checks")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--check", default=None, help="run a single named check")
    p.add_argument("--human", action="store_true")
    p.set_defaults(fn=cmd_verify)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload = args.fn(args)
    except ValueError as exc:  # CliError, StructureError and every other bad input
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BudgetExceeded as exc:
        code, payload = 2, {"note": str(exc)}
    except BrokenPipeError:
        return 0
    _emit(payload, args.human)
    return code


if __name__ == "__main__":
    sys.exit(main())
