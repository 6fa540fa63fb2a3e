"""Span recorder for the traced benchmark run.

The benchmark never edits the package.  Instead, ``Tracer.install``
replaces the public functions and methods of each layer with wrappers
that record one span per call (name, start, end, parent span, job id)
and a few exact counters, and ``Tracer.uninstall`` puts the originals
back.  The untraced run never builds a Tracer, so it runs the package
exactly as shipped.

Spans are kept in flat arrays (a million spans cost about 30 MB) and
reduced to per-layer numbers by ``Tracer.layer_metrics`` after a pass.
"""
from __future__ import annotations

import fractions
import functools
import sys
from array import array
from functools import cached_property
from time import perf_counter

# Span names, grouped by layer.  Each entry: span name -> list of
# (module, owner, attribute) patch targets; owner None means a module
# function, patched in every lielab module that imported it.
SPANS = {
    "fields.multipoly": [("fields", "MultiPoly", a) for a in ("__add__", "__sub__", "__mul__", "__neg__", "scale", "eval")],
    "linalg.rref": [("linalg", "Matrix", "_rref")],
    "linalg.kernel": [("linalg", "Matrix", "kernel")],
    "linalg.solve": [("linalg", "Matrix", "solve")],
    "linalg.char_poly": [("linalg", "Matrix", "char_poly")],
    "linalg.matmul": [("linalg", "Matrix", "__mul__")],
    "linalg.subspace": [
        ("linalg", "Subspace", a)
        for a in ("from_vectors", "reduce", "contains", "coords_of", "sum_with", "intersect")
    ],
    "algebra.jacobi": [("algebra", "LieAlgebra", "jacobi_violations")],
    "algebra.bracket": [("algebra", "LieAlgebra", "bracket")],
    "algebra.ad": [("algebra", "LieAlgebra", "ad")],
    "algebra.ad_basis": [("algebra", "LieAlgebra", "ad_basis")],
    "algebra.killing_form": [("algebra", "LieAlgebra", "killing_form")],
    "algebra.derivation_algebra": [("algebra", None, "derivation_algebra")],
    "algebra.centroid": [("algebra", None, "centroid")],
    "algebra.h2_trivial": [("algebra", None, "h2_trivial")],
    "algebra.is_simple": [("algebra", None, "is_simple")],
    "regularity.rank": [("regularity", None, "rank")],
    "regularity.generic_char_poly": [("regularity", None, "generic_char_poly")],
    "regularity.zero_multiplicity": [("regularity", None, "zero_multiplicity")],
    "regularity.decide": [
        ("regularity", None, a) for a in ("is_regular_algebra", "is_anisotropic", "is_nilpotent_free")
    ],
    "commutator.rank1_commutator": [("commutator", None, "rank1_commutator")],
    "commutator.quaternion_commutator": [("commutator", None, "quaternion_commutator")],
    "commutator.is_minimal_non": [("commutator", None, "is_minimal_non")],
    "commutator.commutator_search": [("commutator", None, "commutator_search")],
    "catalog.build": [
        ("catalog", None, a)
        for a in ("make", "gl", "sl", "psl", "pgl", "strict_upper", "heisenberg", "abelian", "r2", "su2q", "on")
    ],
    "catalog.enumerate_tables": [("catalog", None, "enumerate_tables")],
    "cli.main": [("cli", None, "main")],
}

# Fraction arithmetic counted by fields.fraction_ops.
FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)

# Counters that must repeat exactly between two traced passes.
EXACT_COUNTS = (
    "fields.fp_new",
    "linalg.rref.cells",
    "algebra.jacobi.triples",
    "regularity.zero_multiplicity.calls",
)


def _entry_bits(x) -> int:
    if isinstance(x, fractions.Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return int(getattr(x, "r", x)).bit_length()


class Tracer:
    def __init__(self, lielab_pkg):
        self.pkg = lielab_pkg
        self.names = list(SPANS)
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.enabled = False
        self.job = -1
        self._undo = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_job = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_value = array("i")  # zero_multiplicity result, else -1
        self.stack = [-1]
        self.counts = {
            "fields.fp_new": 0,
            "fields.fraction_ops": 0,
            "linalg.rref.cells": 0,
            "linalg.rref.max_entry_bits": 0,
            "algebra.jacobi.triples": 0,
            "algebra.ad_basis.hits": 0,
            "catalog.enumerate_tables.tables": 0,
            "regularity.budget_exceeded": 0,
        }

    def _wrap(self, name: str, fn, *, generator: bool = False):
        nid = self.name_id[name]
        tr = self
        budget_exc = self.pkg.BudgetExceeded
        regular = name.startswith("regularity.")
        regular_ids = {self.name_id[n] for n in self.names if n.startswith("regularity.")}
        before = _BEFORE.get(name)
        keep_value = name == "regularity.zero_multiplicity"

        def open_span():
            idx = len(tr.s_name)
            tr.s_name.append(nid)
            tr.s_parent.append(tr.stack[-1])
            tr.s_job.append(tr.job)
            tr.s_value.append(-1)
            tr.s_end.append(0.0)
            tr.stack.append(idx)
            tr.s_start.append(perf_counter())
            return idx

        def close_span(idx):
            tr.s_end[idx] = perf_counter()
            tr.stack.pop()

        if generator:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    if not tr.enabled:
                        try:
                            yield next(inner)
                        except StopIteration:
                            return
                        continue
                    idx = open_span()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    tr.counts["catalog.enumerate_tables.tables"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(tr, args)
            idx = open_span()
            try:
                out = fn(*args, **kwargs)
            except budget_exc:
                # count each refusal once, at the outermost regularity call
                parent = tr.s_parent[idx]
                if regular and (parent < 0 or tr.s_name[parent] not in regular_ids):
                    tr.counts["regularity.budget_exceeded"] += 1
                raise
            finally:
                close_span(idx)
            if keep_value:
                tr.s_value[idx] = out
            elif name == "linalg.rref":
                rows = out[0]
                bits = max((_entry_bits(c) for row in rows for c in row), default=0)
                if bits > tr.counts["linalg.rref.max_entry_bits"]:
                    tr.counts["linalg.rref.max_entry_bits"] = bits
            return out

        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        pkg = self.pkg
        modules = [m for k, m in sys.modules.items() if k == "lielab" or k.startswith("lielab.")]
        for name, targets in SPANS.items():
            for modname, owner, attr in targets:
                mod = sys.modules[f"lielab.{modname}"]
                if owner is not None:
                    cls = getattr(mod, owner)
                    orig = cls.__dict__[attr]
                    if isinstance(orig, cached_property):
                        prop = cached_property(self._wrap(name, orig.func))
                        prop.__set_name__(cls, attr)
                        self._set(cls, attr, prop)
                    elif isinstance(orig, classmethod):
                        self._set(cls, attr, classmethod(self._wrap(name, orig.__func__)))
                    else:
                        self._set(cls, attr, self._wrap(name, orig))
                    continue
                orig = getattr(mod, attr)
                wrapped = self._wrap(name, orig, generator=name == "catalog.enumerate_tables")
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._set(m, key, wrapped)
                # catalog.make dispatches through a registry of lambdas
                # that close over the family builders by module global,
                # so patching the module names above covers them.
        self._install_counters(pkg)

    def _install_counters(self, pkg) -> None:
        tr = self
        Fp = pkg.Fp
        fp_init = Fp.__dict__["__init__"]

        def counting_init(self, r, p):
            if tr.enabled:
                tr.counts["fields.fp_new"] += 1
            fp_init(self, r, p)

        self._set(Fp, "__init__", counting_init)
        F = fractions.Fraction
        for attr in FRACTION_OPS:
            orig = F.__dict__[attr]

            def counting(*args, _orig=orig):
                if tr.enabled:
                    tr.counts["fields.fraction_ops"] += 1
                return _orig(*args)

            self._set(F, attr, counting)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # -- reduction -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer numbers for everything recorded since reset(): the
        counters, ``<span>.calls`` and ``<span>.self_s`` for every span name,
        and two derived ratios.  The benchmark reports the ones that
        BENCHMARK.json names."""
        n = len(self.s_name)
        names = self.names
        child = [0.0] * n
        s_start, s_end, s_parent, s_name = self.s_start, self.s_end, self.s_parent, self.s_name
        for i in range(n):
            p = s_parent[i]
            if p >= 0:
                child[p] += s_end[i] - s_start[i]
        self_s = {name: 0.0 for name in names}
        calls = {name: 0 for name in names}
        for i in range(n):
            nm = names[s_name[i]]
            self_s[nm] += (s_end[i] - s_start[i]) - child[i]
            calls[nm] += 1
        # regularity.scan.useful_frac over the point scans inside rank():
        # for each scan, the 1-based index of the first point that reaches
        # the scan's final minimum, against the points scanned.
        rank_id = self.name_id["regularity.rank"]
        zm_id = self.name_id["regularity.zero_multiplicity"]
        scans = {}
        for i in range(n):
            if s_name[i] == zm_id and s_parent[i] >= 0 and s_name[s_parent[i]] == rank_id:
                scans.setdefault(s_parent[i], []).append(self.s_value[i])
        useful = scanned = 0
        for values in scans.values():
            low = min(values)
            useful += values.index(low) + 1
            scanned += len(values)
        out = dict(self.counts)
        for name in names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        hits, looked_up = self.counts["algebra.ad_basis.hits"], calls["algebra.ad_basis"]
        out["algebra.ad_basis.hit_frac"] = hits / looked_up if looked_up else 0.0
        out["regularity.scan.useful_frac"] = useful / scanned if scanned else 0.0
        return out

    def span_count(self) -> int:
        return len(self.s_name)


def _before_rref(tr, args):
    m = args[0]
    tr.counts["linalg.rref.cells"] += m.m * m.n


def _before_jacobi(tr, args):
    d = args[0].dim
    tr.counts["algebra.jacobi.triples"] += d * (d - 1) * (d - 2) // 6


def _before_ad_basis(tr, args):
    L, i = args[0], args[1]
    if ("ad_basis", i) in L._cache:
        tr.counts["algebra.ad_basis.hits"] += 1


_BEFORE = {
    "linalg.rref": _before_rref,
    "algebra.jacobi": _before_jacobi,
    "algebra.ad_basis": _before_ad_basis,
}
