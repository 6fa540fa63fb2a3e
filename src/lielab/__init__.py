"""Exact-arithmetic workbench for Lie algebras given by structure constants.

Everything computes over the rationals or a prime field -- no floating
point anywhere.  The central questions: the rank of an algebra (least
zero-eigenvalue multiplicity across adjoint maps), which elements and
algebras are regular, Fitting decompositions and their orthogonality
under invariant forms, and writing elements as single brackets.

``import lielab`` loads no submodule.  The first use of an exported name
imports its home module and keeps the value here, so later lookups are
plain attribute reads (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# home module -> the names it exports
_EXPORTS = {
    "algebra": (
        "AssocAlgebra",
        "BilinearForm",
        "LieAlgebra",
        "StructureError",
        "StructureReport",
        "canonical_dumps",
        "central_extension",
        "centroid",
        "cocycle_space",
        "coboundary_space",
        "derivation_algebra",
        "direct_sum",
        "h2_trivial",
        "is_simple",
        "quotient",
        "quotient_with_projection",
        "tensor_commutative",
    ),
    "budgets": ("DEFAULT_SEED", "BudgetExceeded"),
    "catalog": (
        "QuaternionAlgebra",
        "abelian",
        "canonical_instances",
        "enumerate_tables",
        "gl",
        "heisenberg",
        "is_division",
        "make",
        "minus_algebra",
        "on",
        "pgl",
        "psl",
        "quotient_by_unit_line",
        "r2",
        "reduced_trace",
        "sl",
        "strict_upper",
        "su2q",
    ),
    "commutator": (
        "CommutatorWitness",
        "commutator_search",
        "fitting_orthogonality",
        "is_minimal_non",
        "orthogonal_complement",
        "quaternion_commutator",
        "rank1_commutator",
    ),
    "fields": ("GF", "QQ", "Fp", "MultiPoly", "UniPoly", "field_from_json", "field_to_json"),
    "linalg": ("Matrix", "Subspace"),
    "regularity": (
        "FittingDecomposition",
        "GenericCharPoly",
        "ad_char_coeffs",
        "char_poly_factorization",
        "fitting",
        "fitting_set",
        "generic_char_poly",
        "is_anisotropic",
        "is_nilpotent_free",
        "is_regular_algebra",
        "is_regular_element",
        "rank",
        "relative_rank",
        "zero_multiplicity",
    ),
    "verdict": ("CERTIFIED", "INCONCLUSIVE", "REFUTED", "RecheckFailed", "Verdict"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
