"""Search and enumeration budgets.

Every potentially expensive scan in the package (point searches over Q,
exhaustive scans over F_p^n, table enumeration, subspace enumeration)
reads its limit from here.  The limits are constants: a question that
needs more than they allow ends in BudgetExceeded or an Inconclusive
verdict, never in a looser answer.
"""
from __future__ import annotations


class BudgetExceeded(RuntimeError):
    """Raised when a computation would exceed its configured budget."""


#: Default seed for every seeded search; the CLI --seed flag and the test
#: suite both start here so reported evidence is reproducible.
DEFAULT_SEED = 1729

#: Max coordinate height for deterministic integer point searches.
SEARCH_HEIGHT = 5

#: Number of seeded random trials appended to a point search.
SEARCH_TRIALS = 1000

#: Cap on deterministic shell points per search (shells explode
#: combinatorially with dimension).
SEARCH_POINTS_CAP = 20_000

#: Largest p**dim allowed for exhaustive scans of F_p^dim.
EXHAUSTIVE_CAP = 1_000_000

#: Largest number of structure tables enumerate_tables may stream.
ENUMERATION_CAP = 1_000_000

#: Largest dimension for which generic char poly is computed symbolically.
SYMBOLIC_DIM = 8

#: Largest dimension for derivation_algebra over a finite field.
DERIVATION_DIM_CAP = 12

#: Largest number of subspaces is_minimal_non may enumerate.
SUBSPACE_CAP = 5000
