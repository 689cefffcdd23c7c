"""Global numerical tolerances and combinatorial caps.

All comparisons in the library go through a single `Tolerances` instance so
that a batch run can tighten or loosen everything in one place.  The defaults
assume double precision and dense factorizations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used by the solvers and geometric predicates.

    feas: feasibility slack accepted on constraints.
    opt:  optimality slack (duality gaps, KKT residuals).
    cmp:  general-purpose comparison slack (dedup, verdicts).
    """

    feas: float = 1e-9
    opt: float = 1e-7
    cmp: float = 1e-6

    def with_cmp(self, cmp: float) -> "Tolerances":
        return replace(self, cmp=cmp)


@dataclass(frozen=True)
class Caps:
    """Caps that keep the combinatorial routines desk-scale.

    dim_cap / row_cap bound vertex enumeration inputs; subset_budget bounds
    the number of active patterns the face search of `avi.inverse_residual`
    may test on one instance.  Vertex enumeration needs no subset budget:
    double description solves only the row subsets tight at a vertex or ray.
    """

    dim_cap: int = 10
    row_cap: int = 24
    subset_budget: int = 2_000_000


DEFAULT_TOL = Tolerances()
DEFAULT_CAPS = Caps()
