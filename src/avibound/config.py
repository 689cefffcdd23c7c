"""Global numerical tolerances.

All comparisons in the library go through a single `Tolerances` instance so
that a batch run can tighten or loosen everything in one place.  The defaults
assume double precision and dense factorizations.  The limits that keep the
exponential enumerations desk-scale are not settings: each is a constant in
the routine it guards (`polyhedra._DIM_CAP` and `_ROW_CAP`,
`avi._PATTERN_BUDGET`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace


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

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"tolerance {f.name} must be finite and positive, got {value}")

    def with_cmp(self, cmp: float) -> "Tolerances":
        return replace(self, cmp=cmp)


DEFAULT_TOL = Tolerances()
