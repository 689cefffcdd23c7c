"""Global numerical tolerances.

All comparisons in the library go through a single `Tolerances` instance so
that a batch run can tighten or loosen everything in one place.  The defaults
assume double precision and dense factorizations.  The budgets that keep the
exponential enumerations desk-scale are not settings: each is a constant in
the routine whose work it counts (`polyhedra._RAY_BUDGET` in double
description, `avi._PATTERN_BUDGET` in the face search).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used by the solvers and geometric predicates.

    feas: feasibility slack accepted on constraints.
    cmp:  general-purpose comparison slack (dedup, verdicts).
    """

    feas: float = 1e-9
    cmp: float = 1e-6

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"tolerance {f.name} must be finite and positive, got {value}")

    def with_cmp(self, cmp: float) -> "Tolerances":
        return replace(self, cmp=cmp)


DEFAULT_TOL = Tolerances()
