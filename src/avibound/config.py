"""The comparison tolerance.

Verdicts compare through one `Tolerances` instance, so a batch run can
tighten or loosen them in one place: the direct solution test
`avi.is_solution`, the error bound's residual filter, the reductions in
`ratios` and the tolerance the gpm reports carry.  The layers below them
take no tolerance: two vertices or rays within `polyhedra.GEOM_TOL` are one
point of the geometry, which also decides the Hausdorff distance's
recession-cone test; the slack with which the LP, feasibility and
projection solves accept a point is `optkernel.FEAS_TOL`, and their pivot
and drop thresholds are constants there too.  The budgets that keep the
exponential enumerations desk-scale are not settings either: each is a
constant in the routine whose work it counts (`polyhedra._RAY_BUDGET` in
double description, `avi._PATTERN_BUDGET` in the face search).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """cmp: comparison slack of verdicts."""

    cmp: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.cmp) and self.cmp > 0):
            raise ValueError(f"tolerance cmp must be finite and positive, got {self.cmp}")


DEFAULT_TOL = Tolerances()
