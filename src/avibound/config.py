"""The comparison tolerance.

Verdicts and deduplication compare through one `Tolerances` instance, so a
batch run can tighten or loosen them in one place.  The solves below them
take no tolerance: the slack with which the LP, feasibility and projection
solves accept a point is `optkernel.FEAS_TOL`, and their pivot and drop
thresholds are constants there too.  The budgets that keep the exponential
enumerations desk-scale are not settings either: each is a constant in the
routine whose work it counts (`polyhedra._RAY_BUDGET` in double
description, `avi._PATTERN_BUDGET` in the face search).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """cmp: comparison slack of verdicts and deduplication."""

    cmp: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.cmp) and self.cmp > 0):
            raise ValueError(f"tolerance cmp must be finite and positive, got {self.cmp}")


DEFAULT_TOL = Tolerances()
