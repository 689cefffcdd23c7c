"""Residual-based local error bounds for affine variational inequalities.

Layers, bottom to top: `optkernel` (LP / feasibility / projection solves),
`polyhedra` (vertex enumeration, distances, Hausdorff), `ratios` (the
comparison slack `CMP_TOL` and the running maximum, witness, trace,
stability verdict and holdout check shared by every sampled verdict),
`gpm` (generalized polyhedral multifunctions and their Lipschitz moduli),
`avi` (residual map and active-set decomposition of solution sets),
`bounds` (empirical error bound and upper-Lipschitz verification),
`solvers` (projection-type iterations), `instgen` (instance corpus and
serialization) and `cli`.
"""

from .errors import (
    AviboundError,
    CapExceeded,
    DegenerateSampler,
    DimensionMismatch,
    EmptySet,
    NoSolution,
    NumericalBreakdown,
    SchemaError,
)
from .sets import PolyhedralSet, box, nonnegative_orthant

__all__ = [
    "AviboundError",
    "CapExceeded",
    "DegenerateSampler",
    "DimensionMismatch",
    "EmptySet",
    "NoSolution",
    "NumericalBreakdown",
    "PolyhedralSet",
    "SchemaError",
    "box",
    "nonnegative_orthant",
]

__version__ = "0.1.0"
