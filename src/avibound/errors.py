"""Exception types shared across the library."""


class AviboundError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(AviboundError):
    """Input vector or matrix dimensions are inconsistent."""


class EmptySet(AviboundError):
    """An operation required a nonempty feasible set."""


class NumericalBreakdown(AviboundError):
    """A solver exceeded its anti-cycling / iteration safeguards."""


class CapExceeded(AviboundError):
    """A fixed combinatorial guard was hit: `polyhedra._DIM_CAP` or
    `_ROW_CAP` in vertex enumeration, or `avi._PATTERN_BUDGET` in the face
    search.  The guards are constants, not settings."""


class DegenerateSampler(AviboundError):
    """A sampler failed to produce enough usable points."""


class NoSolution(AviboundError):
    """The problem instance has an empty solution set."""


class SchemaError(AviboundError):
    """A serialized file does not match the expected schema."""
