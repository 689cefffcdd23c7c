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
    """A fixed work budget was hit: `polyhedra._RAY_BUDGET` on the rays
    double description keeps (also in the face search's description of C
    and in a multifunction's dual ball),
    `avi._PATTERN_BUDGET` on the patterns the face search collects, or an
    `instgen` generator's size limit.  Each is a constant in the routine
    that counts that work, not a setting."""


class DegenerateSampler(AviboundError):
    """A sampler failed to produce enough usable points."""


class NoSolution(AviboundError):
    """The problem instance has an empty solution set."""


class SchemaError(AviboundError):
    """A serialized file does not match the expected schema."""
