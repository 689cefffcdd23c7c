"""The comparison slack and the one reduction behind every sampled verdict.

Verdicts compare at one slack, `CMP_TOL`: the direct solution test
`avi.is_solution`, the error bound's residual filter, the holdout check
below and the gap tests of the gpm reports.  The layers below them take no
tolerance: two vertices or rays within `polyhedra.GEOM_TOL` are one point
of the geometry, which also decides the Hausdorff distance's recession-cone
test; the slack with which the LP, feasibility and projection solves accept
a point is `optkernel.FEAS_TOL`, and their pivot and drop thresholds are
constants there too.  The budgets that keep the exponential enumerations
desk-scale are not settings either: each is a constant in the routine whose
work it counts (`polyhedra._RAY_BUDGET` in double description,
`avi._PATTERN_BUDGET` in the face search).

Each empirical check samples ratios: d(x, SOL) / ||R(x)|| for the error
bound, d(v, R^{-1}(y0)) / ||y - y0|| for the inverse residual map and
h(F(x1), F(x2)) / ||x1 - x2|| for a multifunction.  Their running maximum
`c_emp` is a lower bound on the true constant.  `running_max` reduces the
ratios to that maximum, the first sample attaining it, a trace of the
maximum at doubling sample counts and a stability verdict.  `holdout`
checks fresh samples against `slack * c_emp`.  The theory asserts that a
finite constant exists, not its value, so a stable plateau is the strongest
checkable signal.
"""

from __future__ import annotations

from dataclasses import dataclass

# The comparison slack of every verdict.
CMP_TOL = 1e-6
# A denominator below ZERO_OVER_ZERO_FLOOR means the sample sits on the
# solution set up to rounding: the ratio is 0/0 noise and is left out.
ZERO_OVER_ZERO_FLOOR = 10 * CMP_TOL
# Stable: the maximum grew by at most 5% over the final doubling of samples,
# of which there are at least 8.
STABLE_REL_CHANGE = 0.05
_STABLE_MIN_SAMPLES = 8


@dataclass(frozen=True)
class RunningMax:
    """`witness` indexes the first ratio that strictly raised the maximum
    from 0.0 (None when every ratio is 0); `trace` holds (count, maximum)
    at counts 1, 2, 4, ... and at the last count."""

    c_emp: float
    witness: int | None
    trace: list
    stable: bool


def running_max(ratios) -> RunningMax:
    c_emp = 0.0
    witness = None
    trace = []
    half_count = len(ratios) // 2
    at_half = 0.0
    for count, ratio in enumerate(ratios, start=1):
        if ratio > c_emp:
            c_emp, witness = ratio, count - 1
        if count & (count - 1) == 0:
            trace.append((count, c_emp))
        if count == half_count:
            at_half = c_emp
    if trace and trace[-1][0] != len(ratios):
        trace.append((len(ratios), c_emp))
    stable = len(ratios) >= _STABLE_MIN_SAMPLES and (
        c_emp <= 0.0 or (c_emp - at_half) / c_emp <= STABLE_REL_CHANGE
    )
    return RunningMax(c_emp=c_emp, witness=witness, trace=trace, stable=stable)


@dataclass(frozen=True)
class HoldoutReport:
    """`violations` holds the record of every sample that broke the bound."""

    c_emp: float
    slack: float
    num_checked: int
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations


def holdout(samples, c_emp: float, slack: float) -> HoldoutReport:
    """Check numerator <= slack * c_emp * denominator + CMP_TOL on each
    (numerator, denominator, record) sample."""
    checked = 0
    violations = []
    for numerator, denominator, record in samples:
        checked += 1
        if numerator > slack * c_emp * denominator + CMP_TOL:
            violations.append(record)
    return HoldoutReport(c_emp=c_emp, slack=slack, num_checked=checked, violations=violations)
