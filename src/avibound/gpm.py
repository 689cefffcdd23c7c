"""Generalized polyhedral multifunctions and their Lipschitz moduli.

A multifunction is stored through its graph data: sections are
``F(x) = {y : a1 x + a2 y = z, row_x_i . x + row_y_i . y <= rhs_i}``.

The section-gap function measures how far x is from the domain: it is the
smallest worst-case violation ``inf_y max(||a1 x + a2 y - z||_inf, max_i
(row_i - rhs_i))`` and is nonnegative by construction, with value 0 exactly
on dom F.  With the max-norm on the equality residual both the gap and its
concave dual are linear programs, so the primal/dual equality reduces to LP
duality and is checkable to solver precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CAPS, DEFAULT_TOL, Caps, Tolerances
from .errors import DegenerateSampler, DimensionMismatch, SchemaError
from .optkernel import LinearProgram, solve_feasibility, solve_lp
from .polyhedra import PolyhedralSet, hausdorff, is_nonempty
from .rng import SplitMix64, derive_seed
from .sets import _as_matrix, _as_vector


@dataclass(frozen=True)
class GpMultifunction:
    """Graph data of a generalized polyhedral convex multifunction."""

    input_dim: int
    output_dim: int
    a1: np.ndarray = None
    a2: np.ndarray = None
    z: np.ndarray = None
    row_x: np.ndarray = None
    row_y: np.ndarray = None
    rhs: np.ndarray = None

    def __post_init__(self):
        n, r = int(self.input_dim), int(self.output_dim)
        if n <= 0 or r <= 0:
            raise DimensionMismatch("input_dim and output_dim must be positive")
        a1 = _as_matrix(self.a1 if self.a1 is not None else [], n, "a1")
        a2 = _as_matrix(self.a2 if self.a2 is not None else [], r, "a2")
        if a1.shape[0] != a2.shape[0]:
            raise DimensionMismatch("a1 and a2 must have the same number of rows")
        z = _as_vector(self.z if self.z is not None else [], a1.shape[0], "z")
        row_x = _as_matrix(self.row_x if self.row_x is not None else [], n, "row_x")
        row_y = _as_matrix(self.row_y if self.row_y is not None else [], r, "row_y")
        if row_x.shape[0] != row_y.shape[0]:
            raise DimensionMismatch("row_x and row_y must have the same number of rows")
        rhs = _as_vector(self.rhs if self.rhs is not None else [], row_x.shape[0], "rhs")
        for name, arr in (
            ("a1", a1), ("a2", a2), ("z", z),
            ("row_x", row_x), ("row_y", row_y), ("rhs", rhs),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "input_dim", n)
        object.__setattr__(self, "output_dim", r)

    @property
    def num_eq(self) -> int:
        return self.a1.shape[0]

    @property
    def num_ineq(self) -> int:
        return self.row_x.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "n": self.input_dim,
            "r": self.output_dim,
            "a1": [[float(v) for v in row] for row in self.a1],
            "a2": [[float(v) for v in row] for row in self.a2],
            "z": [float(v) for v in self.z],
            "rows": [
                {
                    "xstar": [float(v) for v in xs],
                    "ystar": [float(v) for v in ys],
                    "b": float(b),
                }
                for xs, ys, b in zip(self.row_x, self.row_y, self.rhs)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GpMultifunction":
        try:
            rows = data.get("rows", [])
            return cls(
                input_dim=int(data["n"]),
                output_dim=int(data["r"]),
                a1=data.get("a1", []),
                a2=data.get("a2", []),
                z=data.get("z", []),
                row_x=[row["xstar"] for row in rows],
                row_y=[row["ystar"] for row in rows],
                rhs=[row["b"] for row in rows],
            )
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed multifunction payload: {exc}") from exc


@dataclass(frozen=True)
class DualMultiplier:
    """Point of the dual ball: gamma >= 0 and ||lam||_1 + sum(gamma) <= 1."""

    lam: np.ndarray
    gamma: np.ndarray

    def ball_norm(self) -> float:
        return float(np.sum(np.abs(self.lam)) + np.sum(self.gamma))


def evaluate(f: GpMultifunction, x) -> PolyhedralSet:
    """Section F(x) as a polyhedral set in the output space (may be empty)."""
    x = _as_vector(x, f.input_dim, "x")
    return PolyhedralSet(
        f.output_dim,
        eq_lhs=f.a2 if f.num_eq else None,
        eq_rhs=(f.z - f.a1 @ x) if f.num_eq else None,
        ineq_lhs=f.row_y if f.num_ineq else None,
        ineq_rhs=(f.rhs - f.row_x @ x) if f.num_ineq else None,
    )


def domain_contains(f: GpMultifunction, x, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether x lies in dom F, that is whether the section F(x) is nonempty."""
    return is_nonempty(evaluate(f, x), tol)


def gap_primal(f: GpMultifunction, x, tol: Tolerances = DEFAULT_TOL) -> float:
    """Smallest achievable worst-case section violation at x (>= 0).

    One LP in (y, t): minimize t subject to +-(a1 x + a2 y - z)_j <= t,
    row_i(x, y) - rhs_i <= t and t >= 0.
    """
    x = _as_vector(x, f.input_dim, "x")
    r, k, p = f.output_dim, f.num_eq, f.num_ineq
    rows = []
    rhs = []
    res = f.z - f.a1 @ x if k else np.zeros(0)
    for j in range(k):
        rows.append(np.concatenate([f.a2[j], [-1.0]]))
        rhs.append(res[j])
        rows.append(np.concatenate([-f.a2[j], [-1.0]]))
        rhs.append(-res[j])
    slack = f.rhs - f.row_x @ x if p else np.zeros(0)
    for i in range(p):
        rows.append(np.concatenate([f.row_y[i], [-1.0]]))
        rhs.append(slack[i])
    rows.append(np.concatenate([np.zeros(r), [-1.0]]))
    rhs.append(0.0)
    objective = np.concatenate([np.zeros(r), [1.0]])
    lp = LinearProgram(objective=objective, ineq_lhs=np.array(rows), ineq_rhs=np.array(rhs))
    status = solve_lp(lp, tol)
    if not status.is_optimal:  # t >= 0 keeps this LP solvable
        return -math.inf if status.status == "unbounded" else math.inf
    return float(status.value)


def gap_dual(f: GpMultifunction, x, tol: Tolerances = DEFAULT_TOL,
             return_multiplier: bool = False):
    """Concave dual of the section gap, as one LP over the dual ball.

    Variables (lam+, lam-, gamma) >= 0 with sum <= 1, constrained by
    a2^T (lam+ - lam-) + row_y^T gamma = 0; the objective is
    <lam, a1 x - z> + sum_i gamma_i (row_x_i . x - rhs_i).  The origin is
    always feasible, so the value is finite and >= 0.
    """
    x = _as_vector(x, f.input_dim, "x")
    k, p, r = f.num_eq, f.num_ineq, f.output_dim
    nw = 2 * k + p
    drift = f.a1 @ x - f.z if k else np.zeros(0)
    slack = f.row_x @ x - f.rhs if p else np.zeros(0)
    objective = np.concatenate([drift, -drift, slack])
    eq_lhs = np.hstack([
        f.a2.T if k else np.zeros((r, 0)),
        -f.a2.T if k else np.zeros((r, 0)),
        f.row_y.T if p else np.zeros((r, 0)),
    ])
    ineq_lhs = np.vstack([np.ones((1, nw)), -np.eye(nw)])
    ineq_rhs = np.concatenate([[1.0], np.zeros(nw)])
    lp = LinearProgram(
        objective=objective,
        ineq_lhs=ineq_lhs,
        ineq_rhs=ineq_rhs,
        eq_lhs=eq_lhs,
        eq_rhs=np.zeros(r),
        sense="maximize",
    )
    status = solve_lp(lp, tol)
    if not status.is_optimal:
        value = -math.inf
        multiplier = None
    else:
        value = float(status.value)
        w = status.point
        multiplier = DualMultiplier(lam=w[:k] - w[k:2 * k], gamma=np.maximum(w[2 * k:], 0.0))
    if return_multiplier:
        return value, multiplier
    return value


@dataclass(frozen=True)
class MinimaxCheck:
    point: np.ndarray
    primal: float
    dual: float

    @property
    def gap(self) -> float:
        if math.isinf(self.primal) and math.isinf(self.dual):
            return 0.0
        return abs(self.primal - self.dual)


@dataclass(frozen=True)
class MinimaxReport:
    checks: list
    tolerance: float

    @property
    def max_gap(self) -> float:
        return max((c.gap for c in self.checks), default=0.0)

    @property
    def passed(self) -> bool:
        return all(c.gap <= self.tolerance for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "kind": "minimax_report",
            "tolerance": self.tolerance,
            "max_gap": self.max_gap,
            "passed": self.passed,
            "checks": [
                {
                    "x": [float(v) for v in c.point],
                    "primal": c.primal,
                    "dual": c.dual,
                    "gap": c.gap,
                }
                for c in self.checks
            ],
        }


def verify_minimax(f: GpMultifunction, points,
                   tol: Tolerances = DEFAULT_TOL) -> MinimaxReport:
    """Compare the section gap with its concave dual at each point."""
    checks = []
    for x in points:
        primal = gap_primal(f, x, tol)
        dual = gap_dual(f, x, tol)
        checks.append(MinimaxCheck(point=np.asarray(x, dtype=float), primal=primal, dual=dual))
    return MinimaxReport(checks=checks, tolerance=tol.cmp)


@dataclass(frozen=True)
class DomainCheck:
    point: np.ndarray
    member: bool
    gap: float

    def agrees(self, tol: float) -> bool:
        return self.member == (self.gap <= tol)


@dataclass(frozen=True)
class DomainReport:
    checks: list
    tolerance: float

    @property
    def mismatches(self) -> list:
        return [c for c in self.checks if not c.agrees(self.tolerance)]

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_json_dict(self) -> dict:
        return {
            "kind": "domain_report",
            "tolerance": self.tolerance,
            "passed": self.passed,
            "num_checks": len(self.checks),
            "num_mismatches": len(self.mismatches),
            "checks": [
                {
                    "x": [float(v) for v in c.point],
                    "member": c.member,
                    "gap": c.gap,
                }
                for c in self.checks
            ],
        }


def verify_domain_characterization(f: GpMultifunction, points,
                                   tol: Tolerances = DEFAULT_TOL) -> DomainReport:
    """Membership in dom F must coincide with a vanishing section gap."""
    checks = []
    for x in points:
        member = domain_contains(f, x, tol)
        gap = gap_primal(f, x, tol)
        checks.append(DomainCheck(point=np.asarray(x, dtype=float), member=member, gap=gap))
    return DomainReport(checks=checks, tolerance=tol.cmp)


@dataclass(frozen=True)
class SectionSamplerConfig:
    """Sampling plan for modulus estimation over dom F.

    Points are rejection-sampled from Gaussians centered at a feasibility
    witness, with the radius drawn from `radius_ladder` so both nearby and
    far-apart pairs occur.  Every pair gets its own derived seed, so a
    larger `num_pairs` extends the sample instead of redrawing it.
    """

    num_pairs: int = 500
    master_seed: int = 0
    radius_ladder: tuple = (0.1, 1.0, 10.0)
    max_rejects: int = 200


@dataclass(frozen=True)
class LipschitzEstimateReport:
    """Outcome of `estimate_lipschitz_modulus`.

    `num_excluded_unbounded` counts the pairs whose Hausdorff distance is
    +inf, which happens only when the two sections have different recession
    cones.  Every nonempty section of one multifunction has the cone
    {y : a2 y = 0, row_y y <= 0}, so the count is 0 up to rounding.  The
    field stays because the report schema and `perfbench/tracing.py` read it.
    """

    c_emp: float
    witness_pair: tuple | None
    num_pairs_requested: int
    num_ratios: int
    num_rejected_domain: int
    num_excluded_unbounded: int
    trace: list  # (ratio count, running max)

    def to_json_dict(self) -> dict:
        wp = None
        if self.witness_pair is not None:
            x1, x2, h, ratio = self.witness_pair
            wp = {
                "x1": [float(v) for v in x1],
                "x2": [float(v) for v in x2],
                "hausdorff": h,
                "ratio": ratio,
            }
        return {
            "kind": "lipschitz_estimate",
            "c_emp": self.c_emp,
            "witness_pair": wp,
            "num_pairs_requested": self.num_pairs_requested,
            "num_ratios": self.num_ratios,
            "num_rejected_domain": self.num_rejected_domain,
            "num_excluded_unbounded": self.num_excluded_unbounded,
            "trace": [[int(c), v] for c, v in self.trace],
        }


def _domain_witness(f: GpMultifunction, tol: Tolerances) -> np.ndarray:
    """Some x in dom F, from one joint feasibility solve over (x, y)."""
    n, r = f.input_dim, f.output_dim
    if f.num_eq + f.num_ineq == 0:
        return np.zeros(n)
    eq = np.hstack([f.a1, f.a2]) if f.num_eq else np.zeros((0, n + r))
    ineq = np.hstack([f.row_x, f.row_y]) if f.num_ineq else np.zeros((0, n + r))
    res = solve_feasibility(eq, f.z, ineq, f.rhs, tol)
    if not res.is_optimal:
        raise DegenerateSampler("dom F is empty")
    return res.point[:n]


def _sample_domain_point(f, center, stream, cfg, tol):
    """(x, F(x)) for the first sampled x with a nonempty section, or None.
    The section keeps its phase-one witness for the Hausdorff distance."""
    for _ in range(cfg.max_rejects):
        radius = cfg.radius_ladder[stream.randint(0, len(cfg.radius_ladder) - 1)]
        x = center + radius * np.array(stream.normals(f.input_dim))
        section = evaluate(f, x)
        if is_nonempty(section, tol):
            return x, section
    return None


def _measure_pair(f, center, index, cfg, caps, tol):
    """One pair's (x1, x2, h, ratio) or a rejection tag; order-independent."""
    stream = SplitMix64(derive_seed(cfg.master_seed, index))
    first = _sample_domain_point(f, center, stream, cfg, tol)
    second = _sample_domain_point(f, center, stream, cfg, tol)
    if first is None or second is None:
        return "rejected"
    (x1, section1), (x2, section2) = first, second
    gap = float(np.linalg.norm(x1 - x2))
    if gap <= 1e-9:
        return "rejected"
    h = hausdorff(section1, section2, caps, tol)
    if math.isinf(h):
        return "excluded"
    return (x1, x2, h, h / gap)


def estimate_lipschitz_modulus(f: GpMultifunction,
                               cfg: SectionSamplerConfig = SectionSamplerConfig(),
                               caps: Caps = DEFAULT_CAPS,
                               tol: Tolerances = DEFAULT_TOL):
    """Empirical modulus sup h(F(x1), F(x2)) / ||x1 - x2|| over sampled pairs.

    Each ratio uses the exact Hausdorff distance, for unbounded sections as
    well as bounded ones.  A pair whose distance is +inf (sections with
    different recession cones, which one multifunction does not produce) is
    left out of the maximum and counted in `num_excluded_unbounded`.  Each
    pair's seed derives from its index.  Returns (c_emp, report).
    """
    center = _domain_witness(f, tol)
    c_emp = 0.0
    witness_pair = None
    ratios = 0
    rejected = 0
    excluded = 0
    trace = []
    next_checkpoint = 1
    for index in range(cfg.num_pairs):
        result = _measure_pair(f, center, index, cfg, caps, tol)
        if result == "rejected":
            rejected += 1
            continue
        if result == "excluded":
            excluded += 1
            continue
        x1, x2, h_value, ratio = result
        ratios += 1
        if ratio > c_emp:
            c_emp = ratio
            witness_pair = (x1, x2, h_value, ratio)
        if ratios >= next_checkpoint:
            trace.append((ratios, c_emp))
            next_checkpoint *= 2
    if ratios == 0:
        raise DegenerateSampler("fewer than 2 usable domain points were found")
    if not trace or trace[-1][0] != ratios:
        trace.append((ratios, c_emp))
    report = LipschitzEstimateReport(
        c_emp=c_emp,
        witness_pair=witness_pair,
        num_pairs_requested=cfg.num_pairs,
        num_ratios=ratios,
        num_rejected_domain=rejected,
        num_excluded_unbounded=excluded,
        trace=trace,
    )
    return c_emp, report


@dataclass(frozen=True)
class HoldoutReport:
    c_emp: float
    slack: float
    num_checked: int
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "kind": "lipschitz_holdout",
            "c_emp": self.c_emp,
            "slack": self.slack,
            "num_checked": self.num_checked,
            "num_violations": len(self.violations),
            "passed": self.passed,
        }


def check_lipschitz_holdout(f: GpMultifunction, c_emp: float,
                            cfg: SectionSamplerConfig,
                            slack: float = 1.05,
                            caps: Caps = DEFAULT_CAPS,
                            tol: Tolerances = DEFAULT_TOL) -> HoldoutReport:
    """Fresh-sample check that h(F(x1), F(x2)) <= slack * c_emp * ||x1 - x2||.

    Pairs are drawn and filtered exactly as in `estimate_lipschitz_modulus`,
    unbounded sections included, so for the same `cfg` `num_checked` equals
    the estimate's `num_ratios`.
    """
    center = _domain_witness(f, tol)
    violations = []
    checked = 0
    for index in range(cfg.num_pairs):
        result = _measure_pair(f, center, index, cfg, caps, tol)
        if isinstance(result, str):  # rejected or excluded
            continue
        x1, x2, h_value, _ = result
        checked += 1
        if h_value > slack * c_emp * float(np.linalg.norm(x1 - x2)) + tol.cmp:
            violations.append(result)
    return HoldoutReport(c_emp=c_emp, slack=slack, num_checked=checked, violations=violations)
