"""Generalized polyhedral multifunctions and their Lipschitz moduli.

A multifunction is stored through its graph data: sections are
``F(x) = {y : a1 x + a2 y = z, row_x_i . x + row_y_i . y <= rhs_i}``.

The section-gap function measures how far x is from the domain: it is the
smallest worst-case violation ``inf_y max(||a1 x + a2 y - z||_inf, max_i
(row_i - rhs_i))`` and is nonnegative by construction, with value 0 exactly
on dom F.  With the max-norm on the equality residual the gap is a linear
program, the one LP of the pair.  Its concave dual maximizes a function linear
in x over a dual ball that does not depend on x, so the dual is the largest
of finitely many affine functions ``H x + h``, one per vertex of the ball.
The primal/dual equality is LP duality (the minimax step), checkable to
solver precision by comparing the LP with that maximum.  By Farkas,
``{x : H x + h <= 0}`` is dom F in H-form, and the domain sampler skips the
draws it puts outside.

The Lipschitz modulus is estimated from sampled pairs of domain points; the
running maximum of their ratios and the holdout check on fresh pairs are
`ratios.running_max` and `ratios.holdout`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampler, DimensionMismatch, SchemaError
from .optkernel import solve_feasibility, solve_lp
from .polyhedra import PolyhedralSet, enumerate_vertices, hausdorff, is_nonempty
from .ratios import CMP_TOL, HoldoutReport, holdout, running_max
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
        a1 = _as_matrix(self.a1, n, "a1")
        a2 = _as_matrix(self.a2, r, "a2")
        if a1.shape[0] != a2.shape[0]:
            raise DimensionMismatch("a1 and a2 must have the same number of rows")
        z = _as_vector(self.z, a1.shape[0], "z")
        row_x = _as_matrix(self.row_x, n, "row_x")
        row_y = _as_matrix(self.row_y, r, "row_y")
        if row_x.shape[0] != row_y.shape[0]:
            raise DimensionMismatch("row_x and row_y must have the same number of rows")
        rhs = _as_vector(self.rhs, row_x.shape[0], "rhs")
        for name, arr in (
            ("a1", a1), ("a2", a2), ("z", z),
            ("row_x", row_x), ("row_y", row_y), ("rhs", rhs),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "input_dim", n)
        object.__setattr__(self, "output_dim", r)
        # `gap_primal` values by the bytes of the point, and the dual ball's
        # (V, H, h) once `_dual_vertices` has built it
        object.__setattr__(self, "_gap_primal", {})
        object.__setattr__(self, "_dual_form", None)

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


def evaluate(f: GpMultifunction, x) -> PolyhedralSet:
    """Section F(x) as a polyhedral set in the output space (may be empty)."""
    x = _as_vector(x, f.input_dim, "x")
    return PolyhedralSet._computed(
        f.output_dim,
        eq_lhs=f.a2,
        eq_rhs=f.z - f.a1 @ x,
        ineq_lhs=f.row_y,
        ineq_rhs=f.rhs - f.row_x @ x,
    )


def domain_contains(f: GpMultifunction, x) -> bool:
    """Whether x lies in dom F, that is whether the section F(x) is nonempty."""
    return is_nonempty(evaluate(f, x))


def gap_primal(f: GpMultifunction, x) -> float:
    """Smallest achievable worst-case section violation at x (>= 0).

    One LP in (y, t): minimize t subject to +-(a1 x + a2 y - z)_j <= t,
    row_i(x, y) - rhs_i <= t and t >= 0.  The rows come in that order, with
    the + and - row of each j next to each other.  The value is a pure
    function of f and x, so `f` keeps it by the bytes of x, and a point
    asked again (`verify_minimax` and `verify_domain_characterization` probe
    the same points) solves no second LP.
    """
    x = _as_vector(x, f.input_dim, "x")
    key = x.tobytes()
    if key not in f._gap_primal:
        f._gap_primal[key] = _solve_gap_primal(f, x)
    return f._gap_primal[key]


def _solve_gap_primal(f: GpMultifunction, x: np.ndarray) -> float:
    r, k = f.output_dim, f.num_eq
    res = f.z - f.a1 @ x
    y_rows = np.vstack([
        np.stack([f.a2, -f.a2], axis=1).reshape(2 * k, r),
        f.row_y,
        np.zeros((1, r)),
    ])
    epigraph = PolyhedralSet._computed(
        r + 1,
        ineq_lhs=np.hstack([y_rows, -np.ones((y_rows.shape[0], 1))]),
        ineq_rhs=np.concatenate([np.stack([res, -res], axis=1).reshape(2 * k),
                                 f.rhs - f.row_x @ x, [0.0]]),
    )
    objective = np.concatenate([np.zeros(r), [1.0]])
    return solve_lp(epigraph, objective).value


def _dual_vertices(f: GpMultifunction):
    """(V, H, h): the vertices V (rows) of the dual ball, H = V Bx and
    h = V b0, built on first use and kept by `f`.

    The ball is {w = (lam+, lam-, gamma) >= 0 : sum w <= 1,
    a2^T (lam+ - lam-) + row_y^T gamma = 0}, and the dual objective at x is
    w . (Bx x + b0) with Bx = [a1; -a1; row_x] and b0 = (-z, z, -rhs).  The
    ball is a polytope holding the origin, so one `enumerate_vertices` lists
    every vertex, and no LP is solved.  Without rows the ball is the origin
    alone, which a `PolyhedralSet` cannot hold: V is then one empty vertex.
    A ball whose double description keeps more than `_RAY_BUDGET` rays
    raises `CapExceeded`; there is no LP fallback.
    """
    if f._dual_form is None:
        nw = 2 * f.num_eq + f.num_ineq
        bx = np.vstack([f.a1, -f.a1, f.row_x])
        b0 = np.concatenate([-f.z, f.z, -f.rhs])
        if nw == 0:
            V = np.zeros((1, 0))
        else:
            ball = PolyhedralSet._computed(
                nw,
                ineq_lhs=np.vstack([np.ones((1, nw)), -np.eye(nw)]),
                ineq_rhs=np.concatenate([[1.0], np.zeros(nw)]),
                eq_lhs=np.hstack([f.a2.T, -f.a2.T, f.row_y.T]),
                eq_rhs=np.zeros(f.output_dim),
            )
            V = np.array(enumerate_vertices(ball).vertices)
        object.__setattr__(f, "_dual_form", (V, V @ bx, V @ b0))
    return f._dual_form


def gap_dual(f: GpMultifunction, x) -> float:
    """Value of the concave dual of the section gap at x: the largest of
    H x + h over the vertices of the dual ball (`_dual_vertices`).

    The origin is a vertex, so the value is >= 0 up to rounding.  Without
    rows the ball is the origin alone and the value is 0.
    """
    x = _as_vector(x, f.input_dim, "x")
    _, H, h = _dual_vertices(f)
    return float((H @ x + h).max())


@dataclass(frozen=True)
class MinimaxCheck:
    point: np.ndarray
    primal: float
    dual: float

    @property
    def gap(self) -> float:
        return abs(self.primal - self.dual)


@dataclass(frozen=True)
class MinimaxReport:
    checks: list

    @property
    def max_gap(self) -> float:
        return max((c.gap for c in self.checks), default=0.0)

    @property
    def passed(self) -> bool:
        return all(c.gap <= CMP_TOL for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "kind": "minimax_report",
            "tolerance": CMP_TOL,
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


def verify_minimax(f: GpMultifunction, points) -> MinimaxReport:
    """Compare the section gap with its concave dual at each point."""
    checks = []
    for x in points:
        primal = gap_primal(f, x)
        dual = gap_dual(f, x)
        checks.append(MinimaxCheck(point=np.asarray(x, dtype=float), primal=primal, dual=dual))
    return MinimaxReport(checks=checks)


@dataclass(frozen=True)
class DomainCheck:
    point: np.ndarray
    member: bool
    gap: float

    @property
    def agrees(self) -> bool:
        return self.member == (self.gap <= CMP_TOL)


@dataclass(frozen=True)
class DomainReport:
    checks: list

    @property
    def mismatches(self) -> list:
        return [c for c in self.checks if not c.agrees]

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_json_dict(self) -> dict:
        return {
            "kind": "domain_report",
            "tolerance": CMP_TOL,
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


def verify_domain_characterization(f: GpMultifunction, points) -> DomainReport:
    """Membership in dom F must coincide with a vanishing section gap."""
    checks = []
    for x in points:
        member = domain_contains(f, x)
        gap = gap_primal(f, x)
        checks.append(DomainCheck(point=np.asarray(x, dtype=float), member=member, gap=gap))
    return DomainReport(checks=checks)


@dataclass(frozen=True)
class SectionSamplerConfig:
    """Sampling plan for modulus estimation over dom F.

    Points are rejection-sampled from Gaussians centered at a feasibility
    witness, with the radius drawn from `_SAMPLE_RADII` so both nearby and
    far-apart pairs occur; a point gives up after `_MAX_REJECTS` draws.
    Every pair gets its own derived seed, so a larger `num_pairs` extends
    the sample instead of redrawing it.
    """

    num_pairs: int = 500
    master_seed: int = 0


_SAMPLE_RADII = (0.1, 1.0, 10.0)
_MAX_REJECTS = 200


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


def _domain_witness(f: GpMultifunction) -> np.ndarray:
    """Some x in dom F, from one joint feasibility solve over (x, y).

    `solve_feasibility`, not the cached slack-basis witness: the sampler is
    centered on this point, so the vertex of the all-artificial start keeps
    the sampled pairs (and the benchmark's recorded moduli) as they are.
    """
    graph = PolyhedralSet._computed(
        f.input_dim + f.output_dim,
        ineq_lhs=np.hstack([f.row_x, f.row_y]),
        ineq_rhs=f.rhs,
        eq_lhs=np.hstack([f.a1, f.a2]),
        eq_rhs=f.z,
    )
    point = solve_feasibility(graph)
    if point is None:
        raise DegenerateSampler("dom F is empty")
    return point[:f.input_dim]


def _sample_domain_point(f, center, stream):
    """(x, F(x)) for the first sampled x with a nonempty section, or None.
    A draw whose dual gap exceeds CMP_TOL is outside dom F and skipped
    without a phase one; every other draw is decided by `is_nonempty`, and
    its section keeps the phase-one witness for the Hausdorff distance."""
    _, H, h = _dual_vertices(f)
    for _ in range(_MAX_REJECTS):
        radius = _SAMPLE_RADII[stream.randint(0, len(_SAMPLE_RADII) - 1)]
        x = center + radius * np.array(stream.normals(f.input_dim))
        if np.max(H @ x + h) > CMP_TOL:  # a positive section gap: x is not in dom F
            continue
        section = evaluate(f, x)
        if is_nonempty(section):
            return x, section
    return None


def _measure_pair(f, center, index, cfg):
    """One pair's (x1, x2, h, ratio) or a rejection tag; order-independent."""
    stream = SplitMix64(derive_seed(cfg.master_seed, index))
    first = _sample_domain_point(f, center, stream)
    second = _sample_domain_point(f, center, stream)
    if first is None or second is None:
        return "rejected"
    (x1, section1), (x2, section2) = first, second
    gap = float(np.linalg.norm(x1 - x2))
    if gap <= 1e-9:
        return "rejected"
    h = hausdorff(section1, section2)
    if math.isinf(h):
        return "excluded"
    return (x1, x2, h, h / gap)


def _measure_pairs(f, cfg):
    """The plan's (x1, x2, h, ratio) pairs in index order, and the numbers
    of pairs rejected and excluded."""
    center = _domain_witness(f)
    results = [_measure_pair(f, center, index, cfg) for index in range(cfg.num_pairs)]
    pairs = [r for r in results if not isinstance(r, str)]
    return pairs, results.count("rejected"), results.count("excluded")


def estimate_lipschitz_modulus(f: GpMultifunction,
                               cfg: SectionSamplerConfig = SectionSamplerConfig()):
    """Empirical modulus sup h(F(x1), F(x2)) / ||x1 - x2|| over sampled pairs.

    Each ratio uses the exact Hausdorff distance, for unbounded sections as
    well as bounded ones.  A pair whose distance is +inf (sections with
    different recession cones, which one multifunction does not produce) is
    left out of the maximum and counted in `num_excluded_unbounded`.  Each
    pair's seed derives from its index.  Returns (c_emp, report).
    """
    pairs, rejected, excluded = _measure_pairs(f, cfg)
    if not pairs:
        raise DegenerateSampler("fewer than 2 usable domain points were found")
    reduced = running_max([pair[3] for pair in pairs])
    report = LipschitzEstimateReport(
        c_emp=reduced.c_emp,
        witness_pair=None if reduced.witness is None else pairs[reduced.witness],
        num_pairs_requested=cfg.num_pairs,
        num_ratios=len(pairs),
        num_rejected_domain=rejected,
        num_excluded_unbounded=excluded,
        trace=reduced.trace,
    )
    return reduced.c_emp, report


def check_lipschitz_holdout(f: GpMultifunction, c_emp: float,
                            cfg: SectionSamplerConfig,
                            slack: float = 1.05) -> HoldoutReport:
    """Fresh-sample check that h(F(x1), F(x2)) <= slack * c_emp * ||x1 - x2||.

    Pairs are drawn and filtered exactly as in `estimate_lipschitz_modulus`,
    unbounded sections included, so for the same `cfg` `num_checked` equals
    the estimate's `num_ratios`.
    """
    pairs, _, _ = _measure_pairs(f, cfg)
    samples = [(h, float(np.linalg.norm(x1 - x2)), (x1, x2, h, ratio))
               for x1, x2, h, ratio in pairs]
    return holdout(samples, c_emp, slack)
