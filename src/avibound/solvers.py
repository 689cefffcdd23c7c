"""Projection-type iterative solvers with residual-norm stopping.

Two methods: the projected fixed-point iteration x+ = P_C(x - t(Mx + q))
and the extragradient variant that re-evaluates the operator at the
predicted point.  The residual norm is the stopping rule, which is what ties
the solver to the error bound: once the residual is small, the distance to
the solution set is provably proportional to it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .avi import AviInstance, residual
from .bounds import SolutionGeometry
from .config import DEFAULT_CAPS, DEFAULT_TOL, Caps, Tolerances
from .sets import _as_vector

DIVERGENCE_NORM = 1e9


def operator_norm(M, iterations: int = 50) -> float:
    """Spectral norm estimate by power iteration on M^T M.

    Deterministic start (all-ones direction); 50 rounds are plenty at desk
    scale.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    v = np.ones(n) / np.sqrt(n)
    for _ in range(iterations):
        w = M.T @ (M @ v)
        norm = np.linalg.norm(w)
        if norm <= 1e-300:
            return 0.0
        v = w / norm
    return float(np.sqrt(v @ (M.T @ (M @ v))))


def default_step(inst: AviInstance) -> float:
    return 0.3 / (1.0 + operator_norm(inst.m_op))


@dataclass(frozen=True)
class SolverConfig:
    method: str = "extragradient"  # or "projected_fixed_point"
    step: float | None = None      # None: 0.3 / (1 + ||M||)
    max_iters: int = 10_000
    stop_residual: float = 1e-6
    x0: np.ndarray | None = None

    def __post_init__(self):
        if self.method not in ("extragradient", "projected_fixed_point"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.step is not None and self.step <= 0:
            raise ValueError("step must be positive")
        if self.stop_residual <= 0:
            raise ValueError("stop_residual must be positive")


@dataclass(frozen=True)
class IterateRecord:
    iteration: int
    residual_norm: float
    distance_to_solutions: float | None = None


@dataclass(frozen=True)
class SolveTrace:
    method: str
    step: float
    records: list
    points: list
    final_x: np.ndarray
    converged: bool
    diverged: bool = False

    @property
    def iterations(self) -> int:
        return self.records[-1].iteration if self.records else 0

    @property
    def best_residual(self) -> float:
        return min(r.residual_norm for r in self.records)

    def to_csv(self) -> str:
        lines = ["iter,residual,distance"]
        for rec in self.records:
            dist = "" if rec.distance_to_solutions is None else repr(rec.distance_to_solutions)
            lines.append(f"{rec.iteration},{rec.residual_norm!r},{dist}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "kind": "solve_trace",
            "method": self.method,
            "step": self.step,
            "converged": self.converged,
            "diverged": self.diverged,
            "iterations": self.iterations,
            "final_x": [float(v) for v in self.final_x],
            "final_residual": self.records[-1].residual_norm if self.records else None,
        }


def solve(inst: AviInstance, cfg: SolverConfig = SolverConfig(),
          tol: Tolerances = DEFAULT_TOL) -> SolveTrace:
    """Run the configured iteration until the residual passes the threshold.

    The trace records every iterate's residual norm as computed, without
    monotonicity assumptions.  Divergence (norm above 1e9) aborts the run
    with converged=False; hitting max_iters also returns the trace rather
    than raising.  The stopping threshold may not undercut the comparison
    tolerance in use (pass a tighter `tol` to stop at tighter residuals).
    """
    from .optkernel import QpProjectionProblem, solve_projection_qp

    if cfg.stop_residual < tol.cmp:
        raise ValueError(
            f"stop_residual {cfg.stop_residual:g} is below the comparison "
            f"tolerance {tol.cmp:g}"
        )
    x = (
        _as_vector(cfg.x0, inst.dim, "x0").copy()
        if cfg.x0 is not None
        else np.zeros(inst.dim)
    )
    step = cfg.step if cfg.step is not None else default_step(inst)
    M, q, C = inst.m_op, inst.q, inst.c_set

    def proj(u, start):
        return solve_projection_qp(QpProjectionProblem(u, C), tol, start)

    records = []
    points = []
    converged = False
    diverged = False
    for it in range(cfg.max_iters + 1):
        res = residual(inst, x, tol)
        records.append(IterateRecord(iteration=it, residual_norm=res.norm))
        points.append(x.copy())
        if res.norm <= cfg.stop_residual:
            converged = True
            break
        if it == cfg.max_iters:
            break
        if np.linalg.norm(x) > DIVERGENCE_NORM:
            diverged = True
            break
        # Warm starts: x (once past x0) and midpoint already lie in C.
        if cfg.method == "projected_fixed_point":
            x = proj(x - step * (M @ x + q), x)
        else:
            midpoint = proj(x - step * (M @ x + q), x)
            x = proj(x - step * (M @ midpoint + q), midpoint)
    return SolveTrace(
        method=cfg.method,
        step=step,
        records=records,
        points=points,
        final_x=x,
        converged=converged,
        diverged=diverged,
    )


def annotate_distances(inst: AviInstance, trace: SolveTrace,
                       geometry: SolutionGeometry | None = None,
                       caps: Caps = DEFAULT_CAPS,
                       tol: Tolerances = DEFAULT_TOL) -> SolveTrace:
    """Fill distance-to-solution-set for every recorded iterate."""
    geometry = geometry or SolutionGeometry.from_instance(inst, caps, tol)
    annotated = [
        replace(rec, distance_to_solutions=geometry.distance(point))
        for rec, point in zip(trace.records, trace.points)
    ]
    return replace(trace, records=annotated)


@dataclass(frozen=True)
class TailBoundReport:
    c_emp: float
    epsilon: float
    slack: float
    num_checked: int
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "kind": "tail_bound",
            "c_emp": self.c_emp,
            "epsilon": self.epsilon,
            "slack": self.slack,
            "num_checked": self.num_checked,
            "num_violations": len(self.violations),
            "passed": self.passed,
        }


def check_tail_bound(trace: SolveTrace, c_emp: float, epsilon: float,
                     slack: float = 1.05,
                     tol: Tolerances = DEFAULT_TOL) -> TailBoundReport:
    """Every annotated iterate with residual <= epsilon must satisfy
    distance <= slack * c_emp * residual (up to the 0/0 floor)."""
    floor = 10.0 * tol.cmp
    violations = []
    checked = 0
    for rec in trace.records:
        if rec.distance_to_solutions is None:
            continue
        if rec.residual_norm > epsilon or rec.residual_norm < floor:
            continue
        checked += 1
        if rec.distance_to_solutions > slack * c_emp * rec.residual_norm + tol.cmp:
            violations.append(
                (rec.iteration, rec.residual_norm, rec.distance_to_solutions)
            )
    return TailBoundReport(
        c_emp=c_emp,
        epsilon=epsilon,
        slack=slack,
        num_checked=checked,
        violations=violations,
    )


def solution_check_tolerance(inst: AviInstance, cfg: SolverConfig) -> float:
    """Tolerance at which a converged iterate must pass the direct solution
    test: 10 * stop_residual * (1 + ||M||)."""
    return 10.0 * cfg.stop_residual * (1.0 + operator_norm(inst.m_op))
