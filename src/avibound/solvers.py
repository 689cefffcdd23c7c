"""Projection-type iterative solvers with residual-norm stopping.

Two methods: the projected fixed-point iteration x+ = P_C(x - t(Mx + q))
and the extragradient variant that re-evaluates the operator at the
predicted point.  The residual norm is the stopping rule, which is what ties
the solver to the error bound: once the residual is small, the distance to
the solution set is provably proportional to it.  `check_tail_bound` checks
that proportionality on the iterates with `ratios.holdout`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .avi import AviInstance, residual
from .bounds import SolutionGeometry
from .optkernel import solve_projection_qp
from .ratios import ZERO_OVER_ZERO_FLOOR, HoldoutReport, holdout
from .sets import _as_vector

DIVERGENCE_NORM = 1e9


def default_step(inst: AviInstance) -> float:
    return 0.3 / (1.0 + float(np.linalg.norm(inst.m_op, 2)))


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
        if self.step is not None and not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be finite and positive, got {self.step}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not (math.isfinite(self.stop_residual) and self.stop_residual > 0):
            raise ValueError(
                f"stop_residual must be finite and positive, got {self.stop_residual}"
            )


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


def solve(inst: AviInstance, cfg: SolverConfig = SolverConfig()) -> SolveTrace:
    """Run the configured iteration until the residual passes the threshold.

    The trace records every iterate's residual norm as computed, without
    monotonicity assumptions.  Divergence (norm above 1e9) aborts the run
    with converged=False; hitting max_iters also returns the trace rather
    than raising.  The run stops at `cfg.stop_residual` alone, however far
    below the verdicts' comparison slack `ratios.CMP_TOL` it lies.
    """
    x = np.zeros(inst.dim) if cfg.x0 is None else _as_vector(cfg.x0, inst.dim, "x0")
    step = cfg.step if cfg.step is not None else default_step(inst)
    M, q, C = inst.m_op, inst.q, inst.c_set
    records = []
    points = []
    converged = False
    diverged = False
    for it in range(cfg.max_iters + 1):
        res = residual(inst, x)
        records.append(IterateRecord(iteration=it, residual_norm=res.norm))
        points.append(x.copy())
        if res.norm <= cfg.stop_residual:
            converged = True
            break
        if it == cfg.max_iters:
            break
        if math.sqrt(x.dot(x)) > DIVERGENCE_NORM:
            diverged = True
            break
        if cfg.method == "projected_fixed_point":
            x = solve_projection_qp(C, x - step * (M.dot(x) + q))
        else:
            midpoint = solve_projection_qp(C, x - step * (M.dot(x) + q))
            x = solve_projection_qp(C, x - step * (M.dot(midpoint) + q))
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
                       geometry: SolutionGeometry | None = None) -> SolveTrace:
    """Fill distance-to-solution-set for every recorded iterate."""
    geometry = geometry or SolutionGeometry.from_instance(inst)
    annotated = [
        replace(rec, distance_to_solutions=geometry.distance(point))
        for rec, point in zip(trace.records, trace.points)
    ]
    return replace(trace, records=annotated)


def check_tail_bound(trace: SolveTrace, c_emp: float, epsilon: float,
                     slack: float = 1.05) -> HoldoutReport:
    """Every annotated iterate with residual in [ZERO_OVER_ZERO_FLOOR,
    epsilon] must satisfy distance <= slack * c_emp * residual.  Each
    violation is recorded as (iteration, residual, distance)."""
    samples = [
        (rec.distance_to_solutions, rec.residual_norm,
         (rec.iteration, rec.residual_norm, rec.distance_to_solutions))
        for rec in trace.records
        if rec.distance_to_solutions is not None
        and ZERO_OVER_ZERO_FLOOR <= rec.residual_norm <= epsilon
    ]
    return holdout(samples, c_emp, slack)
