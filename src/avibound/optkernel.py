"""Dense LP / feasibility / projection-QP kernel.

Everything downstream (geometry, multifunction gaps, piece enumeration)
reduces to the three solvers in this module.  Instances are desk-scale
(n + m up to ~100), so the implementation favors determinism and exact
classification over speed:

- `solve_lp`: two-phase dense simplex with Bland's rule for anti-cycling.
- `solve_feasibility`: phase one only, returning a witness point.
- `solve_projection_qp`: primal active-set method for the strictly convex
  problem min ||z - u||^2 over a polyhedron, started from a caller's point
  of the set or from its phase-one witness.

`feasible_witness` runs phase one at most once per set and feasibility
tolerance, and keeps the point, or the fact that the set is empty, in the
set's cache; every other solve is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .config import DEFAULT_TOL, Tolerances
from .errors import DimensionMismatch, EmptySet, NumericalBreakdown
from .sets import PolyhedralSet, _as_matrix, _as_vector

_PIVOT_TOL = 1e-10


@dataclass(frozen=True)
class LinearProgram:
    """Dense LP: optimize objective over {ineq_lhs x <= ineq_rhs, eq_lhs x = eq_rhs}.

    Variables are free reals; sign restrictions go in as inequality rows.
    """

    objective: np.ndarray
    ineq_lhs: np.ndarray = None
    ineq_rhs: np.ndarray = None
    eq_lhs: np.ndarray = None
    eq_rhs: np.ndarray = None
    sense: str = "minimize"

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float).reshape(-1)
        if c.size == 0:
            raise DimensionMismatch("objective must be nonempty")
        if not np.all(np.isfinite(c)):
            raise ValueError("objective contains non-finite entries")
        n = c.size
        A = _as_matrix(self.ineq_lhs if self.ineq_lhs is not None else [], n, "ineq_lhs")
        b = _as_vector(self.ineq_rhs if self.ineq_rhs is not None else [], A.shape[0], "ineq_rhs")
        E = _as_matrix(self.eq_lhs if self.eq_lhs is not None else [], n, "eq_lhs")
        d = _as_vector(self.eq_rhs if self.eq_rhs is not None else [], E.shape[0], "eq_rhs")
        if self.sense not in ("minimize", "maximize"):
            raise ValueError(f"sense must be minimize or maximize, got {self.sense!r}")
        for name, arr in (
            ("objective", c),
            ("ineq_lhs", A),
            ("ineq_rhs", b),
            ("eq_lhs", E),
            ("eq_rhs", d),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_vars(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class QpProjectionProblem:
    """Project `target` onto `feasible_set` in the Euclidean norm."""

    target: np.ndarray
    feasible_set: PolyhedralSet

    def __post_init__(self):
        u = _as_vector(self.target, self.feasible_set.ambient_dim, "target")
        u.setflags(write=False)
        object.__setattr__(self, "target", u)


@dataclass(frozen=True)
class SolveStatus:
    """Outcome of an LP / feasibility solve.

    `point` is present exactly when status == "optimal".  For LPs, `dual`
    holds row multipliers ordered [inequalities..., equalities...] with the
    convention value == ineq_rhs . dual_ineq + eq_rhs . dual_eq; inequality
    multipliers are <= 0 when minimizing and >= 0 when maximizing.
    """

    status: str
    value: float
    point: np.ndarray | None = None
    dual: np.ndarray | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def _bland_iterate(A, b, c, basis, enterable, tol, max_pivots):
    """Revised simplex loop on min c.v s.t. Av = b, v >= 0 with Bland's rule.

    `basis` is mutated in place.  Returns "optimal" or "unbounded".
    """
    m, n = A.shape
    if m == 0:
        return "optimal" if np.all(c[enterable] >= -tol) else "unbounded"
    for _ in range(max_pivots):
        lu = lu_factor(A[:, basis], check_finite=False)
        x_b = lu_solve(lu, b, check_finite=False)
        if not np.all(np.isfinite(x_b)):  # a singular basis solves to inf/nan
            raise NumericalBreakdown("singular or non-finite simplex basis")
        y = lu_solve(lu, c[basis], trans=1, check_finite=False)
        reduced = c - A.T @ y
        in_basis = np.zeros(n, dtype=bool)
        in_basis[basis] = True
        entering = -1
        for j in enterable:
            if not in_basis[j] and reduced[j] < -tol:
                entering = j
                break
        if entering < 0:
            return "optimal"
        direction = lu_solve(lu, A[:, entering], check_finite=False)
        best_ratio = math.inf
        leave_row = -1
        for i in range(m):
            if direction[i] > _PIVOT_TOL:
                ratio = max(x_b[i], 0.0) / direction[i]
                if ratio < best_ratio - _PIVOT_TOL or (
                    ratio <= best_ratio + _PIVOT_TOL
                    and (leave_row < 0 or basis[i] < basis[leave_row])
                ):
                    if ratio < best_ratio:
                        best_ratio = ratio
                    leave_row = i
        if leave_row < 0:
            return "unbounded"
        basis[leave_row] = entering
    raise NumericalBreakdown("simplex pivot budget exhausted")


def _phase_one(A, b, tol, max_pivots):
    """Find a basic feasible point of {Av = b, v >= 0} via artificials.

    Returns (feasible, A, b, basis, kept_rows); redundant rows are dropped
    and all artificial columns are eliminated from the basis.
    """
    m, n = A.shape
    signs = np.where(b < 0, -1.0, 1.0)
    A = A * signs[:, None]
    b = b * signs
    full = np.hstack([A, np.eye(m)])
    cost = np.concatenate([np.zeros(n), np.ones(m)])
    basis = list(range(n, n + m))
    status = _bland_iterate(full, b, cost, basis, range(n), tol, max_pivots)
    if status != "optimal":  # the phase-one objective is bounded below by 0
        raise NumericalBreakdown(f"phase one reported {status}")
    if m:
        lu = lu_factor(full[:, basis], check_finite=False)
        x_b = lu_solve(lu, b, check_finite=False)
    else:
        x_b = np.zeros(0)
    infeas = sum(max(x_b[i], 0.0) for i in range(m) if basis[i] >= n)
    if infeas > max(tol, 1e-9):
        return False, A, b, basis, list(range(m))
    # Pivot artificials out of the basis; a row where no original column can
    # pivot is linearly dependent on the others and gets dropped.
    keep = list(range(m))
    for row in range(m):
        if basis[row] < n:
            continue
        lu = lu_factor(full[:, basis], check_finite=False)
        e_row = np.zeros(m)
        e_row[row] = 1.0
        w = lu_solve(lu, e_row, trans=1, check_finite=False)
        tableau_row = full[:, :n].T @ w
        in_basis = set(basis)
        pivot_col = -1
        for j in range(n):
            if j not in in_basis and abs(tableau_row[j]) > 1e-8:
                pivot_col = j
                break
        if pivot_col >= 0:
            basis[row] = pivot_col
        else:
            keep.remove(row)
    if len(keep) < m:
        A = A[keep]
        b = b[keep]
        basis = [basis[i] for i in keep]
    if any(v >= n for v in basis):
        raise NumericalBreakdown("an artificial variable stayed in the phase-one basis")
    return True, A, b, basis, keep


def _solve_standard_form(A, b, c, tol, max_pivots=None):
    """min c.v s.t. Av = b, v >= 0.

    Returns (status, v, y, row_kept, signs) where y are duals of the reduced
    row system, row_kept maps reduced rows to original rows, and signs holds
    the +-1 row flips applied to make the right-hand side nonnegative.
    """
    m, n = A.shape
    if max_pivots is None:
        max_pivots = 200 + 50 * (m + n)
    signs = np.where(b < 0, -1.0, 1.0)
    feasible, A1, b1, basis, kept = _phase_one(A.copy(), b.copy(), tol, max_pivots)
    if not feasible:
        return "infeasible", None, None, None, None
    status = _bland_iterate(A1, b1, c, basis, range(n), tol, max_pivots)
    if status == "unbounded":
        return "unbounded", None, None, None, None
    if A1.shape[0]:
        lu = lu_factor(A1[:, basis], check_finite=False)
        x_b = lu_solve(lu, b1, check_finite=False)
        y = lu_solve(lu, c[basis], trans=1, check_finite=False)
    else:
        x_b = np.zeros(0)
        y = np.zeros(0)
    v = np.zeros(n)
    v[basis] = np.maximum(x_b, 0.0)
    return "optimal", v, y, np.array(kept, dtype=int), signs


def solve_lp(lp: LinearProgram, tol: Tolerances = DEFAULT_TOL) -> SolveStatus:
    """Solve a dense LP, classifying optimal / infeasible / unbounded exactly.

    Free variables are split into positive and negative parts and slack
    variables close the inequalities; see the class docstring of
    `SolveStatus` for the dual convention.
    """
    n = lp.num_vars
    m_ineq = lp.ineq_lhs.shape[0]
    m_eq = lp.eq_lhs.shape[0]
    c_user = lp.objective if lp.sense == "minimize" else -lp.objective
    A_rows = np.vstack([lp.ineq_lhs, lp.eq_lhs])
    rhs = np.concatenate([lp.ineq_rhs, lp.eq_rhs])
    slack = np.vstack([np.eye(m_ineq), np.zeros((m_eq, m_ineq))])
    A_std = np.hstack([A_rows, -A_rows, slack])
    c_std = np.concatenate([c_user, -c_user, np.zeros(m_ineq)])
    status, v, y_red, row_kept, signs = _solve_standard_form(A_std, rhs, c_std, tol.feas)
    if status == "infeasible":
        inf_value = math.inf if lp.sense == "minimize" else -math.inf
        return SolveStatus(status="infeasible", value=inf_value)
    if status == "unbounded":
        unb_value = -math.inf if lp.sense == "minimize" else math.inf
        return SolveStatus(status="unbounded", value=unb_value)
    x = v[:n] - v[n : 2 * n]
    value_internal = float(c_user @ x)
    duals = np.zeros(m_ineq + m_eq)
    for pos, orig_row in enumerate(row_kept):
        duals[orig_row] = signs[orig_row] * y_red[pos]
    if lp.sense == "maximize":
        duals = -duals
        value = -value_internal
    else:
        value = value_internal
    return SolveStatus(status="optimal", value=value, point=x, dual=duals)


def solve_feasibility(eq_lhs, eq_rhs, ineq_lhs, ineq_rhs,
                      tol: Tolerances = DEFAULT_TOL) -> SolveStatus:
    """Phase-one feasibility oracle for {Ex = d, Ax <= b}.

    Returns status "optimal" with a witness point, or "infeasible".
    """
    E = np.asarray(eq_lhs, dtype=float)
    A = np.asarray(ineq_lhs, dtype=float)
    if E.size == 0 and A.size == 0:
        raise DimensionMismatch("feasibility system needs at least one row")
    n = E.shape[1] if E.size else A.shape[1]
    E = _as_matrix(E if E.size else [], n, "eq_lhs")
    d = _as_vector(eq_rhs if E.shape[0] else [], E.shape[0], "eq_rhs")
    A = _as_matrix(A if A.size else [], n, "ineq_lhs")
    b = _as_vector(ineq_rhs if A.shape[0] else [], A.shape[0], "ineq_rhs")
    m_ineq = A.shape[0]
    rows = np.vstack([A, E])
    rhs = np.concatenate([b, d])
    slack = np.vstack([np.eye(m_ineq), np.zeros((E.shape[0], m_ineq))])
    A_std = np.hstack([rows, -rows, slack])
    max_pivots = 200 + 50 * (A_std.shape[0] + A_std.shape[1])
    feasible, A1, b1, basis, _ = _phase_one(A_std, rhs.copy(), tol.feas, max_pivots)
    if not feasible:
        return SolveStatus(status="infeasible", value=math.inf)
    if A1.shape[0]:
        lu = lu_factor(A1[:, basis], check_finite=False)
        x_b = lu_solve(lu, b1, check_finite=False)
    else:
        x_b = np.zeros(0)
    v = np.zeros(A_std.shape[1])
    v[basis] = np.maximum(x_b, 0.0)
    x = v[:n] - v[n : 2 * n]
    return SolveStatus(status="optimal", value=0.0, point=x)


def feasible_witness(S: PolyhedralSet, tol: Tolerances = DEFAULT_TOL) -> np.ndarray | None:
    """Phase-one point of S under `tol`, or None when S is empty.

    Phase one reads only `tol.feas`, so it runs once per (S, tol.feas); the
    outcome stays in `S._cache`.  The point is the cached array itself,
    read-only: copy it before handing it out.  A set without rows is
    witnessed by the origin.
    """
    key = ("witness", tol.feas)
    if key not in S._cache:
        if S.num_eq + S.num_ineq == 0:
            point = np.zeros(S.ambient_dim)
        else:
            res = solve_feasibility(S.eq_lhs, S.eq_rhs, S.ineq_lhs, S.ineq_rhs, tol)
            point = res.point
        if point is not None:
            point.setflags(write=False)
        S._cache[key] = point
    return S._cache[key]


def _active_rows(A, b, z, tol):
    if A.shape[0] == 0:
        return []
    resid = b - A @ z
    return [i for i in range(A.shape[0]) if abs(resid[i]) <= tol]


def solve_projection_qp(problem: QpProjectionProblem,
                        tol: Tolerances = DEFAULT_TOL,
                        start=None) -> np.ndarray:
    """Euclidean projection of `problem.target` onto `problem.feasible_set`.

    If the target u is feasible it is returned at once, and a pure box
    constraint system short-circuits to coordinate clipping.  Otherwise a
    primal active-set method runs from `start`, a point of the set whose
    tight rows form the first working set.  When `start` is None or lies
    outside the set by more than tol.feas * (1 + ||u||), the iteration
    starts from the set's cached phase-one witness (`feasible_witness`)
    instead.  Ties in blocking-constraint selection and in the drop rule
    are broken by lowest row index.

    Raises EmptySet when the feasible set is empty.
    """
    u = problem.target
    S = problem.feasible_set
    scale = 1.0 + float(np.linalg.norm(u))
    if S.contains(u, tol.feas * scale):
        return u.copy()
    bounds = S.box_bounds()
    if bounds is not None:
        lo, hi = bounds
        if np.any(lo > hi + tol.feas):
            raise EmptySet("projection onto an empty box")
        return np.minimum(np.maximum(u, lo), np.minimum(hi, np.maximum(lo, hi)))
    E, d = S.eq_lhs, S.eq_rhs
    A, b = S.ineq_lhs, S.ineq_rhs
    if start is None or not S.contains(start, tol.feas * scale):
        start = feasible_witness(S, tol)
        if start is None:
            raise EmptySet("projection onto an empty polyhedron")
    z = np.array(start, dtype=float)
    working = _active_rows(A, b, z, tol.feas * scale)
    k_eq = E.shape[0]
    step_tol = 1e-11 * scale
    max_iters = 50 * (A.shape[0] + k_eq + u.size + 10)
    for _ in range(max_iters):
        G = np.vstack([E, A[working]]) if (k_eq + len(working)) else np.zeros((0, u.size))
        h = np.concatenate([d, b[working]])
        if G.shape[0] == 0:
            z_eq = u.copy()
        else:
            gram = G @ G.T
            nu = np.linalg.lstsq(gram, G @ u - h, rcond=None)[0]
            z_eq = u - G.T @ nu
        p = z_eq - z
        if np.linalg.norm(p) <= step_tol:
            if not working:
                return z
            w = np.linalg.lstsq(G.T, u - z, rcond=None)[0]
            drop = -1
            for pos, row in enumerate(working):
                if w[k_eq + pos] < -tol.opt:
                    drop = row
                    break
            if drop < 0:
                return z
            working.remove(drop)
            continue
        alpha = 1.0
        blocking = -1
        for i in range(A.shape[0]):
            if i in working:
                continue
            rate = A[i] @ p
            if rate > _PIVOT_TOL:
                room = max(b[i] - A[i] @ z, 0.0) / rate
                if room < alpha - 1e-14:
                    alpha = room
                    blocking = i
        z = z + alpha * p
        if blocking >= 0:
            working.append(blocking)
            working.sort()
    raise NumericalBreakdown("projection active-set iteration cap exhausted")
