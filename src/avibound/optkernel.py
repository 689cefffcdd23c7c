"""Dense LP / feasibility / projection-QP kernel.

Everything downstream (geometry, multifunction gaps, piece enumeration)
reduces to the three solvers in this module.  All three take their rows as
one `PolyhedralSet`, their first argument, and no tolerance: a point counts
as feasible within `FEAS_TOL`.  Instances are desk-scale (n + m up to
~100), so the pivots are chosen for determinism and exact classification,
each kept cheap:

- `solve_lp(S, objective)`: minimizes, by two-phase dense revised simplex
  with Bland's rule for anti-cycling, whose phase one starts from the slack
  basis: an inequality row with rhs >= 0 starts with its slack basic, and
  only equality rows and rows with rhs < 0 start with an artificial
  (Bixby 1992's crash basis).
- `solve_feasibility`: phase one only, from the all-artificial basis or,
  on request, the slack basis, returning a witness point (the origin, for
  a set without rows), or for an empty set the Farkas ray read off phase
  one's final basis.
- `solve_projection_qp(S, u)`: a lookup of the set's most recently used
  optimal cells, then Goldfarb & Idnani's (1983) dual active-set method
  for the strictly convex problem min ||z - u||^2 over a polyhedron, which
  starts from u itself: it needs no feasible point, and asks phase one
  only when a violated row depends on its working rows with none to drop.

The two simplex solves share one pipeline: `_standard_form` writes the
rows once as {A_std v = rhs, v >= 0} with its slack columns and pivot
budget, `_phase_one` finds a feasible basis (and is all
`solve_feasibility` runs), and `_basic_point` reads x off the final basis.

`feasible_witness` is the one place that decides whether a set is empty
and which point it holds; `polyhedra.is_nonempty`, `feasible_point`,
`enumerate_vertices` and the projection take its answer.  A
box (every row on one coordinate) is read off its bounds with no phase
one.  Any other set runs phase one, and which basis it starts from depends on what
the caller reads.  An LP returns only its final vertex, and
`feasible_witness` only a verdict and some point of the set, so both start
from the slack basis, which is often feasible at once (for a set holding
the origin) and proves most empty sets in fewer pivots.
`solve_feasibility` starts from the all-artificial basis by default
because its one direct caller, `gpm._domain_witness`, reads the point
itself: the domain sampler is centered on that vertex.  The other
all-artificial phase one is `feasible_witness`'s fallback, when the slack
start ends outside the set.  Every feasibility phase one, the cached one
included, goes through `solve_feasibility`.

Every simplex basis is factored by `lu_factor` and solved by `lu_solve`,
which call LAPACK getrf/getrs directly, without scipy's batching and
array-API checks; the factors, and hence the pivots, are those of
`scipy.linalg.lu_factor`/`lu_solve`.  A pivot then costs one
factorization, three solves with its factors, one vectorized scan for the
entering column and a ratio test over Python floats.  This module is the
only one that imports from `scipy.linalg`.

The projection calls LAPACK the same way: each working set its loop
visits gets one Gram solve, `_gram_solve`, a Cholesky factorization
(potrf/potrs) of the working rows' Gram matrix.  A row joins the working
set only when the grown set's factor passes potrf's rule (no pivot below
1e-10 of the largest, squared), so the working rows stay independent.
The rows are stacked once per set (`_projection_rows`) and indexed by the
working set.

Almost every projection the solvers make ends in the screen of its target
or in a kept cell (below), where the work is a few products and tests on
vectors of 2 to 7 entries and numpy's per-call dispatch costs more than
the arithmetic.  So the hot path (`solve_projection_qp`, `_satisfies_rows`,
`avi.residual` and the loop of `solvers.solve`) makes every product by
`ndarray.dot`, which calls the same BLAS gemv or ddot as `@` on the same
operands, at about half its dispatch cost, and so keeps every bit; and it
tests Python floats, `min` and `max` over `.tolist()`, where numpy's
`.max()` and `.all()` ran.  Python's `min` and `max` skip a NaN that is not
first, so each test also checks for one by a sum that is NaN when an entry
is.  A NaN is never a pass: a NaN residual (a row whose products overflow
both ways) is a violated row, in the row test and in the loop alike, and a
NaN multiplier or slack fails a kept cell.  Every vector the hot path
takes as handed is C-contiguous (`sets._screened` copies any other), so
its bits do not depend on its memory layout.  `_gram_solve` keeps
`G @ G.T`, which BLAS may compute by syrk, so `.dot` need not match it.

A set's cache holds what its solves would otherwise repeat: its phase-one
point, its box bounds, its stacked rows and its most recently used optimal
cells.  `feasible_witness` decides a set at most once and keeps its point
(or None for an empty set), and nothing else writes that entry.  A
projection whose loop ends on a working set keeps that working set's cell
with its Cholesky factor (`_keep_cell`): P_C is piecewise
affine, and the solvers project onto one C again and again with targets
that move little, so the next target usually lies in a cell the set has
seen.  An extragradient step alternates between two such cells, that of
the residual's target x - (M x + q) and that of the step's x - a (M y + q),
so the set keeps `_CELLS` of them, most recently used first.  The
projection tries each kept cell in that order, with one potrs on its
factor and a KKT test, moves the cell that passes to the front, and runs
the dual loop only when every kept cell fails.  Both paths return the KKT
point of their working set, computed by the same products from the same
factor (potrf is deterministic), and the test's margins rule out every
other working set at which the loop could stop, whichever kept cell is
tried.  The loop starts from the target alone and ends (the dual objective
rises at every step that moves its iterate, so no working set repeats), so
a projection P_S(u) is a function of S's rows and u alone: it does not
depend on the projections that ran before it or on who asks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import EmptySet, NumericalBreakdown
from .sets import PolyhedralSet, _as_vector, _satisfies_rows, _screened

# The feasibility slack of every solve: phase one calls a set empty when its
# artificials sum to more than FEAS_TOL, Bland's rule stops once no reduced
# cost is below -FEAS_TOL, and the projection accepts a point (its target or
# a tight row) within FEAS_TOL * (1 + ||target||).  `polyhedra` and
# `avi` read it where they mirror the kernel's acceptance.
FEAS_TOL = 1e-9
_PIVOT_TOL = 1e-10
# A set keeps the optimal cells of this many working sets, most recently
# used first (`_keep_cell`).
_CELLS = 4

_getrf, _getrs, _potrf, _potrs, _trtri = get_lapack_funcs(
    ("getrf", "getrs", "potrf", "potrs", "trtri"), dtype=np.float64
)


def lu_factor(a):
    """LU factors (lu, piv) of the square matrix `a`, as scipy's lu_factor.

    An exactly zero pivot is not an error here: solving with the factors
    then yields inf/nan, which the simplex turns into NumericalBreakdown.
    """
    lu, piv, info = _getrf(a)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    return lu, piv


def lu_solve(lu_piv, b, trans=0):
    """Solve a x = b (trans=0) or a^T x = b (trans=1) from `lu_factor(a)`."""
    lu, piv = lu_piv
    x, info = _getrs(lu, piv, b, trans=trans)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    return x


@dataclass(frozen=True)
class SolveStatus:
    """Outcome of an LP / feasibility solve.

    `point` is present exactly when status == "optimal".  `dual` is ordered
    [inequalities..., equalities...].  For an optimal LP it holds the row
    multipliers, with the convention value == ineq_rhs . dual_ineq +
    eq_rhs . dual_eq; every LP minimizes, so inequality multipliers are
    <= 0, an infeasible LP has value +inf and an unbounded one -inf.  For
    status "infeasible" (an LP or a feasibility solve) it is the Farkas ray
    z of the rows: rows^T z = 0 and z_ineq <= 0 up to FEAS_TOL, and
    rhs . z > 0.  Each solve reads its ray off its own phase one, and an
    LP's (like the cached witness's) starts from the slack basis, so it may
    report another ray than the all-artificial start of `solve_feasibility`
    over the same rows.  A feasibility solve that finds a point, and an
    unbounded LP, carry no `dual`.
    """

    status: str
    value: float
    point: np.ndarray | None = None
    dual: np.ndarray | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def _bland_iterate(A, b, c, basis, num_enterable, max_pivots):
    """Revised simplex loop on min c.v s.t. Av = b, v >= 0 with Bland's rule.

    Only the first `num_enterable` columns may enter the basis.  `basis` is
    mutated in place.  Returns "optimal" or "unbounded".
    """
    m, n = A.shape
    if m == 0:
        return "optimal" if np.all(c[:num_enterable] >= -FEAS_TOL) else "unbounded"
    nonbasic = np.ones(n, dtype=bool)
    nonbasic[basis] = False
    for _ in range(max_pivots):
        lu = lu_factor(A[:, basis])
        x_b = lu_solve(lu, b)
        if not np.isfinite(x_b).all():  # a singular basis solves to inf/nan
            raise NumericalBreakdown("singular or non-finite simplex basis")
        y = lu_solve(lu, c[basis], trans=1)
        reduced = c - A.T @ y
        candidates = nonbasic[:num_enterable] & (reduced[:num_enterable] < -FEAS_TOL)
        entering = int(candidates.argmax())
        if not candidates[entering]:
            return "optimal"
        direction = lu_solve(lu, A[:, entering]).tolist()
        x_b = x_b.tolist()
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
        nonbasic[basis[leave_row]] = True
        nonbasic[entering] = False
        basis[leave_row] = entering
    raise NumericalBreakdown("simplex pivot budget exhausted")


def _phase_one(A, b, max_pivots, slacks=()):
    """Find a basic feasible point of {Av = b, v >= 0} via artificials.

    Each row is flipped to b_i >= 0.  A row i < len(slacks) whose b_i was
    already >= 0 starts with column slacks[i], its slack (a unit column),
    basic at b_i; every other row starts with its artificial.  So with
    `slacks` phase one starts from the slack basis, without it from the
    all-artificial one; the Bland iteration from there is the same.

    Returns (ray, A, b, basis, kept_rows).  When the artificials cannot be
    driven below FEAS_TOL, the system is empty and `ray` is the phase-one
    dual z of the final basis, read off its LU factors and with the row
    flips undone: A^T z <= 0 up to FEAS_TOL and b . z > 0, the Farkas
    certificate of emptiness.  Otherwise `ray` is None, redundant rows are
    dropped and all artificial columns are eliminated from the basis.
    """
    m, n = A.shape
    signs = np.where(b < 0, -1.0, 1.0)
    A = A * signs[:, None]
    b = b * signs
    full = np.hstack([A, np.eye(m)])
    cost = np.concatenate([np.zeros(n), np.ones(m)])
    basis = [col if signs[i] > 0 else n + i for i, col in enumerate(slacks)]
    basis += range(n + len(basis), n + m)
    status = _bland_iterate(full, b, cost, basis, n, max_pivots)
    if status != "optimal":  # the phase-one objective is bounded below by 0
        raise NumericalBreakdown(f"phase one reported {status}")
    if m:
        lu = lu_factor(full[:, basis])
        x_b = lu_solve(lu, b)
    else:
        x_b = np.zeros(0)
    infeas = sum(max(x_b[i], 0.0) for i in range(m) if basis[i] >= n)
    if infeas > FEAS_TOL:
        ray = signs * lu_solve(lu, cost[basis], trans=1)
        return ray, A, b, basis, list(range(m))
    # Pivot artificials out of the basis; a row where no original column can
    # pivot is linearly dependent on the others and gets dropped.
    keep = list(range(m))
    for row in range(m):
        if basis[row] < n:
            continue
        lu = lu_factor(full[:, basis])
        e_row = np.zeros(m)
        e_row[row] = 1.0
        w = lu_solve(lu, e_row, trans=1)
        tableau_row = (full[:, :n].T @ w).tolist()
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
    return None, A, b, basis, keep


def _standard_form(S: PolyhedralSet):
    """S = {Ex = d, Ax <= b} as {A_std v = rhs, v >= 0}, with its slack
    columns and its pivot budget.

    The free x splits as x+ - x- and a slack closes each inequality, so
    v = [x+, x-, slack] and the inequality rows come first; `slacks[i]` is
    the column of inequality row i's slack.
    """
    n, k = S.ambient_dim, S.num_ineq
    rows = np.vstack([S.ineq_lhs, S.eq_lhs])
    slack = np.vstack([np.eye(k), np.zeros((S.num_eq, k))])
    A_std = np.hstack([rows, -rows, slack])
    rhs = np.concatenate([S.ineq_rhs, S.eq_rhs])
    slacks = range(2 * n, 2 * n + k)
    return A_std, rhs, slacks, 200 + 50 * (A_std.shape[0] + A_std.shape[1])


def _basic_point(A, b, basis, n):
    """(x, LU factors of A[:, basis]) for the basic point of `basis`.

    x = x+ - x- over the first 2n standard-form columns, with each basic
    value clipped at 0.  The factors are None when no row is left.
    """
    v = np.zeros(A.shape[1])
    lu = None
    if A.shape[0]:
        lu = lu_factor(A[:, basis])
        v[basis] = np.maximum(lu_solve(lu, b), 0.0)
    return v[:n] - v[n : 2 * n], lu


def solve_lp(S: PolyhedralSet, objective) -> SolveStatus:
    """Minimize `objective` . x over x in S, classifying optimal /
    infeasible / unbounded exactly; to maximize c, minimize -c.  The
    variables are free reals; sign restrictions go in as inequality rows of
    S.

    The objective goes through `_as_vector`, which copies it into C order,
    so its memory layout does not change the bits; an LP costs far more
    than that copy.

    Phase one on the standard form from the slack basis, then Bland pivots
    on the objective; see the class docstring of `SolveStatus` for the dual
    convention.  Raises NumericalBreakdown when the final point misses a row
    by more than FEAS_TOL (1 + ||x||), the rule `feasible_witness` applies.
    """
    n = S.ambient_dim
    c = _as_vector(objective, n, "objective")
    A_std, rhs, slacks, budget = _standard_form(S)
    c_std = np.concatenate([c, -c, np.zeros(S.num_ineq)])
    ray, A1, b1, basis, kept = _phase_one(A_std, rhs, budget, slacks)
    if ray is not None:
        return SolveStatus(status="infeasible", value=math.inf, dual=ray)
    if _bland_iterate(A1, b1, c_std, basis, A_std.shape[1], budget) == "unbounded":
        return SolveStatus(status="unbounded", value=-math.inf)
    x, lu = _basic_point(A1, b1, basis, n)
    if not _satisfies_rows(S, x, FEAS_TOL * (1.0 + math.sqrt(x @ x))):
        # a final basis that lost primal feasibility on near-parallel rows,
        # which `_basic_point` clipped to a point outside the set
        raise NumericalBreakdown("simplex ended at a point that violates a row")
    value = float(c @ x)
    # duals of the kept rows, undoing phase one's flips to a nonnegative rhs
    duals = np.zeros(A_std.shape[0])
    if lu is not None:
        signs = np.where(rhs < 0, -1.0, 1.0)
        duals[kept] = signs[kept] * lu_solve(lu, c_std[basis], trans=1)
    return SolveStatus(status="optimal", value=value, point=x, dual=duals)


def solve_feasibility(S: PolyhedralSet, *, slack_start: bool = False) -> SolveStatus:
    """Phase-one feasibility oracle for S.

    Returns status "optimal" with a witness point, or "infeasible" with the
    Farkas ray as `dual`.  A set without rows is witnessed by the origin.
    Phase one starts from the all-artificial basis unless `slack_start`,
    and the witness is the vertex that start leads to.  `gpm`'s domain
    sampler, which is centered on that point, takes the all-artificial
    start, as does `feasible_witness` when its slack start ends outside S.
    The cached `feasible_witness`, which needs only a verdict or some point
    of S, takes the slack start.
    """
    A_std, rhs, slacks, budget = _standard_form(S)
    ray, A1, b1, basis, _ = _phase_one(A_std, rhs, budget, slacks if slack_start else ())
    if ray is not None:
        return SolveStatus(status="infeasible", value=math.inf, dual=ray)
    point = _basic_point(A1, b1, basis, S.ambient_dim)[0]
    return SolveStatus(status="optimal", value=0.0, point=point)


def feasible_witness(S: PolyhedralSet) -> np.ndarray | None:
    """A point of S, or None when S is empty: the one place that decides
    both, kept in `S._cache` once per set.

    A box (`S.box_bounds()`) is read in closed form: empty when some
    lo_j > hi_j + FEAS_TOL, and otherwise witnessed by the origin clipped
    into [lo, hi], with no phase one.  Any other set runs phase one from the
    slack basis, as an LP's does: an inequality row with rhs >= 0 starts
    with its slack basic, so a set of inequality rows that holds the origin
    is witnessed by the origin without a pivot, and an empty set is usually
    proved so in fewer pivots than from the all-artificial start.  A point
    that misses a row of S by more than FEAS_TOL (1 + ||x||) is not kept:
    the point is then that of the all-artificial start.  The point is the
    cached array itself, read-only: copy it before handing it out.
    """
    if "phase one" not in S._cache:
        bounds = S.box_bounds()
        if bounds is not None:
            lo, hi = bounds
            x = None if np.any(lo > hi + FEAS_TOL) else np.minimum(np.maximum(0.0, lo), hi)
        else:
            x = solve_feasibility(S, slack_start=True).point
            if x is not None and not _satisfies_rows(S, x, FEAS_TOL * (1.0 + math.sqrt(x @ x))):
                # on near-parallel rows the final basis can lose primal
                # feasibility, and `_basic_point` then clips its way to a
                # point outside S; the all-artificial start is the fallback
                x = solve_feasibility(S).point
        if x is not None:
            x.setflags(write=False)
        S._cache["phase one"] = x
    return S._cache["phase one"]


def _projection_rows(S: PolyhedralSet):
    """(rows, rhs, lengths) of S: rows = [eq_lhs; ineq_lhs] and
    rhs = [eq_rhs; ineq_rhs], the rows the projection indexes by its working
    set, and each row's length, which the cell's margins and
    `polyhedra.hausdorff`'s bounds read; computed once per set and kept,
    read-only, in `S._cache`."""
    stacked = S._cache.get("projection rows")
    if stacked is None:
        rows = np.vstack([S.eq_lhs, S.ineq_lhs])
        rhs = np.concatenate([S.eq_rhs, S.ineq_rhs])
        lengths = np.sqrt(np.square(rows).sum(axis=1))
        for array in (rows, rhs, lengths):
            array.setflags(write=False)
        stacked = S._cache["projection rows"] = (rows, rhs, lengths)
    return stacked


def _gram_solve(G, rhs):
    """(nu, U) with G G^T nu = rhs: the Gram solve of the projection's rows
    G, by Cholesky (LAPACK potrf/potrs), U the upper factor.  None when
    potrf fails or a pivot U_ii^2 is below 1e-10 of the largest, potrf's
    rule: the rows then count as dependent, and the loop does not take them
    as its working set.  A NaN pivot fails the rule too."""
    factor, info = _potrf(G @ G.T)
    pivots = np.square(factor.diagonal())
    if info or not pivots.min() >= 1e-10 * pivots.max():
        return None
    return _potrs(factor, rhs)[0], factor


def _cell(S, G, h, U, working, lengths):
    """The cell of the working set W on which a projection ended (rows G,
    right-hand side h, Cholesky factor U, inequality rows `working`), with
    what the lookup's margins read (see `solve_projection_qp`): W's key
    (the bytes of `working`), the rows outside W with their right-hand
    sides, the length L of S's longest row, and `floor` =
    FEAS_TOL sqrt(|W|) trace((G G^T)^{-1}), the trace being ||U^{-1}||_F^2."""
    inverse, _ = _trtri(U)
    floor = FEAS_TOL * math.sqrt(G.shape[0] - S.num_eq) * float(np.square(inverse).sum())
    outside = ~working
    return (working.tobytes(), G, h, U, floor, S.ineq_lhs[outside], S.ineq_rhs[outside],
            float(lengths.max(initial=0.0)))


def _keep_cell(S, cell):
    """Put `cell` first in `S._cache["cells"]`, the set's kept cells, most
    recently used first: a tuple, so no reader can reorder it in place.  A
    kept cell of the same working set goes, and so does the oldest beyond
    `_CELLS`.  Both the loop's new cell and the lookup's hit on a cell that
    is not first come through here."""
    key = cell[0]
    kept = S._cache.get("cells", ())
    S._cache["cells"] = (cell, *(c for c in kept if c[0] != key))[:_CELLS]


def solve_projection_qp(S: PolyhedralSet, u) -> np.ndarray:
    """Euclidean projection of the target `u` onto `S`.

    Callers compute u from validated arrays, so it is screened by
    `_screened`, not scanned, and ||u|| comes from the screen's u.u; a
    target that is not C-contiguous is copied, so its bits do not depend on
    its memory layout.

    If the target u holds every row within tol = FEAS_TOL (1 + ||u||) it is
    returned at once, and a box (`S.box_bounds()`) short-circuits to
    coordinate clipping, once `feasible_witness` has found it nonempty.
    Otherwise the set's kept optimal cells are tried, most recently used
    first, and the dual loop runs only when every one fails.

    P_C is piecewise affine: on the cell where the working set W is optimal,
    P_C(u) = u - G^T (G G^T)^{-1} (G u - h) for W's rows G z = h (every
    equality row and the inequality rows of W).  The loop keeps the cell of
    the working set it ends on (`_cell`, `_keep_cell`): G, h, the Cholesky
    factor and the inequality rows outside W; the set keeps the `_CELLS`
    most recently used.  The lookup makes one potrs on a kept cell's factor,
    nu = (G G^T)^{-1} (G u - h), and w = u - G^T nu, and accepts w only with
    the strict margins derived below: every inequality multiplier nu_i of W
    above (1 + ||u||) FEAS_TOL sqrt(|W|) trace((G G^T)^{-1}), and every row
    a_j z <= b_j outside W slack at w by more than tol + L sqrt(E), with
    E = tol sum_W nu_i and L the length of S's longest row.  A cell that is
    accepted moves to the front; one that fails hands the target to the
    next.

    The loop is Goldfarb & Idnani's (1983) dual active-set method for the
    identity Hessian.  It starts at w = u with no working row, takes up the
    equality rows in order, and then, while some inequality row is violated
    by more than tol at W's KKT point w, the most violated one, a_p (the
    lowest on ties).  A step moves the multipliers linearly toward nu, those
    of W + p (`_gram_solve` of its rows in S's order): a full step gets
    there, adds a_p and moves w to u - G^T nu, the KKT point a hit computes;
    a partial one stops where the first inequality multiplier of W reaches
    0 and drops that row.  So the multipliers stay >= 0, and the working
    rows independent: a_p joins only when the factor of W + p passes
    potrf's rule.  When it fails, a_p = G^T r for W's rows, and a step moves
    only the multipliers (W's by -t r, a_p's by t) until one of W's reaches
    0.  When none can, r <= 0 on W's inequality rows would be a Farkas
    certificate if a_p were exactly G^T r, but potrf's rule also passes
    rows some 1e-5 apart in angle as dependent, and then r only shows that
    S has no point within v / ||a_p - G^T r|| of w, v being a_p's
    violation.  So `feasible_witness` decides: EmptySet when it finds S
    empty, and NumericalBreakdown when it does not (the optimal working set
    then holds rows too near to dependent for potrf's rule, as at the thin
    end of a slab between near-parallel rows).  A dependent equality row
    within tol is implied by those before it and is skipped, and a loop
    that skips one keeps no cell.  The loop tests the rows at the w it
    returns, where a NaN residual (products that overflow both ways) is a
    violation, as in the screen's `_satisfies_rows`, and a point that is
    not finite raises NumericalBreakdown.  In exact arithmetic the loop
    ends (the dual objective rises at every step that moves the primal
    iterate, so no working set repeats); its iteration cap raises
    NumericalBreakdown.

    So P_S(u) depends only on S's rows and u: the loop is a function of
    (S, u), and where the lookup accepts any kept cell W, a loop that ends
    with a point ends on W too, so a hit returns the loop's bits, whatever
    history left W among the kept cells and in whichever place (where the
    loop raises NumericalBreakdown, a kept cell may still answer).  Say the
    loop ended on W' != W instead, with point w' and multipliers nu' (>= 0
    on inequality rows); let d = w' - w, and P = W \\ W' and Q = W' \\ W
    (inequality rows).  From u - w = G_W^T nu and u - w' = G_W'^T nu',

        ||d||^2 = sum_P nu_i a_i.d - sum_Q nu'_j a_j.d.

    For j in Q, a_j.d is j's slack at w, and nu'_j >= 0.  For i in P, a_i.d
    is i's violation at w', at most tol where the loop stops.  So
    ||d||^2 <= E, and every j in Q is slack at w by at most
    ||a_j|| ||d|| <= L sqrt(E), which the slack margin rules out.  If Q is
    empty, d = G_W^T (nu - nu') with nu' zero on P, so
    ||nu_P||^2 / trace((G G^T)^{-1}) <= ||d||^2 <= tol sqrt(|W|) ||nu_P||,
    which the multiplier margin rules out.  The argument runs in exact
    arithmetic on the points both paths return; the margin's tol term is
    room for their rounding.  It reads only W's rows and u, not the cell's
    place among the kept ones; where the margins fail for every kept cell,
    the lookup misses and the loop decides, as on a fresh set.

    Raises EmptySet only when `feasible_witness` finds S empty, which the
    projection asks on its box path and where the loop has no row to drop.
    """
    n = S.ambient_dim
    u, dot = _screened(u, n, "target")
    scale = 1.0 + math.sqrt(dot)
    tol = FEAS_TOL * scale
    if _satisfies_rows(S, u, tol):
        return u.copy()
    bounds = S.box_bounds()
    if bounds is not None:
        if feasible_witness(S) is None:
            raise EmptySet("projection onto an empty box")
        lo, hi = bounds
        return np.minimum(np.maximum(u, lo), hi)
    k_eq = S.num_eq
    # the kept cells, most recent first: one potrs on each cell's factor,
    # accepted with the margins the docstring derives
    for rank, cell in enumerate(S._cache.get("cells", ())):
        _, G, h, U, floor, outside, room, longest = cell
        nu = _potrs(U, G.dot(u) - h)[0]
        w = u - nu.dot(G)
        mu = nu[k_eq:].tolist()
        if not mu or min(mu) > scale * floor:
            energy = sum(mu)
            margin = tol + longest * math.sqrt(tol * energy)
            slack = (room - outside.dot(w)).tolist()
            # min skips a NaN that is not first; every other entry passed
            # a positive bound, so the sum is NaN exactly when one is
            if (not slack or min(slack) > margin) and not math.isnan(energy + sum(slack)):
                if rank:
                    _keep_cell(S, cell)
                return w
    rows, rhs, lengths = _projection_rows(S)
    index = np.arange(rhs.size)  # over `rows`: equality rows first
    working = np.zeros(rhs.size, dtype=bool)
    lam = np.zeros(rhs.size)  # the multipliers of the working rows and of row p
    w, p, joined = u, -1, 0  # w: W's KKT point; p: the row being added
    for _ in range(50 * (rhs.size + n + 10)):
        if p < 0:
            # every equality row joins, in order, then the most violated
            # inequality row (the lowest on ties)
            gaps = S.ineq_lhs.dot(w) - S.ineq_rhs
            if joined < k_eq:
                p, joined = joined, joined + 1
            elif not gaps.max(initial=0.0) <= tol:  # a NaN gap is a violation
                p = k_eq + int(gaps.argmax())
            else:
                if working[:k_eq].all():
                    _keep_cell(S, _cell(S, *kkt, working[k_eq:], lengths))
                return w
        grown = working | (index == p)
        G, h = rows[grown], rhs[grown]
        solved = _gram_solve(G, G.dot(u) - h)
        if solved is not None:
            # the multipliers move linearly to those of W + p, nu; a full step
            # gets there, and a partial one stops where the first inequality
            # multiplier of W reaches 0, and drops its row
            nu, U = solved
            now, rank = lam[grown], index[grown]
            falling = (nu < 0.0) & (rank >= k_eq) & (rank != p)
            if not falling.any():
                working, lam[grown], p = grown, np.maximum(nu, 0.0), -1
                w, kkt = u - nu.dot(G), (G, h, U)
                if not np.isfinite(w).all():  # w is the point the loop returns
                    raise NumericalBreakdown("projection reached a non-finite point")
                continue
            ratios = now[falling] / (now[falling] - nu[falling])
            lam[grown] = np.maximum(now + ratios.min() * (nu - now), 0.0)
            k = rank[falling][ratios.argmin()]
        else:
            # a_p = G^T r for W's rows G: a step moves only the multipliers
            a = rows[p]
            if p < k_eq and abs(a.dot(w) - rhs[p]) <= tol:
                p = -1  # an equality row the working ones imply
                continue
            G = rows[working]
            solved = _gram_solve(G, G.dot(a)) if working.any() else (np.zeros(0), None)
            if solved is None:  # a drop left W's factor below potrf's rule
                raise NumericalBreakdown("projection working rows became dependent")
            r = solved[0]
            droppable = (r > 0.0) & (index[working] >= k_eq)
            if not droppable.any():
                # r <= 0 on inequality rows is a Farkas ray only if a_p is
                # exactly G^T r; potrf's rule also passes rows some 1e-5
                # apart, so phase one decides
                if feasible_witness(S) is None:
                    raise EmptySet("projection onto an empty polyhedron")
                raise NumericalBreakdown("projection rows too near to dependent to join")
            ratios = lam[working][droppable] / r[droppable]
            t = ratios.min()
            lam[working] = np.maximum(lam[working] - t * r, 0.0)
            lam[p] += t
            k = index[working][droppable][ratios.argmin()]
        working[k] = False
        lam[k] = 0.0
    raise NumericalBreakdown("projection active-set iteration cap exhausted")
