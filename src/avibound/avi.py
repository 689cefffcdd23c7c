"""Affine variational inequalities and the natural residual map.

An instance is the data (M, q, C): find x in C with <Mx + q, v - x> >= 0
for all v in C.  The residual R(x) = x - P_C(x - Mx - q) vanishes exactly on
the solution set, and both the solution set and every preimage R^{-1}(y)
decompose into finitely many polyhedral pieces indexed by the active set of
the projection's KKT system.  The piece of pattern I at level y lies in
y + F_I, where F_I = {x in C : A_I x = alpha_I} is a face of C that does not
depend on y, and F_I is empty for every superset of a pattern whose face is
empty.  So one depth-first search per instance, adding rows in increasing
index and pruning at empty faces, finds the patterns worth testing (the face
enumeration behind reverse search, Avis & Fukuda 1992); each level y then
tests only those patterns.  `Caps.subset_budget` bounds the patterns the
search may test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CAPS, DEFAULT_TOL, Caps, Tolerances
from .errors import CapExceeded, DimensionMismatch, EmptySet, NumericalBreakdown, SchemaError
from .optkernel import (
    LinearProgram,
    QpProjectionProblem,
    feasible_witness,
    solve_lp,
    solve_projection_qp,
)
from .polyhedra import PolyhedralSet, cone_generators, is_nonempty, pair_opposites
from .sets import _as_matrix, _as_vector


@dataclass(frozen=True)
class AviInstance:
    """Data (M, q, C) with C in pure inequality form."""

    m_op: np.ndarray
    q: np.ndarray
    c_set: PolyhedralSet

    def __post_init__(self):
        n = self.c_set.ambient_dim
        M = _as_matrix(self.m_op, n, "m_op")
        if M.shape[0] != n:
            raise DimensionMismatch(f"m_op must be {n}x{n}, got {M.shape}")
        q = _as_vector(self.q, n, "q")
        if self.c_set.num_eq:
            raise DimensionMismatch("constraint set must not carry equality rows")
        if not is_nonempty(self.c_set):
            raise EmptySet("constraint set is empty")
        M.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "m_op", M)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_face_templates", {})

    @property
    def dim(self) -> int:
        return self.c_set.ambient_dim

    @property
    def num_constraints(self) -> int:
        return self.c_set.num_ineq

    def to_json_dict(self) -> dict:
        return {
            "M": [[float(v) for v in row] for row in self.m_op],
            "q": [float(v) for v in self.q],
            "C": self.c_set.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AviInstance":
        try:
            return cls(
                m_op=data["M"],
                q=data["q"],
                c_set=PolyhedralSet.from_json_dict(data["C"]),
            )
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed AVI payload: {exc}") from exc


@dataclass(frozen=True)
class ResidualValue:
    r: np.ndarray
    projected_point: np.ndarray
    norm: float


def residual(inst: AviInstance, x, tol: Tolerances = DEFAULT_TOL) -> ResidualValue:
    """Natural residual R(x) = x - P_C(x - Mx - q)."""
    x = _as_vector(x, inst.dim, "x")
    target = x - inst.m_op @ x - inst.q
    projected = solve_projection_qp(QpProjectionProblem(target, inst.c_set), tol)
    r = x - projected
    return ResidualValue(r=r, projected_point=projected, norm=float(np.linalg.norm(r)))


_RAY_BOX_RADIUS = 1e6


def is_solution(inst: AviInstance, x, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Direct check of <Mx + q, v - x> >= 0 for all v in C, via one LP.

    An unbounded objective means a genuine descent ray and fails the check,
    but near a degenerate solution the drift <Mx + q, ray> can be at
    floating-point scale, flipping the LP to "unbounded" spuriously.  Those
    cases are re-solved over C intersected with a huge box around x, which
    turns vanishing drift into a vanishing value gap while leaving real
    descent rays failing by an enormous margin.
    """
    x = _as_vector(x, inst.dim, "x")
    scale = 1.0 + float(np.linalg.norm(x))
    if not inst.c_set.contains(x, tol.cmp * scale):
        return False
    w = inst.m_op @ x + inst.q
    lp = LinearProgram(
        objective=w,
        ineq_lhs=inst.c_set.ineq_lhs,
        ineq_rhs=inst.c_set.ineq_rhs,
    )
    res = solve_lp(lp, tol)
    if res.status == "unbounded":
        n = inst.dim
        radius = _RAY_BOX_RADIUS * scale
        boxed = LinearProgram(
            objective=w,
            ineq_lhs=np.vstack([inst.c_set.ineq_lhs, np.eye(n), -np.eye(n)]),
            ineq_rhs=np.concatenate(
                [inst.c_set.ineq_rhs, x + radius, radius - x]
            ),
        )
        res = solve_lp(boxed, tol)
    if not res.is_optimal:  # C is nonempty by construction
        raise NumericalBreakdown(f"solution-test LP reported {res.status}")
    return res.value >= float(w @ x) - tol.cmp * scale


class _PieceTemplate:
    """y-independent structure of one active pattern's x-space piece.

    The multiplier block is eliminated analytically: lambda >= 0 supported on
    the active rows exists iff y - q - Mx lies in the cone spanned by those
    rows, and that cone's H-description comes from the generators of its
    polar.  Only right-hand sides depend on y afterwards.
    """

    def __init__(self, inst: AviInstance, active: tuple, caps: Caps, tol: Tolerances):
        n, m = inst.dim, inst.num_constraints
        A = inst.c_set.ineq_lhs
        alpha = inst.c_set.ineq_rhs
        self.active = active
        inactive = [i for i in range(m) if i not in set(active)]
        self.ineq_lhs_x = A[inactive] if inactive else np.zeros((0, n))
        self.ineq_base = alpha[inactive] if inactive else np.zeros(0)
        self.ineq_shift = self.ineq_lhs_x  # rhs grows by A[i] . y
        self.eq_lhs_x = A[list(active)] if active else np.zeros((0, n))
        self.eq_base = alpha[list(active)] if active else np.zeros(0)
        self.eq_shift = self.eq_lhs_x
        if active:
            generators = cone_generators(A[list(active)], caps, tol)
        else:
            generators = [row for j in range(n) for row in (np.eye(n)[j], -np.eye(n)[j])]
        cone_eq, cone_ineq = pair_opposites(generators, n, tol)
        M = inst.m_op
        q = inst.q
        # row w of the polar contributes (-M^T w) . x <= w . (q - y)
        self.cone_ineq_lhs = (
            -np.array(cone_ineq) @ M if cone_ineq else np.zeros((0, n))
        )
        self.cone_ineq_w = np.array(cone_ineq) if cone_ineq else np.zeros((0, n))
        self.cone_eq_lhs = -np.array(cone_eq) @ M if cone_eq else np.zeros((0, n))
        self.cone_eq_w = np.array(cone_eq) if cone_eq else np.zeros((0, n))
        self.q = q

    def section(self, y, tol: Tolerances) -> PolyhedralSet | None:
        """x-space piece at level y; None when trivially empty."""
        ineq_lhs = [self.ineq_lhs_x, self.cone_ineq_lhs]
        ineq_rhs = [
            self.ineq_base + self.ineq_shift @ y,
            self.cone_ineq_w @ (self.q - y),
        ]
        eq_lhs = [self.eq_lhs_x, self.cone_eq_lhs]
        eq_rhs = [
            self.eq_base + self.eq_shift @ y,
            self.cone_eq_w @ (self.q - y),
        ]
        A = np.vstack(ineq_lhs)
        b = np.concatenate(ineq_rhs)
        E = np.vstack(eq_lhs)
        d = np.concatenate(eq_rhs)
        keep_ineq, keep_eq = [], []
        for idx in range(A.shape[0]):
            if np.max(np.abs(A[idx])) <= 1e-12:
                if b[idx] < -tol.feas:
                    return None
            else:
                keep_ineq.append(idx)
        for idx in range(E.shape[0]):
            if np.max(np.abs(E[idx])) <= 1e-12:
                if abs(d[idx]) > tol.feas:
                    return None
            else:
                keep_eq.append(idx)
        return PolyhedralSet(
            self.ineq_lhs_x.shape[1],
            ineq_lhs=A[keep_ineq] if keep_ineq else None,
            ineq_rhs=b[keep_ineq] if keep_ineq else None,
            eq_lhs=E[keep_eq] if keep_eq else None,
            eq_rhs=d[keep_eq] if keep_eq else None,
        )


def _face(inst: AviInstance, active: tuple) -> PolyhedralSet:
    """F_I = {x in C : A_I x = alpha_I}; C itself for the empty pattern."""
    if not active:
        return inst.c_set
    A = inst.c_set.ineq_lhs
    alpha = inst.c_set.ineq_rhs
    inactive = [i for i in range(inst.num_constraints) if i not in active]
    return PolyhedralSet(
        inst.dim,
        ineq_lhs=A[inactive] if inactive else None,
        ineq_rhs=alpha[inactive] if inactive else None,
        eq_lhs=A[list(active)],
        eq_rhs=alpha[list(active)],
    )


def _face_templates(inst: AviInstance, caps: Caps, tol: Tolerances) -> list:
    """Templates of the patterns with a nonempty face, ordered by subset rank.

    Depth-first over patterns, adding rows in increasing index; a pattern
    whose face is empty is not extended.  A point of the parent face on
    which the added row is tight (within tol.feas) already witnesses the
    child face; phase one runs only when it is not.  Cached on the instance
    per (caps, tol).  Raises CapExceeded when the search needs to test more
    than caps.subset_budget patterns.
    """
    key = (caps, tol)
    cache = inst._face_templates
    if key not in cache:
        m = inst.num_constraints
        A = inst.c_set.ineq_lhs
        alpha = inst.c_set.ineq_rhs
        templates = []
        stack = [((), None)]
        tested = 0
        while stack:
            active, point = stack.pop()
            if tested == caps.subset_budget:
                raise CapExceeded(
                    f"face search needs more than {tested} active patterns, "
                    f"budget {caps.subset_budget}"
                )
            tested += 1
            if point is None or abs(A[active[-1]] @ point - alpha[active[-1]]) > tol.feas:
                point = feasible_witness(_face(inst, active), tol)
                if point is None:
                    continue
            templates.append(_PieceTemplate(inst, active, caps, tol))
            first = active[-1] + 1 if active else 0
            stack.extend((active + (i,), point) for i in range(first, m))
        templates.sort(key=lambda t: sum(1 << i for i in t.active))
        cache[key] = templates
    return cache[key]


def inverse_residual(inst: AviInstance, y,
                     caps: Caps = DEFAULT_CAPS,
                     tol: Tolerances = DEFAULT_TOL,
                     keep_active: bool = False):
    """Pieces of R^{-1}(y), one x-space polyhedron per feasible active pattern.

    Only patterns whose face of C is nonempty are tested, in subset-rank
    order (bit i set when row i is active).  The union of the returned sets
    is exactly the preimage; overlapping or repeated pieces are kept as-is.
    With keep_active=True, (active, piece) pairs are returned instead.
    """
    y = _as_vector(y, inst.dim, "y")
    pieces = []
    for template in _face_templates(inst, caps, tol):
        piece = template.section(y, tol)
        if piece is None or not is_nonempty(piece, tol):
            continue
        pieces.append((template.active, piece) if keep_active else piece)
    return pieces


def enumerate_solution_set(inst: AviInstance,
                           caps: Caps = DEFAULT_CAPS,
                           tol: Tolerances = DEFAULT_TOL):
    """Polyhedral pieces whose union is the solution set (preimage of 0)."""
    return inverse_residual(inst, np.zeros(inst.dim), caps, tol)
