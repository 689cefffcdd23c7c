"""Reference oracles for the tests, independent of the library's own
algorithms.

`build_kkt_piece` writes the projection's KKT system for one active pattern
in (y, x, lambda)-space, before any elimination, and `piece_section_points`
enumerates the vertices of a lifted section in (x, lambda_active)-space: the
tests check the library's polar elimination of the multipliers
(`avi._PieceTemplate`) against both.  `annihilator_residual` measures how
far a gap-dual multiplier is from dual feasibility.
"""

from dataclasses import dataclass

import numpy as np

from avibound import DimensionMismatch, PolyhedralSet
from avibound.avi import AviInstance
from avibound.config import DEFAULT_CAPS, DEFAULT_TOL, Caps, Tolerances
from avibound.gpm import DualMultiplier, GpMultifunction
from avibound.polyhedra import enumerate_vertices, is_nonempty
from avibound.sets import _as_vector


@dataclass(frozen=True)
class KktPiece:
    """Active pattern I0 with its polyhedron in (y, x, lambda)-space.

    Rows follow the stationarity-plus-complementarity system of the
    projection: n equality rows y - Mx - sum_i lambda_i a_i = q, then three
    inequality rows per constraint (tight pair plus -lambda_i <= 0 when i is
    active; slack row plus lambda_i <= 0 and -lambda_i <= 0 otherwise).
    """

    active: tuple
    polyhedron_yxl: PolyhedralSet


def build_kkt_piece(inst: AviInstance, active) -> KktPiece:
    """Polyhedron of triples (y, x, lambda) realizing a given active pattern."""
    n, m = inst.dim, inst.num_constraints
    active = tuple(sorted(set(int(i) for i in active)))
    if any(i < 0 or i >= m for i in active):
        raise DimensionMismatch(f"active set {active} out of range for m={m}")
    A = inst.c_set.ineq_lhs
    alpha = inst.c_set.ineq_rhs
    dim = 2 * n + m
    eq = np.zeros((n, dim))
    eq[:, :n] = np.eye(n)
    eq[:, n : 2 * n] = -inst.m_op
    eq[:, 2 * n :] = -A.T
    active_set = set(active)
    rows, rhs = [], []
    for i in range(m):
        tight = np.zeros(dim)
        tight[:n] = -A[i]
        tight[n : 2 * n] = A[i]
        lam_neg = np.zeros(dim)
        lam_neg[2 * n + i] = -1.0
        if i in active_set:
            rows.extend([tight, -tight, lam_neg])
            rhs.extend([alpha[i], -alpha[i], 0.0])
        else:
            lam_pos = np.zeros(dim)
            lam_pos[2 * n + i] = 1.0
            rows.extend([tight, lam_pos, lam_neg])
            rhs.extend([alpha[i], 0.0, 0.0])
    poly = PolyhedralSet(
        dim,
        eq_lhs=eq,
        eq_rhs=inst.q,
        ineq_lhs=np.array(rows),
        ineq_rhs=np.array(rhs),
    )
    return KktPiece(active=active, polyhedron_yxl=poly)


def piece_section_points(inst: AviInstance, active: tuple, y,
                         caps: Caps = DEFAULT_CAPS,
                         tol: Tolerances = DEFAULT_TOL):
    """Sample (x, lambda) points of one KKT piece at level y.

    Used by the consistency tests: vertices of the lifted section are
    enumerated directly in (x, lambda_active)-space, so their x-parts must
    populate the corresponding x-space piece.
    """
    n, m = inst.dim, inst.num_constraints
    A = inst.c_set.ineq_lhs
    alpha = inst.c_set.ineq_rhs
    y = _as_vector(y, n, "y")
    active = tuple(sorted(active))
    inactive = [i for i in range(m) if i not in set(active)]
    na = len(active)
    dim = n + na
    eq_rows = [np.hstack([-inst.m_op, -A[list(active)].T if na else np.zeros((n, 0))])]
    eq_rhs = [inst.q - y]
    if na:
        eq_rows.append(np.hstack([A[list(active)], np.zeros((na, na))]))
        eq_rhs.append(alpha[list(active)] + A[list(active)] @ y)
    ineq_rows, ineq_rhs = [], []
    if inactive:
        ineq_rows.append(np.hstack([A[inactive], np.zeros((len(inactive), na))]))
        ineq_rhs.append(alpha[inactive] + A[inactive] @ y)
    if na:
        ineq_rows.append(np.hstack([np.zeros((na, n)), -np.eye(na)]))
        ineq_rhs.append(np.zeros(na))
    lifted = PolyhedralSet(
        dim,
        eq_lhs=np.vstack(eq_rows),
        eq_rhs=np.concatenate(eq_rhs),
        ineq_lhs=np.vstack(ineq_rows) if ineq_rows else None,
        ineq_rhs=np.concatenate(ineq_rhs) if ineq_rhs else None,
    )
    if not is_nonempty(lifted, tol):
        return []
    vs = enumerate_vertices(lifted, caps, tol)
    points = list(vs.vertices)
    for v in vs.vertices[:1]:
        for ray in vs.recession_rays:
            points.append(v + ray)
    full = []
    for point in points:
        lam = np.zeros(m)
        for pos, idx in enumerate(active):
            lam[idx] = point[n + pos]
        full.append((point[:n], lam))
    return full


def annihilator_residual(mult: DualMultiplier, f: GpMultifunction) -> float:
    """Max-norm of a2^T lam + sum_i gamma_i row_y_i (0 on the dual
    feasible set)."""
    vec = np.zeros(f.output_dim)
    if f.num_eq:
        vec += f.a2.T @ mult.lam
    if f.num_ineq:
        vec += f.row_y.T @ mult.gamma
    return float(np.max(np.abs(vec))) if vec.size else 0.0
