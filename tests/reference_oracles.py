"""Reference oracles for the tests, independent of the library's own
algorithms.

`build_kkt_piece` writes the projection's KKT system for one active pattern
in (y, x, lambda)-space, before any elimination, and `piece_section_points`
enumerates the vertices of a lifted section in (x, lambda_active)-space: the
tests check the library's polar elimination of the multipliers against both.
That elimination is `avi._PieceTemplate`: its fixed matrices `ineq_lhs` and
`eq_lhs`, with the right-hand sides `section(y)` evaluates at each level.
`reference_piece` writes the same piece with every row kept, those whose
coefficients vanish included, for phase one to decide without the cells.
`annihilator_residual` measures how far a point (lam, gamma) of the gap
dual is from dual feasibility.  `from_generators` turns a
V-representation back into an H-representation, for the round trips of
the vertex enumeration.
`brute_force_projection` projects onto a polyhedron by trying every
candidate working set, and `dedup_loop` is the pairwise loop the geometry
dedup ran before it compared each point with all kept ones at once.
`face_search_dfs` is the depth-first face search `avi._face_templates` ran
before it read the faces off one double description of C, and
`face_violation` tests one face with HiGHS, outside the library's kernel.
`reference_cell` builds one template's cell alone, with the one-system
projection the templates ran one at a time before `avi._build_templates`
stacked them.  Both it and `reference_piece` take the face F_I from `_face`,
which slices C's rows itself, where each template keeps its face's rows as
views of the stacks `avi._build_templates` filled.  `box_bounds_loop` is
the row-by-row loop `PolyhedralSet.box_bounds` ran before it read all rows
in one vectorized pass.  `satisfies_rows_reduction` is
`sets._satisfies_rows` in numpy's `.all()` over the rows that hold, where a
NaN residual fails its row, and `cell_lookup_reduction` the projection's
test of one kept cell, as it reduced its multipliers and slacks with
numpy's `.all()` before it compared Python floats.
`extreme_rays_loop` is double description as
`polyhedra._extreme_rays` ran it before it took each cut's adjacency test
in products, one ray p at a time, with `scipy.linalg.null_space` for its
null-space basis, and `hausdorff_vertex_loop` is `polyhedra.hausdorff` as
it projected every vertex of both sets before its bounds skipped most.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog

from avibound import (
    CapExceeded,
    DimensionMismatch,
    EmptySet,
    NumericalBreakdown,
    PolyhedralSet,
    optkernel,
)
from avibound.avi import AviInstance
from avibound.gpm import GpMultifunction
from avibound.optkernel import FEAS_TOL, solve_feasibility
from avibound.polyhedra import (
    _RANK_TOL,
    _RAY_BUDGET,
    _ZERO_TOL,
    GEOM_TOL,
    _extreme_rays,
    _recession_cones_match,
    cone_generators,
    distance,
    enumerate_vertices,
    is_nonempty,
)
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


def piece_section_points(inst: AviInstance, active: tuple, y):
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
    if not is_nonempty(lifted):
        return []
    vs = enumerate_vertices(lifted)
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


def annihilator_residual(lam, gamma, f: GpMultifunction) -> float:
    """Max-norm of a2^T lam + sum_i gamma_i row_y_i (0 on the dual
    feasible set)."""
    vec = np.zeros(f.output_dim)
    if f.num_eq:
        vec += f.a2.T @ lam
    if f.num_ineq:
        vec += f.row_y.T @ gamma
    return float(np.max(np.abs(vec))) if vec.size else 0.0


def _face_rows(generators: np.ndarray, n: int):
    """(a / |a|, -beta / |a|) for the polar generators (a, beta) with
    |a| > GEOM_TOL."""
    scale = np.linalg.norm(generators[:, :n], axis=1)
    kept = scale > GEOM_TOL
    return generators[kept, :n] / scale[kept, None], -generators[kept, n] / scale[kept]


def from_generators(vertices, rays=()) -> PolyhedralSet:
    """H-representation of conv(vertices) + cone(rays).

    Works through the polar of the homogenization cone,
    {(a, beta) : a.v + beta <= 0 for vertices v, a.r <= 0 for rays r}: each
    of its extreme rays yields a face inequality a.x <= -beta and each
    direction of its lineality an equality row a.x = -beta.  Generators with
    |a| <= GEOM_TOL are dropped: they give the trivial face 0.x <= const.  A
    single vertex with no rays short-circuits to x = v.
    """
    vertices = [np.asarray(v, dtype=float) for v in vertices]
    rays = [np.asarray(r, dtype=float) for r in rays]
    if not vertices:
        raise EmptySet("a V-representation needs at least one point")
    n = vertices[0].size
    if len(vertices) == 1 and not rays:
        v = vertices[0]
        return PolyhedralSet(n, eq_lhs=np.eye(n), eq_rhs=v)
    lifted = np.array(
        [np.concatenate([v, [1.0]]) for v in vertices]
        + [np.concatenate([r, [0.0]]) for r in rays]
    )
    polar_rays, polar_lineality = cone_generators(lifted)
    ineq_lhs, ineq_rhs = _face_rows(polar_rays, n)
    eq_lhs, eq_rhs = _face_rows(polar_lineality, n)
    return PolyhedralSet(n, ineq_lhs=ineq_lhs, ineq_rhs=ineq_rhs, eq_lhs=eq_lhs, eq_rhs=eq_rhs)


def brute_force_projection(u, S: PolyhedralSet, tol: float = 1e-9) -> np.ndarray:
    """Euclidean projection of u onto S by enumeration of working sets.

    For every subset of at most n inequality rows, taken with all equality
    rows G z = h, the nearest point of that affine subspace is a particular
    solution plus the null-space part of u: no Gram system is formed.  A
    candidate is kept when it lies in S and its multipliers (a least-squares
    solution of G^T lam = u - z) are nonnegative on the inequality rows, the
    KKT conditions of min ||z - u|| over S; the nearest kept candidate is the
    projection.  Raises EmptySet when no candidate qualifies.
    """
    u = np.asarray(u, dtype=float)
    n = S.ambient_dim
    A, b, E, d = S.ineq_lhs, S.ineq_rhs, S.eq_lhs, S.eq_rhs
    scale = tol * (1.0 + np.linalg.norm(u))
    best, best_dist = None, np.inf
    for size in range(min(n, A.shape[0]) + 1):
        for subset in itertools.combinations(range(A.shape[0]), size):
            G = np.vstack([E, A[list(subset)]])
            h = np.concatenate([d, b[list(subset)]])
            if G.shape[0]:
                particular = np.linalg.lstsq(G, h, rcond=None)[0]
                if np.max(np.abs(G @ particular - h)) > scale:
                    continue
                N = null_space(G)
                z = particular + N @ (N.T @ (u - particular))
            else:
                z = u.copy()
            if not S.contains(z, scale):
                continue
            if size:
                lam = np.linalg.lstsq(G.T, u - z, rcond=None)[0]
                if np.min(lam[E.shape[0]:]) < -1e-7 * (1.0 + np.linalg.norm(lam)):
                    continue
            dist = np.linalg.norm(u - z)
            if dist < best_dist:
                best, best_dist = z, dist
    if best is None:
        raise EmptySet("no feasible KKT point")
    return best


def dedup_loop(points, relative: bool) -> list:
    """The points without repeats within GEOM_TOL, times 1 + |q| for a kept
    q when `relative`, first occurrence kept: one norm per pair."""
    kept = []
    for p in points:
        if all(
            np.linalg.norm(p - q) > GEOM_TOL * ((1.0 + np.linalg.norm(q)) if relative else 1.0)
            for q in kept
        ):
            kept.append(p)
    return kept


def box_bounds_loop(S: PolyhedralSet):
    """(lo, hi) coordinate bounds of S when every row touches one
    coordinate, None as soon as a row has any other number of nonzero
    coefficients: one row at a time, inequality rows first."""
    n = S.ambient_dim
    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)

    def single_coord(row):
        nz = np.nonzero(row)[0]
        return int(nz[0]) if nz.size == 1 else None

    for row, rhs in zip(S.ineq_lhs, S.ineq_rhs):
        j = single_coord(row)
        if j is None:
            return None
        if row[j] > 0:
            hi[j] = min(hi[j], rhs / row[j])
        else:
            lo[j] = max(lo[j], rhs / row[j])
    for row, rhs in zip(S.eq_lhs, S.eq_rhs):
        j = single_coord(row)
        if j is None:
            return None
        v = rhs / row[j]
        lo[j] = max(lo[j], v)
        hi[j] = min(hi[j], v)
    return lo, hi


def satisfies_rows_reduction(S: PolyhedralSet, x, tol: float) -> bool:
    """Whether every row of S holds at x within `tol`, each row block
    reduced by numpy's `.all()` over the rows that hold: a NaN residual
    compares False against `tol`, so its row, and its block, fails."""
    return bool((np.abs(S.eq_lhs @ x - S.eq_rhs) <= tol).all()
                and (S.ineq_lhs @ x - S.ineq_rhs <= tol).all())


def cell_lookup_reduction(cell, u, k_eq: int):
    """The projection's lookup on one kept cell (a tuple of `optkernel._cell`)
    for the target u, of a set with k_eq equality rows: the point w the
    lookup returns when the multiplier test and the slack test, numpy's
    `.all()` over each margin, both pass, and None when one fails."""
    _, G, h, U, floor, outside, room, longest = cell
    scale = 1.0 + math.sqrt(u @ u)
    tol = FEAS_TOL * scale
    nu = optkernel._potrs(U, G @ u - h)[0]
    w = u - G.T @ nu
    mu = nu[k_eq:]
    if not (mu > scale * floor).all():
        return None
    margin = tol + longest * math.sqrt(tol * sum(mu.tolist()))
    if not (room - outside @ w > margin).all():
        return None
    return w


def _face(C: PolyhedralSet, active: tuple) -> PolyhedralSet:
    """F_I = {x in C : A_I x = alpha_I}; C itself for the empty pattern."""
    if not active:
        return C
    A = C.ineq_lhs
    alpha = C.ineq_rhs
    inactive = [i for i in range(C.num_ineq) if i not in active]
    return PolyhedralSet(
        C.ambient_dim,
        ineq_lhs=A[inactive],
        ineq_rhs=alpha[inactive],
        eq_lhs=A[list(active)],
        eq_rhs=alpha[list(active)],
    )


def face_search_dfs(inst: AviInstance) -> list:
    """The active patterns whose face F_I = {x in C : A_I x = alpha_I} is
    nonempty, in subset-rank order, by depth-first search.

    Patterns grow by rows of increasing index, and a pattern whose face is
    empty is not extended.  A point of the parent face on which the added
    row is tight within FEAS_TOL witnesses the child face; otherwise the
    child runs `solve_feasibility`'s phase one from the all-artificial
    basis, whose NumericalBreakdown passes on.
    """
    m = inst.num_constraints
    A, alpha = inst.c_set.ineq_lhs, inst.c_set.ineq_rhs
    patterns = []
    stack = [((), None)]
    while stack:
        active, point = stack.pop()
        if point is None or abs(A[active[-1]] @ point - alpha[active[-1]]) > FEAS_TOL:
            point = solve_feasibility(_face(inst.c_set, active))
            if point is None:
                continue
        patterns.append(active)
        first = active[-1] + 1 if active else 0
        stack.extend((active + (i,), point) for i in range(first, m))
    return sorted(patterns, key=lambda active: sum(1 << i for i in active))


def face_violation(inst: AviInstance, active: tuple):
    """(bound, violation) for the face F_I = {x in C : A_I x = alpha_I}.

    HiGHS minimizes s subject to A x - alpha <= s and |A_I x - alpha_I| <= s:
    `bound` is its optimal s, exact up to HiGHS's own feasibility tolerance
    (1e-7), and `violation` is the largest miss of F_I's rows at its point,
    relative to 1 + ||x||.  The face is nonempty in the kernel's sense when
    `violation` <= FEAS_TOL, and empty when `bound` is well beyond 1e-7.
    """
    A, alpha = inst.c_set.ineq_lhs, inst.c_set.ineq_rhs
    n = A.shape[1]
    rows = np.vstack([A, -A[list(active)]])
    rows = np.hstack([rows, -np.ones((rows.shape[0], 1))])
    rhs = np.concatenate([alpha, -alpha[list(active)]])
    cost = np.zeros(n + 1)
    cost[n] = 1.0
    res = linprog(cost, A_ub=rows, b_ub=rhs, bounds=[(None, None)] * n + [(0.0, None)],
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    x = res.x[:n]
    gap = A @ x - alpha
    miss = max(np.max(gap, initial=0.0), np.max(np.abs(gap[list(active)]), initial=0.0))
    return float(res.fun), float(miss / (1.0 + np.linalg.norm(x)))


def _projection(K, d0, D, L, r0, R):
    """H-form of the projection onto p of {(z, p) : K z = d0 + D p,
    L z <= r0 + R p}, and the particular solution z0 + Z1 p, for one
    system: one SVD of K, the pseudo-inverse over the singular values
    beyond _RANK_TOL of the largest, and the extreme rays of the projection
    cone {u >= 0 : (L N)^T u = 0} from double description, the unit
    vectors when K is nonsingular.  Each row is divided by the larger of 1
    and the norm of its coefficients."""
    U, s, Vt = np.linalg.svd(K)
    rank = int(np.count_nonzero(s > _RANK_TOL * s[0]))
    pinv = (Vt[:rank].T / s[:rank]) @ U[:, :rank].T
    z0, Z1 = pinv @ d0, pinv @ D
    U0, N = U[:, rank:], Vt[rank:].T
    rays = _extreme_rays((L @ N).T, -np.eye(L.shape[0]))
    lhs = np.vstack([U0.T @ D, rays @ (L @ Z1 - R)])
    rhs = np.concatenate([-U0.T @ d0, rays @ (r0 - L @ z0)])
    scale = np.maximum(np.linalg.norm(lhs, axis=1), 1.0)
    lhs, rhs = lhs / scale[:, None], rhs / scale
    k = U0.shape[1]
    rows = PolyhedralSet(D.shape[1], ineq_lhs=lhs[k:], ineq_rhs=rhs[k:],
                         eq_lhs=lhs[:k], eq_rhs=rhs[:k])
    return rows, z0, Z1


def reference_cell(inst: AviInstance, active: tuple):
    """(cell, x0, X1) of one pattern's template, built alone: the lifted
    section's rows K = [[A_I, 0], [M, A_I^T]] and the rest assembled with
    hstack and vstack from the face F_I, and projected onto y."""
    face = _face(inst.c_set, active)
    M, q = inst.m_op, inst.q
    n, k, m_f = face.ambient_dim, face.num_eq, face.num_ineq
    A_I, A_F = face.eq_lhs, face.ineq_lhs
    cell, z0, Z1 = _projection(
        np.vstack([np.hstack([A_I, np.zeros((k, k))]), np.hstack([M, A_I.T])]),
        np.concatenate([face.eq_rhs, -q]),
        np.vstack([A_I, np.eye(n)]),
        np.vstack([np.hstack([A_F, np.zeros((m_f, k))]),
                   np.hstack([np.zeros((k, n)), -np.eye(k)])]),
        np.concatenate([face.ineq_rhs, np.zeros(k)]),
        np.vstack([A_F, np.zeros((k, n))]),
    )
    return cell, z0[:n], Z1[:n]


def reference_piece(inst: AviInstance, active: tuple, y) -> PolyhedralSet:
    """The x-space piece of pattern I at level y with every row kept: the
    face F_I shifted by y, then the polar rows (-w M) x <= w (q - y) for
    each extreme ray w of {w : A_I w <= 0} and (-w M) x = w (q - y) for
    each vector of its lineality basis, including the rows whose
    coefficients all vanish and so constrain y alone."""
    face = _face(inst.c_set, active)
    w_ineq, w_eq = cone_generators(face.eq_lhs)
    M, q = inst.m_op, inst.q
    return PolyhedralSet(
        face.ambient_dim,
        ineq_lhs=np.vstack([face.ineq_lhs, -w_ineq @ M]),
        ineq_rhs=np.concatenate([face.ineq_rhs + face.ineq_lhs @ y, w_ineq @ (q - y)]),
        eq_lhs=np.vstack([face.eq_lhs, -w_eq @ M]),
        eq_rhs=np.concatenate([face.eq_rhs + face.eq_lhs @ y, w_eq @ (q - y)]),
    )


def extreme_rays_loop(H: np.ndarray, G: np.ndarray):
    """Unit extreme rays (rows) of the pointed cone {z : H z = 0, G z <= 0}
    by double description, each cut testing adjacency one infeasible ray p
    at a time against all feasible rays at once; the same CapExceeded and
    NumericalBreakdown as `_extreme_rays`."""
    N = null_space(H, rcond=_RANK_TOL) if H.shape[0] else np.eye(H.shape[1])
    k = N.shape[1]
    if k == 0:
        return np.zeros((0, H.shape[1]))
    Gw = G @ N
    if Gw.shape[0] < k:
        raise NumericalBreakdown("cone numerically non-pointed")
    lu, swaps = optkernel.lu_factor(Gw)
    if abs(lu[k - 1, k - 1]) <= _RANK_TOL * abs(lu[0, 0]):
        raise NumericalBreakdown("cone numerically non-pointed")
    order = np.arange(Gw.shape[0])
    for j, p in enumerate(swaps):
        order[[j, p]] = order[[p, j]]
    W = optkernel.lu_solve((lu[:k], np.arange(k, dtype=swaps.dtype)), -np.eye(k)).T
    W /= np.linalg.norm(W, axis=1)[:, None]
    zero_tol = _ZERO_TOL * np.linalg.norm(Gw, axis=1)
    added = np.zeros(Gw.shape[0], dtype=bool)
    added[order[:k]] = True
    for i in np.flatnonzero(~added):
        s = W @ Gw[i]
        pos = np.flatnonzero(s > zero_tol[i])
        neg = np.flatnonzero(s < -zero_tol[i])
        joined = []
        if pos.size and neg.size:
            zero = np.abs(W @ Gw[added].T) <= zero_tol[added]
            nonzero = (~zero).T.astype(float)
            for p in pos:
                common = zero[p] & zero[neg]
                # rays other than p and q that vanish on every common row
                witnesses = (common @ nonzero == 0).sum(axis=1) - 2
                for q in neg[(common.sum(axis=1) >= k - 2) & (witnesses == 0)]:
                    ray = s[p] * W[q] - s[q] * W[p]
                    joined.append(ray / np.linalg.norm(ray))
        W = np.vstack([W[s <= zero_tol[i]], *joined])
        if W.shape[0] > _RAY_BUDGET:
            raise CapExceeded(f"double description keeps {W.shape[0]} rays after a cut")
        added[i] = True
    return W @ N.T


def hausdorff_vertex_loop(a: PolyhedralSet, b: PolyhedralSet) -> float:
    """Hausdorff distance of two nonempty polyhedra: +inf when their
    recession cones differ, else the largest distance from a vertex of
    either set to the other, every vertex projected."""
    va = enumerate_vertices(a)
    vb = enumerate_vertices(b)
    if not _recession_cones_match(va, vb, a, b):
        return math.inf
    value = 0.0
    for v in va.vertices:
        value = max(value, distance(b, v)[0])
    for w in vb.vertices:
        value = max(value, distance(a, w)[0])
    return value
