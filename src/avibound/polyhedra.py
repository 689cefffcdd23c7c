"""Geometry of polyhedral convex sets.

Vertices and recession rays come from double description: the extreme rays
of the homogenized cone of a set give its candidate vertices and rays, and
each is then solved from the row subsets tight at it, so the output is that
of an exhaustive scan over all row subsets at a fraction of the solves.
Non-pointed sets are handled by splitting off the lineality space: reported
"vertices" are then points of the minimal faces and the lineality directions
appear as opposite pairs of recession rays, so conv(vertices) + cone(rays)
always reproduces the set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from .config import DEFAULT_CAPS, DEFAULT_TOL, Caps, Tolerances
from .errors import CapExceeded, EmptySet
from .optkernel import (
    QpProjectionProblem,
    feasible_witness,
    lu_factor,
    lu_solve,
    solve_projection_qp,
)
from .sets import PolyhedralSet, box, nonnegative_orthant  # re-export

__all__ = [
    "PolyhedralSet",
    "VertexSet",
    "box",
    "nonnegative_orthant",
    "is_nonempty",
    "feasible_point",
    "enumerate_vertices",
    "distance",
    "hausdorff",
    "union_distance",
    "pair_opposites",
    "from_generators",
    "cone_generators",
]

_RANK_TOL = 1e-9
# Double description on unit rays: a row value within _ZERO_TOL of the row
# norm counts as zero.  Small enough to keep near-parallel rows apart, large
# enough for the rounding of joined rays.  A row is tight at a candidate,
# and so may enter a subset the scan solves, within _TIGHT_TOL of its norm;
# that covers the tol.feas slack the scan accepts.  Both are checked against
# the exhaustive scan in tests/test_polyhedra.py.
_ZERO_TOL = 1e-11
_TIGHT_TOL = 1e-6


@dataclass(frozen=True)
class VertexSet:
    """V-representation: conv(vertices) + cone(recession_rays)."""

    vertices: list
    is_bounded: bool
    recession_rays: list

    def __post_init__(self):
        if self.is_bounded and self.recession_rays:
            raise ValueError("a bounded vertex set cannot have recession rays")


def is_nonempty(S: PolyhedralSet, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether S has a point within `tol.feas`; a box is read off its bounds,
    any other set shares its phase-one witness with the projection."""
    bounds = S.box_bounds()
    if bounds is not None:
        lo, hi = bounds
        return bool(np.all(lo <= hi + tol.feas))
    return feasible_witness(S, tol) is not None


def feasible_point(S: PolyhedralSet, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """A witness point of S (a fresh copy); raises EmptySet when S is empty."""
    w = feasible_witness(S, tol)
    if w is None:
        raise EmptySet("no feasible point")
    return w.copy()


def _dedup_points(points, tol: float):
    kept = []
    for p in points:
        if all(np.linalg.norm(p - q) > tol * (1.0 + np.linalg.norm(q)) for q in kept):
            kept.append(p)
    return kept


def _dedup_rays(rays, tol: float):
    kept = []
    for r in rays:
        if all(np.linalg.norm(r - q) > tol for q in kept):
            kept.append(r)
    return kept


def _check_caps(S: PolyhedralSet, caps: Caps):
    if S.ambient_dim > caps.dim_cap:
        raise CapExceeded(f"ambient dimension {S.ambient_dim} exceeds cap {caps.dim_cap}")
    if S.num_ineq > caps.row_cap:
        raise CapExceeded(f"{S.num_ineq} inequality rows exceed cap {caps.row_cap}")


def _pointed_part(S: PolyhedralSet):
    """(L, E0, d0, free): an orthonormal basis L (columns) of the lineality
    space {x : Ex = 0, Ax = 0} of S, the equality rows that also pin the
    lineality coordinates, and the dimension left for the inequality rows.
    S intersected with {E0 x = d0} is pointed."""
    rows = np.vstack([S.eq_lhs, S.ineq_lhs])
    L = null_space(rows, rcond=_RANK_TOL) if rows.shape[0] else np.eye(S.ambient_dim)
    E0 = np.vstack([S.eq_lhs, L.T])
    d0 = np.concatenate([S.eq_rhs, np.zeros(L.shape[1])])
    rank_eq = np.linalg.matrix_rank(E0, tol=_RANK_TOL) if E0.size else 0
    return L, E0, d0, S.ambient_dim - rank_eq


def _extreme_rays(H: np.ndarray, G: np.ndarray):
    """Unit extreme rays (rows) of the pointed cone {z : H z = 0, G z <= 0}.

    Double description (Motzkin, Raiffa, Thompson & Thrall 1953; Fukuda &
    Prodon 1996) in coordinates w of the null space of H, which is the
    lineality of the cone before any row of G is added.  The k pivot rows of
    an LU factorization of G with partial pivoting make the cone simplicial;
    the other rows then cut it one at a time.  A cut keeps the rays on its
    feasible side and joins each adjacent pair it separates, where two rays
    are adjacent when no third ray vanishes on every added row on which both
    vanish (the combinatorial test, exact for a pointed cone).  Returns None
    when G leaves the cone numerically non-pointed.
    """
    N = null_space(H, rcond=_RANK_TOL) if H.shape[0] else np.eye(H.shape[1])
    k = N.shape[1]
    Gw = G @ N
    if Gw.shape[0] < k:
        return None
    lu, swaps = lu_factor(Gw)
    if abs(lu[k - 1, k - 1]) <= _RANK_TOL * abs(lu[0, 0]):
        return None
    order = np.arange(Gw.shape[0])
    for j, p in enumerate(swaps):
        order[[j, p]] = order[[p, j]]
    # rows order[:k] of Gw factor as lu[:k] without further swaps, and the
    # rays of their simplicial cone are the columns of minus its inverse
    W = lu_solve((lu[:k], np.arange(k, dtype=swaps.dtype)), -np.eye(k)).T
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
        added[i] = True
    return W @ N.T


def _tight_subsets(rows: np.ndarray, points: np.ndarray, size: int) -> list:
    """The distinct `size`-subsets, in lexicographic order, of the rows tight
    within _TIGHT_TOL (relative to the row norm) at some unit point."""
    scale = _TIGHT_TOL * np.linalg.norm(rows, axis=1)
    subsets = set()
    for z in points:
        tight = np.flatnonzero(rows @ z >= -scale).tolist()
        subsets.update(itertools.combinations(tight, size))
    return sorted(subsets)


def _scan_rays(E0: np.ndarray, A: np.ndarray, free: int, subsets, L: np.ndarray,
               tol: Tolerances) -> list:
    """Extreme rays of {E0 x = 0, A x <= 0}, each the null space of one of
    the candidate (free - 1)-subsets of rows, then the lineality basis L in
    both signs."""
    n, m = A.shape[1], A.shape[0]
    rays = []
    for subset in subsets:
        M = np.vstack([E0, A[list(subset)]])
        ns = null_space(M, rcond=_RANK_TOL) if M.size else np.eye(n)
        if ns.shape[1] != 1:
            continue
        v = ns[:, 0]
        if m and np.max(A @ v) <= tol.feas:
            rays.append(v)
        elif m and np.max(A @ (-v)) <= tol.feas:
            rays.append(-v)
        elif m == 0:
            rays.extend([v, -v])
    rays = _dedup_rays(rays, tol.cmp)
    for j in range(L.shape[1]):
        rays.extend([L[:, j], -L[:, j]])
    return rays


def enumerate_vertices(S: PolyhedralSet,
                       caps: Caps = DEFAULT_CAPS,
                       tol: Tolerances = DEFAULT_TOL) -> VertexSet:
    """All basic feasible points plus recession-cone generators of S.

    The extreme rays of the homogenized cone {(x, t) : E0 x - d0 t = 0,
    A x - b t <= 0, t >= 0} (pointed once the lineality is split off) give
    the candidates: a ray with t > 0 is a vertex, one with t = 0 a recession
    ray.  Each vertex is then solved from every `free`-subset of the rows
    tight at a candidate, and each ray from every `free - 1`-subset, in
    lexicographic subset order, so the output is the one of an exhaustive
    scan over all row subsets.

    Raises CapExceeded when the ambient dimension or row count exceeds its
    cap and EmptySet when S is empty.
    """
    _check_caps(S, caps)
    if not is_nonempty(S, tol):
        raise EmptySet("cannot enumerate vertices of an empty set")
    n = S.ambient_dim
    L, E0, d0, free = _pointed_part(S)
    A, b = S.ineq_lhs, S.ineq_rhs
    m = A.shape[0]

    vertices = []
    ray_subsets = []
    if free == 0:
        x = np.linalg.lstsq(E0, d0, rcond=None)[0]
        if np.linalg.norm(E0 @ x - d0) <= tol.feas * (1 + np.linalg.norm(d0)):
            if m == 0 or np.max(A @ x - b) <= tol.feas * (1 + np.linalg.norm(x)):
                vertices.append(x)
    else:
        G = np.vstack([np.hstack([A, -b[:, None]]), -np.eye(1, n + 1, n)])
        Z = _extreme_rays(np.hstack([E0, -d0[:, None]]), G)
        if Z is None or not np.any(Z[:, n] > _ZERO_TOL):
            # S is empty but for the tol.feas slack, or not pointed in
            # floating point: scan every subset
            vertex_subsets = itertools.combinations(range(m), free)
            ray_subsets = itertools.combinations(range(m), free - 1)
        else:
            t = Z[:, n]
            vertex_subsets = _tight_subsets(G[:m], Z[t > _ZERO_TOL], free)
            ray_subsets = _tight_subsets(A, Z[t <= _TIGHT_TOL, :n], free - 1)
        for subset in vertex_subsets:
            M = np.vstack([E0, A[list(subset)]])
            if np.linalg.matrix_rank(M, tol=_RANK_TOL) < n:
                continue
            rhs = np.concatenate([d0, b[list(subset)]])
            x = np.linalg.lstsq(M, rhs, rcond=None)[0]
            if np.linalg.norm(M @ x - rhs) > tol.feas * (1 + np.linalg.norm(rhs)):
                continue
            if m and np.max(A @ x - b) > tol.feas * (1 + np.linalg.norm(x)):
                continue
            vertices.append(x)
    vertices = _dedup_points(vertices, tol.cmp)

    rays = _scan_rays(E0, A, free, ray_subsets, L, tol)
    bounded = not rays
    return VertexSet(vertices=vertices, is_bounded=bounded, recession_rays=rays)


def distance(S: PolyhedralSet, x, tol: Tolerances = DEFAULT_TOL):
    """(d(x, S), nearest point).  Raises EmptySet for empty S."""
    z = solve_projection_qp(QpProjectionProblem(np.asarray(x, dtype=float), S), tol)
    return float(np.linalg.norm(np.asarray(x, dtype=float) - z)), z


def _recession_cones_match(va: VertexSet, vb: VertexSet,
                           a: PolyhedralSet, b: PolyhedralSet, tol: Tolerances) -> bool:
    def in_cone(r, S):
        if S.num_eq and np.max(np.abs(S.eq_lhs @ r)) > tol.cmp:
            return False
        if S.num_ineq and np.max(S.ineq_lhs @ r) > tol.cmp:
            return False
        return True

    return all(in_cone(r, b) for r in va.recession_rays) and all(
        in_cone(r, a) for r in vb.recession_rays
    )


def hausdorff(a: PolyhedralSet, b: PolyhedralSet,
              caps: Caps = DEFAULT_CAPS,
              tol: Tolerances = DEFAULT_TOL) -> float:
    """Hausdorff distance between two nonempty polyhedra, bounded or not.

    When the recession cones differ the distance is +inf: a ray of one set
    that is not in the cone of the other leaves it at a linear rate.
    Otherwise write a = conv V_a + K with K = rec a = rec b.  Each point of
    a is p + k with p in conv V_a and k in K, and b + k lies in b, so
    d(p + k, b) <= d(p, b): the nearest point q of b to p gives the point
    q + k of b at the same distance from p + k.  d(., b) is convex, so its
    maximum over conv V_a sits at a vertex.  With the roles of a and b
    swapped as well, the vertex formula

        max(max_{v in V_a} d(v, b), max_{w in V_b} d(w, a))

    is the distance itself, not a bound on it.
    """
    va = enumerate_vertices(a, caps, tol)
    vb = enumerate_vertices(b, caps, tol)
    if not _recession_cones_match(va, vb, a, b, tol):
        return math.inf
    value = 0.0
    for v in va.vertices:
        value = max(value, distance(b, v, tol)[0])
    for w in vb.vertices:
        value = max(value, distance(a, w, tol)[0])
    return value


def union_distance(pieces, x, tol: Tolerances = DEFAULT_TOL) -> float:
    """Distance from x to a finite union of polyhedral pieces."""
    best = math.inf
    for piece in pieces:
        if not is_nonempty(piece, tol):
            continue
        best = min(best, distance(piece, x, tol)[0])
    if math.isinf(best):
        raise EmptySet("all pieces of the union are empty")
    return best


def cone_generators(rows: np.ndarray,
                    caps: Caps = DEFAULT_CAPS,
                    tol: Tolerances = DEFAULT_TOL) -> list:
    """Generators of the cone {x : rows @ x <= 0}.

    The extreme rays of its pointed part, then the lineality basis in both
    signs, so their conic hull is the cone: the recession rays that
    `enumerate_vertices` reports for it, from the same double description.
    A cone always holds the origin, so no emptiness test and no vertex
    search runs.
    """
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[1]
    cone = PolyhedralSet(n, ineq_lhs=rows, ineq_rhs=np.zeros(rows.shape[0]))
    _check_caps(cone, caps)
    L, E0, _, free = _pointed_part(cone)
    A = cone.ineq_lhs
    ray_subsets = []
    if free >= 1:
        Z = _extreme_rays(E0, A)
        if Z is None:
            ray_subsets = itertools.combinations(range(A.shape[0]), free - 1)
        else:
            ray_subsets = _tight_subsets(A, Z, free - 1)
    return _scan_rays(E0, A, free, ray_subsets, L, tol)


def pair_opposites(generators, n: int, tol: Tolerances = DEFAULT_TOL):
    """Split cone generators into opposite pairs and singletons.

    Generators are visited in order; each unused one pairs with the first
    later unused generator within tol.cmp of its negative.  Returns
    (paired, single): the first member of every pair, which spans a
    lineality direction and so gives an equality row, and the generators
    left single, which give inequality rows.  A generator whose first `n`
    entries vanish is dropped without taking a partner.
    """
    paired, single = [], []
    used = [False] * len(generators)
    for i, g in enumerate(generators):
        if used[i]:
            continue
        used[i] = True
        if np.linalg.norm(g[:n]) <= tol.cmp:
            continue
        for j in range(i + 1, len(generators)):
            if not used[j] and np.linalg.norm(generators[j] + g) <= tol.cmp:
                used[j] = True
                paired.append(g)
                break
        else:
            single.append(g)
    return paired, single


def from_generators(vertices, rays=(),
                    caps: Caps = DEFAULT_CAPS,
                    tol: Tolerances = DEFAULT_TOL) -> PolyhedralSet:
    """H-representation of conv(vertices) + cone(rays).

    Works through the polar of the homogenization cone: each generator of
    {(a, beta) : a.v + beta <= 0 for vertices v, a.r <= 0 for rays r} yields
    a face inequality a.x <= -beta, and opposite generator pairs collapse to
    equality rows.  A single vertex with no rays short-circuits to x = v.
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
    # generators with a = 0 are dropped: the trivial 0.x <= const face
    paired, single = pair_opposites(cone_generators(lifted, caps, tol), n, tol)
    eq_rows, eq_rhs, ineq_rows, ineq_rhs = [], [], [], []
    for group, rows, rhs in ((paired, eq_rows, eq_rhs), (single, ineq_rows, ineq_rhs)):
        for g in group:
            scale = np.linalg.norm(g[:n])
            rows.append(g[:n] / scale)
            rhs.append(-g[n] / scale)
    return PolyhedralSet(
        n,
        ineq_lhs=np.array(ineq_rows) if ineq_rows else None,
        ineq_rhs=np.array(ineq_rhs) if ineq_rhs else None,
        eq_lhs=np.array(eq_rows) if eq_rows else None,
        eq_rhs=np.array(eq_rhs) if eq_rhs else None,
    )
