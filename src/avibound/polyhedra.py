"""Geometry of polyhedral convex sets.

Vertex/ray enumeration is exhaustive over constraint subsets with rank
checks; the combinatorial caps in `Caps` keep that tractable.  Non-pointed
sets are handled by splitting off the lineality space: reported "vertices"
are then points of the minimal faces and the lineality directions appear as
opposite pairs of recession rays, so conv(vertices) + cone(rays) always
reproduces the set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from .config import DEFAULT_CAPS, DEFAULT_TOL, Caps, Tolerances
from .errors import CapExceeded, EmptySet
from .optkernel import QpProjectionProblem, solve_feasibility, solve_projection_qp
from .sets import PolyhedralSet, box, nonnegative_orthant  # re-export

__all__ = [
    "PolyhedralSet",
    "VertexSet",
    "HausdorffDistance",
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


@dataclass(frozen=True)
class VertexSet:
    """V-representation: conv(vertices) + cone(recession_rays)."""

    vertices: list
    is_bounded: bool
    recession_rays: list

    def __post_init__(self):
        if self.is_bounded and self.recession_rays:
            raise ValueError("a bounded vertex set cannot have recession rays")


@dataclass(frozen=True)
class HausdorffDistance:
    """Hausdorff distance value; `is_lower_bound` marks uncertified unbounded
    cases where only the vertex formula was evaluated."""

    value: float
    is_lower_bound: bool = False

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)

    @property
    def certified(self) -> bool:
        return not self.is_lower_bound


def is_nonempty(S: PolyhedralSet, tol: Tolerances = DEFAULT_TOL) -> bool:
    cached = S._cache.get("nonempty")
    if cached is None:
        if S.num_eq + S.num_ineq == 0:
            cached = True
        else:
            bounds = S.box_bounds()
            if bounds is not None:
                lo, hi = bounds
                cached = bool(np.all(lo <= hi + tol.feas))
            else:
                res = solve_feasibility(S.eq_lhs, S.eq_rhs, S.ineq_lhs, S.ineq_rhs, tol)
                cached = res.is_optimal
        S._cache["nonempty"] = cached
    return cached


def feasible_point(S: PolyhedralSet, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """A witness point of S; raises EmptySet when S is empty."""
    cached = S._cache.get("witness")
    if cached is not None:
        return cached
    if S.num_eq + S.num_ineq == 0:
        w = np.zeros(S.ambient_dim)
    else:
        res = solve_feasibility(S.eq_lhs, S.eq_rhs, S.ineq_lhs, S.ineq_rhs, tol)
        if not res.is_optimal:
            raise EmptySet("no feasible point")
        w = res.point
    S._cache["witness"] = w
    S._cache["nonempty"] = True
    return w


def _lineality_basis(S: PolyhedralSet) -> np.ndarray:
    """Orthonormal basis (columns) of {x : Ex = 0, Ax = 0}."""
    rows = np.vstack([S.eq_lhs, S.ineq_lhs])
    if rows.shape[0] == 0:
        return np.eye(S.ambient_dim)
    return null_space(rows, rcond=_RANK_TOL)


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


def _check_budget(m: int, size: int, caps: Caps):
    if size < 0:
        return
    total = math.comb(m, size) if m >= size else 0
    if total > caps.subset_budget:
        raise CapExceeded(
            f"basis enumeration needs {total} subsets, budget {caps.subset_budget}"
        )


def enumerate_vertices(S: PolyhedralSet,
                       caps: Caps = DEFAULT_CAPS,
                       tol: Tolerances = DEFAULT_TOL) -> VertexSet:
    """All basic feasible points plus recession-cone generators of S.

    Raises CapExceeded when the ambient dimension, row count or subset budget
    is exceeded and EmptySet when S is empty.
    """
    n = S.ambient_dim
    if n > caps.dim_cap:
        raise CapExceeded(f"ambient dimension {n} exceeds cap {caps.dim_cap}")
    if S.num_ineq > caps.row_cap:
        raise CapExceeded(f"{S.num_ineq} inequality rows exceed cap {caps.row_cap}")
    if not is_nonempty(S, tol):
        raise EmptySet("cannot enumerate vertices of an empty set")
    L = _lineality_basis(S)
    dim_lin = L.shape[1]
    E0 = np.vstack([S.eq_lhs, L.T])
    d0 = np.concatenate([S.eq_rhs, np.zeros(dim_lin)])
    A, b = S.ineq_lhs, S.ineq_rhs
    m = A.shape[0]
    rank_eq = np.linalg.matrix_rank(E0, tol=_RANK_TOL) if E0.size else 0
    free = n - rank_eq
    _check_budget(m, free, caps)
    _check_budget(m, free - 1, caps)

    vertices = []
    if free == 0:
        x = np.linalg.lstsq(E0, d0, rcond=None)[0]
        if np.linalg.norm(E0 @ x - d0) <= tol.feas * (1 + np.linalg.norm(d0)):
            if m == 0 or np.max(A @ x - b) <= tol.feas * (1 + np.linalg.norm(x)):
                vertices.append(x)
    else:
        for subset in itertools.combinations(range(m), free):
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

    rays = []
    if free >= 1:
        for subset in itertools.combinations(range(m), free - 1):
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
    for j in range(dim_lin):
        rays.extend([L[:, j], -L[:, j]])
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
              tol: Tolerances = DEFAULT_TOL) -> HausdorffDistance:
    """Hausdorff distance via the vertex formula.

    d(., convex set) is convex, so its maximum over a polytope sits at a
    vertex; that makes the vertex formula exact for bounded sets.  When the
    recession cones differ the distance is +inf.  For unbounded sets with
    matching cones the vertex formula is still evaluated but the result is
    flagged as a lower bound rather than certified.
    """
    va = enumerate_vertices(a, caps, tol)
    vb = enumerate_vertices(b, caps, tol)
    if not _recession_cones_match(va, vb, a, b, tol):
        return HausdorffDistance(value=math.inf, is_lower_bound=False)
    value = 0.0
    for v in va.vertices:
        value = max(value, distance(b, v, tol)[0])
    for w in vb.vertices:
        value = max(value, distance(a, w, tol)[0])
    certified = va.is_bounded and vb.is_bounded
    return HausdorffDistance(value=value, is_lower_bound=not certified)


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

    Output is the lineality basis (both signs) plus the extreme rays of the
    pointed part, i.e. enough directions that their conic hull is the cone.
    """
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[1]
    cone = PolyhedralSet(n, ineq_lhs=rows, ineq_rhs=np.zeros(rows.shape[0]))
    vs = enumerate_vertices(cone, caps, tol)
    return vs.recession_rays


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
