"""Geometry of polyhedral convex sets.

Vertices and recession rays come from double description: each extreme ray
of the homogenized cone of a set is read off as a vertex or a recession ray,
and both lists come in the order of an exhaustive scan over row subsets
without solving a single subset.
Non-pointed sets are handled by splitting off the lineality space: reported
"vertices" are then points of the minimal faces and the lineality directions
appear as opposite pairs of recession rays, so conv(vertices) + cone(rays)
always reproduces the set.

The geometry decides by itself when two vertices or two rays are the same
point and when a ray lies in a recession cone: `GEOM_TOL` is that slack,
apart from `ratios.CMP_TOL`, the comparison slack of the verdicts built on
top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import optkernel
from .errors import CapExceeded, EmptySet, NumericalBreakdown
from .optkernel import FEAS_TOL, feasible_witness, solve_projection_qp
from .sets import PolyhedralSet, _as_matrix, _as_vector, box, nonnegative_orthant  # re-export

__all__ = [
    "GEOM_TOL",
    "PolyhedralSet",
    "VertexSet",
    "box",
    "nonnegative_orthant",
    "is_nonempty",
    "enumerate_vertices",
    "distance",
    "hausdorff",
    "union_distance",
    "cone_generators",
]

# Two vertices within GEOM_TOL (1 + |q|) of each other, or two unit rays
# within GEOM_TOL, are one point of the V-representation (the first kept),
# and a ray r lies in a recession cone {E r = 0, A r <= 0} when each row
# misses by at most GEOM_TOL; the same slack dedups the solution set's
# sampling anchors in `bounds`.
GEOM_TOL = 1e-6
_RANK_TOL = 1e-9
# Double description on unit rays: a row value within _ZERO_TOL of the row
# norm counts as zero, and so does a homogenizing coordinate t: a ray with
# t <= _ZERO_TOL is a recession ray.  Small enough to keep near-parallel rows
# apart, large enough for the rounding of joined rays.  A row is tight at a
# ray, for the sort order only, within _TIGHT_TOL of its norm; that covers
# the FEAS_TOL slack of a vertex.  Both are checked against the exhaustive
# scan in tests/test_polyhedra.py.
_ZERO_TOL = 1e-11
_TIGHT_TOL = 1e-6
# Double description's work grows with the rays it keeps, and instance files
# come from outside the program, so it stops once a cut leaves more than this.
_RAY_BUDGET = 1024


@dataclass(frozen=True)
class VertexSet:
    """V-representation: conv(vertices) + cone(recession_rays)."""

    vertices: list
    recession_rays: list

    @property
    def is_bounded(self) -> bool:
        return not self.recession_rays


def is_nonempty(S: PolyhedralSet) -> bool:
    """Whether S has a point within the kernel's `FEAS_TOL`: whether
    `feasible_witness`, which the projection shares, finds one."""
    return feasible_witness(S) is not None


def _dedup(vectors, relative: bool) -> list:
    """The vectors without repeats within GEOM_TOL of a kept q, first
    occurrence kept: within GEOM_TOL (1 + |q|) when `relative` (vertices),
    within GEOM_TOL otherwise (unit rays, anchors).  Each vector is compared
    with all kept ones at once."""
    kept = []
    if not len(vectors):
        return kept
    stack = np.empty((len(vectors), len(vectors[0])))
    slack = np.empty(len(vectors))
    for v in vectors:
        k = len(kept)
        if k and not np.all(np.linalg.norm(stack[:k] - v, axis=1) > slack[:k]):
            continue
        stack[k] = v
        slack[k] = GEOM_TOL * (1.0 + np.linalg.norm(v)) if relative else GEOM_TOL
        kept.append(v)
    return kept


def _null_basis(H: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of {x : H x = 0}; the identity when H has
    no rows (or no columns).

    The right singular vectors of H (`np.linalg.svd`, LAPACK gesdd) past
    its singular values above _RANK_TOL times the largest, as a view of
    their Fortran-ordered copy: bit for bit, and in the same memory layout,
    `scipy.linalg.null_space(H, rcond=_RANK_TOL)`, so the products taken
    with the basis round as with scipy's.  Like it, raises ValueError for a
    non-finite H.
    """
    if not H.size:
        return np.eye(H.shape[1])
    _, s, vt = np.linalg.svd(np.asarray_chkfinite(H))
    return np.asfortranarray(vt)[np.count_nonzero(s > s.max() * _RANK_TOL):].T


def _pointed_part(S: PolyhedralSet):
    """(L, E0, d0, free): an orthonormal basis L (columns) of the lineality
    space {x : Ex = 0, Ax = 0} of S, the equality rows that also pin the
    lineality coordinates, and the dimension left for the inequality rows.
    S intersected with {E0 x = d0} is pointed."""
    L = _null_basis(np.vstack([S.eq_lhs, S.ineq_lhs]))
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
    feasible side and joins each adjacent pair it separates
    (`_joined_rays`), where two rays are adjacent when no third ray
    vanishes on every added row on which both vanish (the combinatorial
    test, exact for a pointed cone).  Raises CapExceeded as soon as a cut
    leaves more than _RAY_BUDGET (1,024) rays, and NumericalBreakdown when
    G leaves the cone numerically non-pointed.  A cone that H pins to the
    origin has no rays.
    """
    N = _null_basis(H)
    k = N.shape[1]
    if k == 0:  # the cone is the origin
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
    # rows order[:k] of Gw factor as lu[:k] without further swaps, and the
    # rays of their simplicial cone are the columns of minus its inverse
    W = optkernel.lu_solve((lu[:k], np.arange(k, dtype=swaps.dtype)), -np.eye(k)).T
    W /= np.linalg.norm(W, axis=1)[:, None]
    zero_tol = _ZERO_TOL * np.linalg.norm(Gw, axis=1)
    added = np.zeros(Gw.shape[0], dtype=bool)
    added[order[:k]] = True
    for i in np.flatnonzero(~added):
        s = W @ Gw[i]
        pos = np.flatnonzero(s > zero_tol[i])
        neg = np.flatnonzero(s < -zero_tol[i])
        kept = W[s <= zero_tol[i]]
        if pos.size and neg.size:
            zero = np.abs(W @ Gw[added].T) <= zero_tol[added]
            kept = np.vstack([kept, _joined_rays(W, s, pos, neg, zero, k)])
        W = kept
        if W.shape[0] > _RAY_BUDGET:
            raise CapExceeded(
                f"double description keeps {W.shape[0]} rays after a cut, "
                f"budget {_RAY_BUDGET}"
            )
        added[i] = True
    return W @ N.T


def _joined_rays(W, s, pos, neg, zero, k):
    """The unit rays a cut joins: s[p] W[q] - s[q] W[p], normalized, for each
    adjacent pair of a ray p on the cut's infeasible side (s > 0) and a ray
    q on its feasible side (s < 0), p-major and in ascending q for each p.

    `zero` holds the added rows each ray of W vanishes on.  The candidates
    are the pairs with at least k - 2 common zero rows, read off one product
    of the incidence rows; a candidate is adjacent when only p and q vanish
    on every one of its common rows, which one product over the candidates
    counts, taken in blocks of |neg| candidates, so no product outgrows the
    |neg| x |W| one a cut would make for each p.  Each joined ray is divided
    by math.sqrt(r @ r), the bits np.linalg.norm gives on one ray.
    """
    incidence = zero.astype(float)
    candidates = np.nonzero(incidence[pos] @ incidence[neg].T >= k - 2)
    p, q = pos[candidates[0]], neg[candidates[1]]
    if not p.size:
        return np.zeros((0, W.shape[1]))
    common = zero[p] & zero[q]
    nonzero = (~zero).T.astype(float)
    vanishing = np.concatenate([
        (common[j:j + neg.size] @ nonzero == 0).sum(axis=1)
        for j in range(0, p.size, neg.size)
    ])
    p, q = p[vanishing == 2], q[vanishing == 2]
    rays = s[p, None] * W[q] - s[q, None] * W[p]
    return rays / np.array([math.sqrt(r @ r) for r in rays]).reshape(-1, 1)


def _corank_one_rays(c: np.ndarray):
    """Unit extreme rays (rows) of the cone {u >= 0 : c . u = 0}, in closed
    form: one Fourier–Motzkin step (Motzkin 1936) eliminating the one free
    coordinate t of a projection whose null(K) is one column N, c = L N.

    An extreme ray has m - 1 independent tight rows, c among them, so at
    most two nonzero entries: e_i where c_i = 0, and, for each pair
    c_i > 0 > c_j, the ray -c_j e_i + c_i e_j, divided by hypot(c_i, c_j);
    zeros first, then pairs, i-major and in ascending j for each i (double
    description's order is its pivots', so only the set of rays is the
    same).  Zero rule: double description
    counts a row value at a unit ray within _ZERO_TOL of the row's norm as
    zero; the one row is c and c . e_i = c_i, so c_i is zero when
    |c_i| <= _ZERO_TOL ||c|| (every c_i when c = 0, where the null basis of
    a zero row is the whole space), and positive or negative past it.  The
    ray count |zero| + |pos| |neg| is what double description's one cut
    keeps, and past _RAY_BUDGET it raises the same CapExceeded.
    """
    tol = _ZERO_TOL * math.sqrt(c @ c)
    zero = np.flatnonzero(np.abs(c) <= tol)
    pos, neg = np.flatnonzero(c > tol), np.flatnonzero(c < -tol)
    count = zero.size + pos.size * neg.size
    if count > _RAY_BUDGET:
        raise CapExceeded(
            f"double description keeps {count} rays after a cut, budget {_RAY_BUDGET}"
        )
    rays = np.zeros((count, c.size))
    rays[np.arange(zero.size), zero] = 1.0
    i, j = np.repeat(pos, neg.size), np.tile(neg, pos.size)
    pairs, norm = np.arange(zero.size, count), np.hypot(c[i], c[j])
    rays[pairs, i], rays[pairs, j] = -c[j] / norm, c[i] / norm
    return rays


def _scaled_rows(lhs, rhs):
    """The rows (last axis) of lhs, and rhs, divided by the larger of 1 and
    the norm of their coefficients."""
    scale = np.maximum(np.linalg.norm(lhs, axis=-1), 1.0)
    return lhs / scale[..., None], rhs / scale


def _projections(K, d0, D, L, r0, R):
    """For each member of a stack (the first axis of every argument), the
    H-form of the projection onto p of {(z, p) : K z = d0 + D p,
    L z <= r0 + R p}, and the particular solution z0 + Z1 p.

    K = U S V^T splits at the singular values within _RANK_TOL of the
    largest.  With K^+ the pseudo-inverse, U0 spanning null(K^T) and N
    spanning null(K), the equality rows have a solution exactly when
    U0^T (d0 + D p) = 0, and their solutions are then z0 + Z1 p + N t for
    t free, where z0 = K^+ d0 and Z1 = K^+ D.  The inequality rows hold for
    some t exactly when u . ((L Z1 - R) p) <= u . (r0 - L z0) for every
    extreme ray u of the projection cone {u >= 0 : (L N)^T u = 0} (Balas
    1998).  For a nonsingular K, N has no columns and the rays are the unit
    vectors: one row per row of L.  For K of corank one, N is one column
    and the cone is {u >= 0 : c . u = 0} with c = L N, whose rays one
    Fourier–Motzkin step gives in closed form (`_corank_one_rays`: e_i for
    each |c_i| <= _ZERO_TOL ||c||, and one unit pair ray for each c_i > 0 >
    c_j, with double description's ray budget).  Only a member of corank
    two or more runs a double description (`_extreme_rays`).  One SVD and
    one product per step serve the whole stack; K^+ divides by infinity in
    place of each dropped singular value.
    Returns (rows, z0, Z1, singular): rows a list of PolyhedralSets over p,
    one per member, whose rows are each divided by the larger of 1 and the
    norm of their coefficients, z0 and Z1 stacked, and singular a boolean
    array, True for each member whose K is rank-deficient under that rule.
    A nonsingular member's set is its slice of the stack, which one scan
    checks finite (K^+ can overflow); a singular member's rows, its rays'
    combinations of the stack's rows, get one scan of their own.  A set
    that fails its scan goes through the validating constructor, which
    raises.  Passes on CapExceeded (either ray routine) and on
    `_extreme_rays`' NumericalBreakdown.
    """
    U, s, Vt = np.linalg.svd(K)
    kept = s > _RANK_TOL * s[:, :1]
    inverse = np.where(kept, s, np.inf)[:, None, :]
    pinv = (Vt.transpose(0, 2, 1) / inverse) @ U.transpose(0, 2, 1)
    z0, Z1 = (pinv @ d0[..., None])[..., 0], pinv @ D
    lhs, rhs = L @ Z1 - R, r0 - (L @ z0[..., None])[..., 0]
    unit_lhs, unit_rhs = _scaled_rows(lhs, rhs)
    ranks = np.count_nonzero(kept, axis=1)
    cell = (PolyhedralSet._computed
            if np.isfinite(unit_lhs).all() and np.isfinite(unit_rhs).all() else PolyhedralSet)
    rows = []
    for j, rank in enumerate(ranks):
        if rank < K.shape[1]:
            U0, LN = U[j][:, rank:], L[j] @ Vt[j][rank:].T
            rays = (_corank_one_rays(LN[:, 0]) if LN.shape[1] == 1
                    else _extreme_rays(LN.T, -np.eye(L.shape[1])))
            k = U0.shape[1]
            cell_lhs, cell_rhs = _scaled_rows(np.vstack([U0.T @ D[j], rays @ lhs[j]]),
                                              np.concatenate([-U0.T @ d0[j], rays @ rhs[j]]))
            singular_cell = (PolyhedralSet._computed if np.isfinite(cell_lhs).all()
                             and np.isfinite(cell_rhs).all() else PolyhedralSet)
            rows.append(singular_cell(D.shape[2], ineq_lhs=cell_lhs[k:], ineq_rhs=cell_rhs[k:],
                                      eq_lhs=cell_lhs[:k], eq_rhs=cell_rhs[:k]))
        else:
            rows.append(cell(D.shape[2], ineq_lhs=unit_lhs[j], ineq_rhs=unit_rhs[j]))
    return rows, z0, Z1, ranks < K.shape[1]


def _by_tight_rows(rows: np.ndarray, points: np.ndarray) -> list:
    """The points (rows of an array) sorted by the index tuple of the rows
    tight at each, within _TIGHT_TOL of the row norm; at a nondegenerate
    vertex that tuple is its basis, so the order is lexicographic in bases."""
    slack = -_TIGHT_TOL * np.linalg.norm(rows, axis=1)
    return sorted(points, key=lambda z: np.flatnonzero(rows @ z >= slack).tolist())


def _vertex_points(S: PolyhedralSet):
    """(points, directions, L) of S, before any dedup.

    Read off the extreme rays z = (x, t) of the homogenized cone
    {(x, t) : E0 x - d0 t = 0, A x - b t <= 0, t >= 0}, pointed once the
    lineality (the columns of L) is split off: a ray with t > _ZERO_TOL
    gives the point x / t of a minimal face, one with t <= _ZERO_TOL the
    unit recession direction x / |x|.  Each list is sorted by the rows tight
    at its members (`_by_tight_rows`).  Where double description gives no
    point, the one point is `feasible_witness`'s, and there is none when it
    finds S empty.  That covers a set that holds a point only within
    FEAS_TOL (its cone has no ray with t > 0) and a set whose equality rows
    and lineality pin x (`free` = 0), where no double description runs.
    """
    n = S.ambient_dim
    L, E0, d0, free = _pointed_part(S)
    A, b = S.ineq_lhs, S.ineq_rhs
    points, directions = [], []
    if free:
        G = np.vstack([np.hstack([A, -b[:, None]]), -np.eye(1, n + 1, n)])
        Z = _extreme_rays(np.hstack([E0, -d0[:, None]]), G)
        t = Z[:, n]
        points = [z[:n] / z[n] for z in _by_tight_rows(G[:A.shape[0]], Z[t > _ZERO_TOL])]
        directions = Z[t <= _ZERO_TOL, :n]
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        directions = _by_tight_rows(A, directions)
    if not points:
        witness = feasible_witness(S)
        points = [] if witness is None else [witness.copy()]
    return points, directions, L


def enumerate_vertices(S: PolyhedralSet) -> VertexSet:
    """All vertices plus recession-cone generators of S.

    Both come from one double description (`_vertex_points`), sorted by
    the rows tight at their members, which is the order of an exhaustive
    scan over row subsets, keeping the first of any members within GEOM_TOL
    of each other.  The lineality directions follow the recession rays as
    opposite pairs.

    Raises EmptySet when `_vertex_points` finds no point (then
    `feasible_witness` finds S empty), with no emptiness test before the
    double description, and passes on `_extreme_rays`'
    CapExceeded (more than 1,024 rays after a cut) and NumericalBreakdown
    (the homogenized cone is not pointed in floating point).
    """
    points, directions, L = _vertex_points(S)
    if not points:
        raise EmptySet("cannot enumerate vertices of an empty set")
    vertices = _dedup(points, relative=True)
    rays = _dedup(directions, relative=False)
    for j in range(L.shape[1]):
        rays.extend([L[:, j], -L[:, j]])
    return VertexSet(vertices=vertices, recession_rays=rays)


def _minimal_face_rows(S: PolyhedralSet) -> list:
    """The inequality rows tight at each point of a minimal face of a
    nonempty S, as index tuples, one per point of `_vertex_points` (repeats
    kept).

    A row is tight at v when |A_i v - b_i| <= FEAS_TOL (1 + ||v||), the
    slack at which the kernel accepts a point.  Every nonempty face of S
    holds a minimal face, and the rows tight on a minimal face are tight at
    each of its points, so {x in S : A_I x = b_I} is nonempty exactly when
    I is a subset of one of these tuples.  Passes on `_extreme_rays`'
    CapExceeded and NumericalBreakdown.
    """
    A, b = S.ineq_lhs, S.ineq_rhs
    return [
        tuple(np.flatnonzero(np.abs(A @ v - b) <= FEAS_TOL * (1.0 + np.linalg.norm(v))).tolist())
        for v in _vertex_points(S)[0]
    ]


def distance(S: PolyhedralSet, x):
    """(d(x, S), nearest point).  Raises EmptySet for empty S."""
    x = _as_vector(x, S.ambient_dim, "target")
    z = solve_projection_qp(S, x)
    d = x - z
    return math.sqrt(d @ d), z


def _recession_cones_match(va: VertexSet, vb: VertexSet,
                           a: PolyhedralSet, b: PolyhedralSet) -> bool:
    def in_cone(r, S):
        if S.num_eq and np.max(np.abs(S.eq_lhs @ r)) > GEOM_TOL:
            return False
        if S.num_ineq and np.max(S.ineq_lhs @ r) > GEOM_TOL:
            return False
        return True

    return all(in_cone(r, b) for r in va.recession_rays) and all(
        in_cone(r, a) for r in vb.recession_rays
    )


def _violation_bound(points: np.ndarray, S: PolyhedralSet):
    """(l, shortest), read off S's stacked rows, which the projection keeps
    (`optkernel._projection_rows`): l the largest violation at any of the
    points of a nonzero row of S divided by the row's length (an equality
    row both ways), at least 0, which bounds below the largest distance
    from one of them to S; shortest the length of S's shortest nonzero row
    (inf when it has none)."""
    rows, rhs, lengths = optkernel._projection_rows(S)
    keep = lengths > 0.0
    gaps = (points @ rows[keep].T - rhs[keep]) / lengths[keep]
    equality = keep[:S.num_eq].sum()
    gaps[:, :equality] = np.abs(gaps[:, :equality])
    return float(gaps.max(initial=0.0)), float(lengths[keep].min(initial=math.inf))


def hausdorff(a: PolyhedralSet, b: PolyhedralSet) -> float:
    """Hausdorff distance between two nonempty polyhedra, bounded or not.

    When the recession cones differ (up to GEOM_TOL per row) the distance
    is +inf: a ray of one set that is not in the cone of the other leaves it
    at a linear rate.
    Otherwise write a = conv V_a + K with K = rec a = rec b.  Each point of
    a is p + k with p in conv V_a and k in K, and b + k lies in b, so
    d(p + k, b) <= d(p, b): the nearest point q of b to p gives the point
    q + k of b at the same distance from p + k.  d(., b) is convex, so its
    maximum over conv V_a sits at a vertex.  With the roles of a and b
    swapped as well, the vertex formula

        max(max_{v in V_a} d(v, b), max_{w in V_b} d(w, a))

    is the distance itself, not a bound on it.  The result is the largest
    distance `distance` computes from a vertex of either set to the other
    set, but most vertices are never projected.

    Bounds first.  For a vertex v of one set against the other set S, the
    lower bound l(v) is the largest violation at v of a row of S divided by
    its length (an equality row both ways, a zero row skipped), and the
    upper bound u(v) the distance from v to the nearest vertex of S, which
    lies in S.  Both sides take their l from one product with the other's
    rows and their u from one product of the two vertex arrays (the gaps
    through |v|^2 + |w|^2 - 2 v.w, a |V_a| x |V_b| array).  The walk
    projects the vertices of both sets in decreasing u, keeping the largest
    computed distance `best`, and stops at the first v with

        u(v) + margin < max(max_all l - margin, best),

    returning `best`.

    The margin covers what separates the computed distance d~(v) = |v - z|
    (z the projection's point) from the exact one, d(v), and the rounding of
    the bounds.  Let R be the largest vertex norm of the two sets, n the
    dimension, eps the unit roundoff and ell the shortest nonzero row of
    either set; then

        margin = (1 + R) (FEAS_TOL / ell + 2 sqrt((n + 3) eps)).

    Below: z leaves a row i of S outside its working set W by at most
    (1 + |v|) FEAS_TOL (a target the projection accepts as a point of S,
    or the point its loop returns, which tests those rows there;
    `solve_projection_qp`).  A row of W is not tested at z: G z = h holds
    in exact arithmetic, so it misses only by the rounding of the Gram
    solve and of z = v - G^T nu, some small multiple of
    eps |a_i| (|v| + sum_W nu_j |a_j|).  Since |G^T nu| = d~(v) <= 2R, the
    roundoff term covers that miss while W's multipliers cancel by less
    than about 1 / sqrt(eps), sum_W nu_j |a_j| <= 1e7 |G^T nu| say; this is
    a condition on W's conditioning, not a theorem.  Then
    d~(v) >= l(v) - (1 + R) (FEAS_TOL / ell + roundoff).  Above: z is the
    KKT point of W, v - z = G^T nu with G z = h and nu_i >= 0 on W's
    inequality rows (the loop's multipliers, above 0 on a cell hit), and
    with p the exact projection, |v - p|^2 = d~^2 + 2 sum_W nu_i
    (h_i - a_i.p) + |z - p|^2 >= d~^2: an equality row adds 0, and an
    inequality row of W has h_i - a_i.p >= 0.  So d~(v) <= d(v) <= u(v).
    A box projection is exact.  The computed u(v)^2 is off by at most
    4 (n + 3) eps R^2, so u(v) by at most 2 sqrt((n + 3) eps) R; the
    rounding of l(v) is far smaller at the rows that bound it.  So d~ lies
    within margin of [l, u] at every vertex.

    Now let v stop the walk and v' be any vertex after it.  d~(v') <=
    u(v') + margin <= u(v) + margin, below the larger of best and
    max_all l - margin.  If max_all l is l(v*), then d~(v*) >= l(v*) -
    margin > u(v) + margin, while d~(v*) <= u(v*) + margin, so u(v*) > u(v)
    and v* came before v: best >= d~(v*).  Either way every skipped vertex's
    d~ is strictly below `best`, and the walk returns the value the full
    vertex loop returns, bit for bit.
    """
    va = enumerate_vertices(a)
    vb = enumerate_vertices(b)
    if not _recession_cones_match(va, vb, a, b):
        return math.inf
    Va, Vb = np.array(va.vertices), np.array(vb.vertices)
    lower_a, shortest_b = _violation_bound(Va, b)
    lower_b, shortest_a = _violation_bound(Vb, a)
    sq_a, sq_b = np.square(Va).sum(axis=1), np.square(Vb).sum(axis=1)
    # the vertex gaps in place: one |V_a| x |V_b| array
    gaps = Va @ Vb.T
    gaps *= -2.0
    gaps += sq_a[:, None]
    gaps += sq_b
    np.sqrt(np.maximum(gaps, 0.0, out=gaps), out=gaps)
    upper = np.concatenate([gaps.min(axis=1), gaps.min(axis=0)])
    radius = math.sqrt(max(sq_a.max(), sq_b.max()))
    roundoff = 2.0 * math.sqrt((a.ambient_dim + 3) * np.finfo(float).eps)
    margin = (1.0 + radius) * (FEAS_TOL / min(shortest_a, shortest_b) + roundoff)
    lower = max(lower_a, lower_b)
    best = 0.0
    for j in np.argsort(-upper, kind="stable").tolist():
        if upper[j] + margin < max(lower - margin, best):
            break
        if j < len(Va):
            best = max(best, distance(b, Va[j])[0])
        else:
            best = max(best, distance(a, Vb[j - len(Va)])[0])
    return best


def union_distance(pieces, x) -> float:
    """Distance from x to a finite union of polyhedral pieces."""
    best = math.inf
    for piece in pieces:
        if not is_nonempty(piece):
            continue
        best = min(best, distance(piece, x)[0])
    if math.isinf(best):
        raise EmptySet("all pieces of the union are empty")
    return best


def cone_generators(rows: np.ndarray):
    """Generators (rays, lineality) of the cone K = {x : rows @ x <= 0}.

    `lineality` is the orthonormal basis (rows) of {x : rows @ x = 0};
    `rays` are the unit extreme rays of K's pointed part as double
    description finds them, without repeats within GEOM_TOL and sorted by
    their tight rows.  So K = cone(rays) + span(lineality); both are
    C-contiguous, (k, n) and (l, n).  No emptiness test and no vertex
    search runs.  Raises DimensionMismatch when `rows` is not a matrix and
    ValueError for a non-finite entry, and passes on `_extreme_rays`'
    CapExceeded (more than 1,024 rays after a cut) and NumericalBreakdown
    (the pointed part is not pointed in floating point).
    """
    rows = _as_matrix(rows, np.shape(rows)[-1] if np.ndim(rows) else 0, "rows")
    lineality = _null_basis(rows).T.copy()
    Z = _extreme_rays(lineality, rows)
    rays = np.array(_dedup(_by_tight_rows(rows, Z), relative=False))
    return rays.reshape(-1, rows.shape[1]), lineality
