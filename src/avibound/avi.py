"""Affine variational inequalities and the natural residual map.

An instance is the data (M, q, C): find x in C with <Mx + q, v - x> >= 0
for all v in C.  The residual R(x) = x - P_C(x - Mx - q) vanishes exactly on
the solution set, and both the solution set and every preimage R^{-1}(y)
decompose into finitely many polyhedral pieces indexed by the active set of
the projection's KKT system.  The piece of pattern I at level y lies in
y + F_I, where F_I = {x in C : A_I x = alpha_I} is a face of C that does not
depend on y.  Every nonempty face of C contains a minimal face of C (a
vertex, when C is pointed; Fukuda & Prodon 1996, Avis & Fukuda 1992), so
F_I is nonempty exactly when the rows of I are all tight at a point of one
of them.  One double description of C per instance lists those points and
the rows tight at each (`polyhedra._minimal_face_rows`, with the kernel's
slack FEAS_TOL (1 + ||v||)); the patterns worth testing are all subsets of
those row sets, found without a phase one, and each level y tests only
them.  Their number is exponential in the worst case and instance files
come from outside the program, so the search stops past `_PATTERN_BUDGET`
patterns with CapExceeded, as double description does past its ray budget.

A pattern's template (`_PieceTemplate`) decides each level by its cell, the
levels y whose section {(x, lambda) : x - y in F_I, M x + A_I^T lambda =
y - q, lambda >= 0} is nonempty.  The residual map is piecewise affine
(Robinson 1992, normal maps): the section's rows are fixed and only their
right-hand side moves with y, so the cell is the section projected onto y,
and a level tests its rows with one product; no phase one, and no other
row, decides a section.  The templates of an instance are built whole, once,
with the face search (`_build_templates`): the sections of one pattern size
have rows of one shape, so each size is one stacked projection
(`polyhedra._projections`); a singular section whose K has corank one
takes its cell's rays in closed form, and only one of corank two or more
runs double description.  Each template keeps the rows of its face F_I as
views of the stacks its cell was built from.  Where the section's equality rows are
nonsingular, a nonempty section is one point, and the piece is its x-part
x0 + X1 y, written as the rows I x = x0 + X1 y: a box, which `is_nonempty`,
`distance` and `enumerate_vertices` read off its bounds with no phase one,
no projection iteration and no double description.  Only a singular
template builds x-space rows, which eliminate lambda through the polar
cone of A_I (`cone_generators`, once per template, at its first nonempty
section).  A template keeps nothing that depends on the levels it has
seen, so no result depends on their order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, DimensionMismatch, EmptySet, NumericalBreakdown, SchemaError
from .optkernel import FEAS_TOL, solve_lp, solve_projection_qp
from .polyhedra import (
    PolyhedralSet,
    _minimal_face_rows,
    _projections,
    cone_generators,
    is_nonempty,
)
from .ratios import CMP_TOL
from .sets import _as_matrix, _as_vector, _satisfies_rows, _screened


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
        object.__setattr__(self, "_face_templates", None)

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


def residual(inst: AviInstance, x) -> ResidualValue:
    """Natural residual R(x) = x - P_C(x - Mx - q).

    Callers mostly hand x over as an array they computed, so it is screened
    by `_screened`, as the projection's target is, not scanned: a strided x
    gets the bits of its contiguous copy.  An x that passes is not copied:
    the residual and the projected point are new arrays either way.
    """
    x = _screened(x, inst.dim, "x")[0]
    projected = solve_projection_qp(inst.c_set, x - inst.m_op.dot(x) - inst.q)
    r = x - projected
    return ResidualValue(r=r, projected_point=projected, norm=math.sqrt(r.dot(r)))


def is_solution(inst: AviInstance, x) -> bool:
    """Direct check of <Mx + q, v - x> >= 0 for all v in C, via one LP,
    within the slack CMP_TOL (1 + ||x||): min (Mx + q) . v over C.  An
    unbounded LP is a ray of C along which (Mx + q) . v descends without
    bound, so x is no solution.
    """
    x = _as_vector(x, inst.dim, "x")
    scale = 1.0 + math.sqrt(x @ x)
    if not _satisfies_rows(inst.c_set, x, CMP_TOL * scale):
        return False
    w = inst.m_op @ x + inst.q
    res = solve_lp(inst.c_set, w)
    if res.status == "unbounded":
        return False
    if not res.is_optimal:  # C is nonempty by construction
        raise NumericalBreakdown(f"solution-test LP reported {res.status}")
    return res.value >= float(w @ x) - CMP_TOL * scale


class _PieceTemplate:
    """One active pattern's piece of R^{-1}(y): fixed rows, moving right-hand side.

    Built whole by `_build_templates`, with its cell: the lifted section
    {(x, lambda) : x - y in F_I, M x + A_I^T lambda = y - q, lambda >= 0},
    lambda on the active rows A_I of C, projected onto y, and the x-part
    x0 + X1 y of the section's particular point.  The cell's rows combine
    the section's inequality rows by the extreme rays of its projection
    cone (`polyhedra._projections`): the unit vectors where K below is
    nonsingular, rays in closed form where K has corank one, and double
    description's rays only where its corank is two or more.  The cell
    alone decides a level, by one tolerance rule: y lies in the cell when
    every row of `cell`, divided by the larger of 1 and the norm of its
    coefficients, holds within FEAS_TOL (1 + ||y||), the slack at which the
    kernel accepts a point.

    The x-space piece is the section projected onto x.  When the section's
    equality rows K z = d0 + D y, with z = (x, lambda) and K = [[A_I, 0],
    [M, A_I^T]], have a nonsingular K (`singular` False, by the rank rule of
    `polyhedra._projections`), they have the one solution z0 + Z1 y, so at
    a level in the cell the section is that point, its inequality rows
    holding within the cell's slack, and the piece is the point x0 + X1 y:
    the rows I x = x0 + X1 y and no others, a box.

    A singular template eliminates lambda instead: lambda >= 0 supported on
    the active rows exists iff y - q - Mx lies in cone(A_I^T), whose
    H-description comes from its polar {w : A_I w <= 0} = cone(W_ineq) +
    span(W_eq), as `cone_generators` returns it: each extreme ray w in
    W_ineq gives the row (-w M) x <= w (q - y), and each vector w of the
    lineality basis W_eq the row (-w M) x = w (q - y).  The empty pattern
    has the whole space as polar, so W_eq is the identity and W_ineq is
    empty.  With the rows of the face F_I, shifted by y, the piece at level
    y is {x : ineq_lhs x <= ineq_rhs(y), eq_lhs x = eq_rhs(y)}: face rows
    first, then polar rows.  A row whose coefficients all vanish (M singular,
    or a zero row of C) constrains y alone, and the piece leaves it out: the
    lifted section implies it, so a level in the cell satisfies it.  For a
    ray w with w M = 0, any point of the section gives
    w (y - q) = w M x + (A_I w) lambda = (A_I w) lambda <= 0, as A_I w <= 0
    and lambda >= 0; for w in W_eq, A_I w = 0 and the same sum is 0; and a
    zero row a of C gives 0 = a (x - y) <= alpha, or = alpha on an active
    row, since x - y lies in F_I.  Most singular templates never have a
    nonempty section, so the polar cone is not built and `ineq_lhs` and
    `eq_lhs` stay None until a section first comes out nonempty; `_x_rows`
    then builds them, once.  A nonsingular template never builds them.

    The template keeps the rows of F_I, A_I x = alpha_I and A_F x <= alpha_F
    with F the inactive rows, as views of the stacks `_build_templates`
    filled (C-contiguous, in C's row order), and M and q, not the instance:
    the instance holds its templates, and a reference cycle would keep both
    alive until the cycle collector runs.
    """

    def __init__(self, inst: AviInstance, active: tuple, face, cell: PolyhedralSet, x0, x1,
                 singular: bool):
        self.active = active
        self._A_I, self._alpha_I, self._A_F, self._alpha_F = face
        self.cell = cell
        self._x0, self._x1 = x0, x1
        self.singular = singular
        self._m_op = inst.m_op
        self._q = inst.q
        self.ineq_lhs = self.eq_lhs = None

    def _x_rows(self):
        """Build the x-space rows once: the polar cone's generators and the
        rows `ineq_lhs` and `eq_lhs` with a nonzero coefficient."""
        if self.ineq_lhs is not None:
            return
        M = self._m_op
        self._w_ineq, self._w_eq = cone_generators(self._A_I)
        ineq = np.vstack([self._A_F, -self._w_ineq @ M])
        eq = np.vstack([self._A_I, -self._w_eq @ M])
        self._ineq_kept = np.flatnonzero(np.max(np.abs(ineq), axis=1) > 1e-12)
        self._eq_kept = np.flatnonzero(np.max(np.abs(eq), axis=1) > 1e-12)
        self.ineq_lhs = ineq[self._ineq_kept]
        self.eq_lhs = eq[self._eq_kept]

    def section(self, y) -> PolyhedralSet | None:
        """Nonempty x-space piece at level y, or None: the cell decides by
        the tolerance rule above; the piece is the point x0 + X1 y, or, for
        a singular template, the face and polar rows, built if need be."""
        if not _satisfies_rows(self.cell, y, FEAS_TOL * (1.0 + math.sqrt(y @ y))):
            return None
        if not self.singular:
            return PolyhedralSet._computed(y.size, eq_lhs=np.eye(y.size),
                                           eq_rhs=self._x0 + self._x1 @ y)
        self._x_rows()
        q = self._q
        ineq_rhs = np.concatenate([self._alpha_F + self._A_F @ y, self._w_ineq @ (q - y)])
        eq_rhs = np.concatenate([self._alpha_I + self._A_I @ y, self._w_eq @ (q - y)])
        return PolyhedralSet._computed(
            y.size,
            ineq_lhs=self.ineq_lhs,
            ineq_rhs=ineq_rhs[self._ineq_kept],
            eq_lhs=self.eq_lhs,
            eq_rhs=eq_rhs[self._eq_kept],
        )


def _build_templates(inst: AviInstance, patterns: list) -> list:
    """The templates of the given patterns, in their order, each built whole
    with its cell, x0, X1 and whether its K is singular, with one stacked
    `polyhedra._projections` per pattern size k = |I|.

    Every pattern of one size has rows of one shape: z = (x, lambda) with
    K = [[A_I, 0], [M, A_I^T]], d0 = (alpha_I, -q) and D = [[A_I], [I]] for
    the equality rows, and L = [[A_F, 0], [0, -I]], r0 = (alpha_F, 0) and
    R = [[A_F], [0]] for the inequality rows, with F the inactive rows; each
    stack is filled from the index arrays of the patterns into C's rows, and
    each template keeps its slices of A_I, alpha_I, A_F and alpha_F.
    Every cell is computed before any template is built, so a CapExceeded
    or NumericalBreakdown passed on from the projection leaves nothing half
    built.
    """
    A, alpha = inst.c_set.ineq_lhs, inst.c_set.ineq_rhs
    n, m = inst.dim, inst.num_constraints
    by_size = {}
    for active in patterns:
        by_size.setdefault(len(active), []).append(active)
    built = {}
    for k, group in by_size.items():
        t = len(group)
        active = np.array(group, dtype=np.intp).reshape(t, k)
        inactive_mask = np.ones((t, m), dtype=bool)
        inactive_mask[np.arange(t)[:, None], active] = False
        inactive = np.nonzero(inactive_mask)[1].reshape(t, m - k)
        A_I, A_F = A[active], A[inactive]
        alpha_I, alpha_F = alpha[active], alpha[inactive]
        K = np.zeros((t, n + k, n + k))
        K[:, :k, :n] = A_I
        K[:, k:, :n] = inst.m_op
        K[:, k:, n:] = A_I.transpose(0, 2, 1)
        d0 = np.empty((t, n + k))
        d0[:, :k] = alpha_I
        d0[:, k:] = -inst.q
        D = np.empty((t, n + k, n))
        D[:, :k] = A_I
        D[:, k:] = np.eye(n)
        L = np.zeros((t, m, n + k))
        L[:, :m - k, :n] = A_F
        L[:, m - k:, n:] = -np.eye(k)
        r0 = np.zeros((t, m))
        r0[:, :m - k] = alpha_F
        R = np.zeros((t, m, n))
        R[:, :m - k] = A_F
        cells, z0, Z1, singular = _projections(K, d0, D, L, r0, R)
        faces = zip(A_I, alpha_I, A_F, alpha_F)
        built.update(zip(group, zip(faces, cells, z0[:, :n], Z1[:, :n], singular)))
    return [_PieceTemplate(inst, active, *built[active]) for active in patterns]


_PATTERN_BUDGET = 2_000_000


def _face_templates(inst: AviInstance) -> list:
    """Templates of the patterns with a nonempty face, ordered by subset rank.

    F_I is nonempty exactly when I is a subset of the rows tight at a point
    of one of C's minimal faces (`polyhedra._minimal_face_rows`, one double
    description of C, no phase one).  The patterns are the union of those
    subsets, the empty pattern always among them, expanded downward from
    each tuple; a pattern already collected has all its subsets collected
    too, so each pattern is expanded once.  Each template is built whole,
    with its cell (`_build_templates`).  Runs once per instance, which keeps
    the list.  Raises CapExceeded as soon as more than _PATTERN_BUDGET
    (2,000,000) patterns are collected, and passes on the double
    descriptions' CapExceeded (more than 1,024 rays after a cut) and
    NumericalBreakdown.
    """
    if inst._face_templates is not None:
        return inst._face_templates
    masks = {0}
    for tight in _minimal_face_rows(inst.c_set):
        stack = [sum(1 << i for i in tight)]
        while stack:
            mask = stack.pop()
            if mask in masks:
                continue
            masks.add(mask)
            if len(masks) > _PATTERN_BUDGET:
                raise CapExceeded(
                    f"face search finds more than {_PATTERN_BUDGET} active patterns, "
                    f"budget {_PATTERN_BUDGET}"
                )
            stack.extend(mask ^ 1 << i for i in range(mask.bit_length()) if mask >> i & 1)
    patterns = [tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
                for mask in sorted(masks)]
    templates = _build_templates(inst, patterns)
    object.__setattr__(inst, "_face_templates", templates)
    return templates


def inverse_residual(inst: AviInstance, y, keep_active: bool = False):
    """Pieces of R^{-1}(y), one x-space polyhedron per feasible active pattern.

    Only patterns whose face of C is nonempty are tested, in subset-rank
    order (bit i set when row i is active), each by its template's cell
    (`_PieceTemplate.section`), which depends on y alone; the templates are
    built, cells included, at the instance's first call.  The union of the
    returned sets is exactly the preimage; overlapping or repeated pieces
    are kept as-is.
    With keep_active=True, (active, piece) pairs are returned instead.
    """
    y = _as_vector(y, inst.dim, "y")
    pieces = []
    for template in _face_templates(inst):
        piece = template.section(y)
        if piece is not None:
            pieces.append((template.active, piece) if keep_active else piece)
    return pieces


def enumerate_solution_set(inst: AviInstance):
    """Polyhedral pieces whose union is the solution set (preimage of 0)."""
    return inverse_residual(inst, np.zeros(inst.dim))
