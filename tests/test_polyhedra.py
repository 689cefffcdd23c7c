import itertools
import math

import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space
from test_acceptance import _avi_corpus

from avibound import CapExceeded, EmptySet, NumericalBreakdown, PolyhedralSet, optkernel, polyhedra
from avibound.avi import _face_templates
from avibound.config import DEFAULT_CAPS, DEFAULT_TOL, Caps
from avibound.gpm import evaluate
from avibound.instgen import canned_suite
from avibound.polyhedra import (
    box,
    cone_generators,
    distance,
    enumerate_vertices,
    from_generators,
    hausdorff,
    is_nonempty,
    nonnegative_orthant,
    union_distance,
)
from avibound.rng import SplitMix64

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import workloads  # noqa: E402


def brute_force_vertices(A, b):
    """Oracle: basic feasible points of {Ax <= b} by subset enumeration."""
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    n = A.shape[1]
    found = []
    for rows in itertools.combinations(range(A.shape[0]), n):
        sub = A[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, b[list(rows)])
        if np.max(A @ x - b) <= 1e-9:
            if all(np.linalg.norm(x - y) > 1e-7 for y in found):
                found.append(x)
    return found


def assert_same_points(actual, expected, tol=1e-7):
    assert len(actual) == len(expected)
    for p in expected:
        assert any(np.linalg.norm(p - q) <= tol for q in actual)


class TestContains:
    def test_orthant_member(self):
        assert nonnegative_orthant(2).contains([0.0, 0.0])

    def test_orthant_nonmember(self):
        assert not nonnegative_orthant(2).contains([-1.0, 0.0])

    def test_facet_point(self):
        S = PolyhedralSet(
            2, ineq_lhs=[[1, 1], [-1, 0], [0, -1]], ineq_rhs=[1.0, 0.0, 0.0]
        )
        assert S.contains([0.5, 0.5])


class TestEnumerateVertices:
    def test_unit_square(self):
        vs = enumerate_vertices(box([0, 0], [1, 1]))
        assert vs.is_bounded
        assert_same_points(
            vs.vertices, [np.array(p) for p in [(0, 0), (0, 1), (1, 0), (1, 1)]]
        )

    def test_halfline(self):
        vs = enumerate_vertices(nonnegative_orthant(1))
        assert not vs.is_bounded
        assert_same_points(vs.vertices, [np.zeros(1)])
        assert len(vs.recession_rays) == 1
        np.testing.assert_allclose(vs.recession_rays[0], [1.0])

    def test_simplex_matches_brute_force(self):
        A = [[1, 1], [-1, 0], [0, -1]]
        b = [1.0, 0.0, 0.0]
        vs = enumerate_vertices(PolyhedralSet(2, ineq_lhs=A, ineq_rhs=b))
        oracle = brute_force_vertices(A, b)
        assert len(oracle) == 3
        assert_same_points(vs.vertices, oracle)
        assert vs.is_bounded

    def test_random_sets_match_brute_force(self):
        rng = SplitMix64(7)
        bounded_seen = 0
        for _ in range(60):
            n = rng.randint(2, 3)
            m = rng.randint(n + 1, 7)
            A = np.array([[rng.normal() for _ in range(n)] for _ in range(m)])
            b = np.array([rng.normal() + 1.5 for _ in range(m)])
            S = PolyhedralSet(n, ineq_lhs=A, ineq_rhs=b)
            if not is_nonempty(S):
                continue
            vs = enumerate_vertices(S)
            assert_same_points(vs.vertices, brute_force_vertices(A, b), tol=1e-6)
            if vs.is_bounded:
                bounded_seen += 1
        assert bounded_seen > 3

    def test_vertices_are_members(self):
        S = PolyhedralSet(
            3,
            ineq_lhs=[[1, 1, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, -1, 0]],
            ineq_rhs=[2.0, 0.0, 0.0, 0.0, 0.5],
        )
        vs = enumerate_vertices(S)
        for v in vs.vertices:
            assert S.contains(v, 1e-9)

    def test_non_pointed_line(self):
        # {x in R^2 : x1 >= 0} has lineality e2; expect a minimal-face point
        # plus the +-e2 pair and the +e1 ray.
        S = PolyhedralSet(2, ineq_lhs=[[-1.0, 0.0]], ineq_rhs=[0.0])
        vs = enumerate_vertices(S)
        assert not vs.is_bounded
        assert len(vs.vertices) == 1
        directions = {tuple(np.round(r, 6)) for r in vs.recession_rays}
        assert (0.0, 1.0) in directions and (0.0, -1.0) in directions
        assert (1.0, 0.0) in directions

    def test_empty_raises(self):
        S = PolyhedralSet(1, ineq_lhs=[[1.0], [-1.0]], ineq_rhs=[-1.0, 0.0])
        with pytest.raises(EmptySet):
            enumerate_vertices(S)

    def test_caps(self):
        S = nonnegative_orthant(12)
        with pytest.raises(CapExceeded):
            enumerate_vertices(S)
        enumerate_vertices(S, caps=Caps(dim_cap=12, row_cap=24))

    def test_duplicate_facets_dedup(self):
        S = PolyhedralSet(
            2,
            ineq_lhs=[[1, 0], [1, 0], [0, 1], [-1, 0], [0, -1], [0.5, 0]],
            ineq_rhs=[1, 1, 1, 0, 0, 0.5],
        )
        vs = enumerate_vertices(S)
        assert vs.is_bounded
        assert len(vs.vertices) == 4

    def test_degenerate_corner_counted_once(self):
        # x1 <= 1 and x2 <= 1 are tangent to the simplex at its corners
        S = PolyhedralSet(
            2,
            ineq_lhs=[[1, 1], [1, 0], [0, 1], [-1, 0], [0, -1]],
            ineq_rhs=[1, 1, 1, 0, 0],
        )
        vs = enumerate_vertices(S)
        assert_same_points(
            vs.vertices, [np.array(p) for p in [(0, 0), (1, 0), (0, 1)]]
        )

    def test_hull_plus_rays_covers_members(self):
        # every sampled member must be conv(V) + cone(R) representable,
        # checked by LP feasibility on the hull coefficients
        from avibound.optkernel import LinearProgram, solve_lp

        S = PolyhedralSet(
            2, ineq_lhs=[[-1.0, 0.0], [0.0, -1.0], [-1.0, 1.0]], ineq_rhs=[0.0, 0.0, 1.0]
        )
        vs = enumerate_vertices(S)
        rng = SplitMix64(12)
        for _ in range(100):
            x = np.array([abs(3 * rng.normal()), abs(3 * rng.normal())])
            if not S.contains(x, 1e-9):
                continue
            V = np.array(vs.vertices).T
            R = (
                np.array(vs.recession_rays).T
                if vs.recession_rays
                else np.zeros((2, 0))
            )
            nv, nr = V.shape[1], R.shape[1]
            eq = np.vstack(
                [
                    np.hstack([V, R]),
                    np.concatenate([np.ones(nv), np.zeros(nr)])[None, :],
                ]
            )
            rhs = np.concatenate([x, [1.0]])
            lp = LinearProgram(
                objective=np.zeros(nv + nr),
                eq_lhs=eq,
                eq_rhs=rhs,
                ineq_lhs=-np.eye(nv + nr),
                ineq_rhs=np.zeros(nv + nr),
            )
            assert solve_lp(lp).status == "optimal"


class TestDistance:
    def test_member(self):
        S = nonnegative_orthant(2)
        d, z = distance(S, [1.0, 2.0])
        assert d == 0.0
        np.testing.assert_allclose(z, [1.0, 2.0])

    def test_halfline(self):
        d, z = distance(nonnegative_orthant(1), [-2.0])
        assert d == pytest.approx(2.0, abs=1e-10)
        np.testing.assert_allclose(z, [0.0], atol=1e-12)

    def test_simplex(self):
        S = PolyhedralSet(
            2, ineq_lhs=[[1, 1], [-1, 0], [0, -1]], ineq_rhs=[1.0, 0.0, 0.0]
        )
        d, z = distance(S, [1.0, 1.0])
        assert d == pytest.approx(math.sqrt(2) / 2, abs=1e-9)
        np.testing.assert_allclose(z, [0.5, 0.5], atol=1e-9)


class TestHausdorff:
    def test_identical(self):
        S = box([0, 0], [1, 1])
        assert hausdorff(S, S) == pytest.approx(0.0, abs=1e-10)

    def test_intervals(self):
        h = hausdorff(box([0.0], [1.0]), box([0.0], [2.0]))
        assert h == pytest.approx(1.0, abs=1e-10)

    def test_shifted_squares_matches_brute_force(self):
        a = box([0, 0], [1, 1])
        b = box([1, 0], [2, 1])
        va = enumerate_vertices(a).vertices
        vb = enumerate_vertices(b).vertices
        oracle = max(
            max(distance(b, v)[0] for v in va),
            max(distance(a, w)[0] for w in vb),
        )
        assert oracle == pytest.approx(1.0, abs=1e-10)
        assert hausdorff(a, b) == pytest.approx(oracle, abs=1e-9)

    def test_recession_mismatch_is_infinite(self):
        assert hausdorff(nonnegative_orthant(1), box([0.0], [1.0])) == math.inf

    def test_matching_cones_give_exact_distance(self):
        a = nonnegative_orthant(1)
        shifted = PolyhedralSet(1, ineq_lhs=[[-1.0]], ineq_rhs=[-1.0])  # x >= 1
        assert hausdorff(a, shifted) == pytest.approx(1.0, abs=1e-9)

    def test_unbounded_pairs_attain_the_vertex_value(self):
        # sets with the same rows and different right-hand sides share their
        # recession cone, so the vertex formula is the distance: points of
        # either set pushed far out along its rays never lie farther from the
        # other set than the returned value
        rng = SplitMix64(0x4A05)
        pairs = unbounded = 0
        while pairs < 60:
            n, m = rng.randint(1, 3), rng.randint(1, 4)
            A = np.array([[rng.normal() for _ in range(n)] for _ in range(m)])
            sets = [
                PolyhedralSet(n, ineq_lhs=A, ineq_rhs=[rng.normal() for _ in range(m)])
                for _ in range(2)
            ]
            if not all(is_nonempty(S) for S in sets):
                continue
            pairs += 1
            h = hausdorff(*sets)
            assert h == pytest.approx(hausdorff(*reversed(sets)), abs=1e-9)
            assert h < math.inf
            for S, other in (sets, reversed(sets)):
                vs = enumerate_vertices(S)
                unbounded += not vs.is_bounded
                for _ in range(20):
                    weights = np.array([rng.uniform() for _ in vs.vertices])
                    p = weights @ np.array(vs.vertices) / weights.sum()
                    for ray in vs.recession_rays:
                        p = p + 10.0 ** rng.uniform_in(0.0, 4.0) * ray
                    assert distance(other, p)[0] <= h + 1e-9
        assert unbounded >= 60


class TestUnionDistance:
    def test_two_points(self):
        pieces = [
            PolyhedralSet(1, eq_lhs=[[1.0]], eq_rhs=[0.0]),
            PolyhedralSet(1, eq_lhs=[[1.0]], eq_rhs=[2.0]),
        ]
        assert union_distance(pieces, [0.5]) == pytest.approx(0.5, abs=1e-10)

    def test_inside_any_piece(self):
        pieces = [box([0.0], [1.0]), box([2.0], [3.0])]
        assert union_distance(pieces, [2.5]) == pytest.approx(0.0, abs=1e-12)

    def test_solution_ray(self):
        # ray {(t, 1): t >= 0}
        ray = PolyhedralSet(
            2, eq_lhs=[[0.0, 1.0]], eq_rhs=[1.0], ineq_lhs=[[-1.0, 0.0]], ineq_rhs=[0.0]
        )
        assert union_distance([ray], [2.0, 1.5]) == pytest.approx(0.5, abs=1e-9)

    def test_all_empty_raises(self):
        empty = PolyhedralSet(1, ineq_lhs=[[1.0], [-1.0]], ineq_rhs=[-1.0, 0.0])
        with pytest.raises(EmptySet):
            union_distance([empty], [0.0])


class TestFromGenerators:
    def test_single_point(self):
        S = from_generators([np.array([1.0, -2.0])])
        assert S.contains([1.0, -2.0], 1e-9)
        assert not S.contains([1.0, -1.9], 1e-6)

    def test_square_round_trip(self):
        original = box([0, 0], [1, 1])
        vs = enumerate_vertices(original)
        rebuilt = from_generators(vs.vertices, vs.recession_rays)
        rng = SplitMix64(3)
        for _ in range(200):
            x = np.array([rng.uniform_in(-0.5, 1.5), rng.uniform_in(-0.5, 1.5)])
            assert original.contains(x, 1e-9) == rebuilt.contains(x, 1e-7)

    def test_ray_round_trip(self):
        ray = PolyhedralSet(
            2, eq_lhs=[[0.0, 1.0]], eq_rhs=[1.0], ineq_lhs=[[-1.0, 0.0]], ineq_rhs=[0.0]
        )
        vs = enumerate_vertices(ray)
        rebuilt = from_generators(vs.vertices, vs.recession_rays)
        for x, inside in [
            ([0.0, 1.0], True),
            ([5.0, 1.0], True),
            ([-0.1, 1.0], False),
            ([1.0, 1.2], False),
        ]:
            assert rebuilt.contains(x, 1e-7) == inside

    def test_random_polytopes_round_trip(self):
        rng = SplitMix64(21)
        done = 0
        for _ in range(40):
            n = 2
            m = rng.randint(3, 6)
            A = np.array([[rng.normal() for _ in range(n)] for _ in range(m)])
            b = np.array([abs(rng.normal()) + 0.2 for _ in range(m)])
            S = PolyhedralSet(n, ineq_lhs=A, ineq_rhs=b)
            try:
                vs = enumerate_vertices(S)
            except EmptySet:
                continue
            rebuilt = from_generators(vs.vertices, vs.recession_rays)
            for _ in range(50):
                x = np.array([2 * rng.normal() for _ in range(n)])
                member = S.contains(x, 1e-9)
                if abs(S.violation(x)) < 1e-6:
                    continue  # skip points hugging the boundary
                assert rebuilt.contains(x, 1e-6) == member
            done += 1
        assert done > 20


@settings(max_examples=40, deadline=None)
@given(
    lo1=st.floats(-3, 3),
    w1=st.floats(0.1, 3),
    lo2=st.floats(-3, 3),
    w2=st.floats(0.1, 3),
    lo3=st.floats(-3, 3),
    w3=st.floats(0.1, 3),
)
def test_hausdorff_symmetry_and_triangle(lo1, w1, lo2, w2, lo3, w3):
    a = box([lo1], [lo1 + w1])
    b = box([lo2], [lo2 + w2])
    c = box([lo3], [lo3 + w3])
    hab = hausdorff(a, b)
    hba = hausdorff(b, a)
    hac = hausdorff(a, c)
    hcb = hausdorff(c, b)
    assert hab == pytest.approx(hba, abs=1e-6)
    assert hab <= hac + hcb + 1e-6


# --- double description against the exhaustive subset scan -----------------


def _dedup(points, tol, relative):
    kept = []
    for p in points:
        if all(
            np.linalg.norm(p - q) > tol * ((1.0 + np.linalg.norm(q)) if relative else 1.0)
            for q in kept
        ):
            kept.append(p)
    return kept


def exhaustive_scan(S, tol=DEFAULT_TOL):
    """Reference: the subset scan `enumerate_vertices` ran before double
    description.  Every `free`-subset of inequality rows is tried for a
    vertex and every `free - 1`-subset for a recession ray, in lexicographic
    order.  Returns (vertices, recession_rays)."""
    n = S.ambient_dim
    rows = np.vstack([S.eq_lhs, S.ineq_lhs])
    L = null_space(rows, rcond=1e-9) if rows.shape[0] else np.eye(n)
    E0 = np.vstack([S.eq_lhs, L.T])
    d0 = np.concatenate([S.eq_rhs, np.zeros(L.shape[1])])
    A, b = S.ineq_lhs, S.ineq_rhs
    m = A.shape[0]
    free = n - (np.linalg.matrix_rank(E0, tol=1e-9) if E0.size else 0)
    vertices = []
    if free == 0:
        x = np.linalg.lstsq(E0, d0, rcond=None)[0]
        if np.linalg.norm(E0 @ x - d0) <= tol.feas * (1 + np.linalg.norm(d0)):
            if m == 0 or np.max(A @ x - b) <= tol.feas * (1 + np.linalg.norm(x)):
                vertices.append(x)
    else:
        for subset in itertools.combinations(range(m), free):
            M = np.vstack([E0, A[list(subset)]])
            if np.linalg.matrix_rank(M, tol=1e-9) < n:
                continue
            rhs = np.concatenate([d0, b[list(subset)]])
            x = np.linalg.lstsq(M, rhs, rcond=None)[0]
            if np.linalg.norm(M @ x - rhs) > tol.feas * (1 + np.linalg.norm(rhs)):
                continue
            if m and np.max(A @ x - b) > tol.feas * (1 + np.linalg.norm(x)):
                continue
            vertices.append(x)
    rays = []
    if free >= 1:
        for subset in itertools.combinations(range(m), free - 1):
            M = np.vstack([E0, A[list(subset)]])
            ns = null_space(M, rcond=1e-9) if M.size else np.eye(n)
            if ns.shape[1] != 1:
                continue
            v = ns[:, 0]
            if m and np.max(A @ v) <= tol.feas:
                rays.append(v)
            elif m and np.max(A @ (-v)) <= tol.feas:
                rays.append(-v)
            elif m == 0:
                rays.extend([v, -v])
    rays = _dedup(rays, tol.cmp, relative=False)
    for j in range(L.shape[1]):
        rays.extend([L[:, j], -L[:, j]])
    return _dedup(vertices, tol.cmp, relative=True), rays


def assert_same_bits(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.shape == e.shape and g.tobytes() == e.tobytes()


def assert_matches_scan(S):
    vs = enumerate_vertices(S)
    vertices, rays = exhaustive_scan(S)
    assert_same_bits(vs.vertices, vertices)
    assert_same_bits(vs.recession_rays, rays)
    assert vs.is_bounded == (not rays)


def assert_cone_matches_scan(rows):
    rows = np.asarray(rows, dtype=float)
    cone = PolyhedralSet(rows.shape[1], ineq_lhs=rows, ineq_rhs=np.zeros(len(rows)))
    assert_same_bits(cone_generators(rows), exhaustive_scan(cone)[1])


def _normals(rng, rows, cols):
    return np.array([[rng.normal() for _ in range(cols)] for _ in range(rows)])


def _random_sets(seed, count):
    """Seeded H-polyhedra with n = 2..5: every other one boxed (bounded)."""
    rng = SplitMix64(seed)
    sets = []
    while len(sets) < count:
        n = rng.randint(2, 5)
        m = rng.randint(n + 1, n + 6)
        A = _normals(rng, m, n)
        b = np.array([rng.normal() + 1.0 for _ in range(m)])
        if len(sets) % 2:
            A = np.vstack([A, np.eye(n), -np.eye(n)])
            b = np.concatenate([b, np.full(2 * n, 2.0)])
        S = PolyhedralSet(n, ineq_lhs=A, ineq_rhs=b)
        if is_nonempty(S):
            sets.append(S)
    return sets


def _section_points(f, seed, count=4):
    rng = SplitMix64(seed)
    sections = []
    for _ in range(count):
        section = evaluate(f, [rng.normal() for _ in range(f.input_dim)])
        if is_nonempty(section):
            sections.append(section)
    return sections


class TestDoubleDescriptionMatchesScan:
    """Same vertices and rays as the exhaustive scan, in the same order and
    bit for bit."""

    def test_canned_sets(self):
        compared = 0
        for i, entry in enumerate(canned_suite()):
            if entry.kind == "avi":
                sets = [entry.payload.c_set]
            elif entry.kind == "gpm":
                sets = _section_points(entry.payload, 90 + i)
            else:
                continue
            for S in sets:
                assert_matches_scan(S)
                compared += 1
        assert compared >= 20

    def test_random_polyhedra(self):
        sets = _random_sets(5, 64)
        bounded = 0
        for S in sets:
            assert_matches_scan(S)
            bounded += enumerate_vertices(S).is_bounded
        assert 20 <= bounded <= 60

    def test_duplicate_and_tangent_rows(self):
        for A, b in (
            ([[1, 0], [1, 0], [0, 1], [-1, 0], [0, -1], [0.5, 0]], [1, 1, 1, 0, 0, 0.5]),
            ([[1, 1], [1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 1, 0, 0]),
            # a pyramid apex: four facets through one vertex
            ([[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1], [0, 0, -1]], [1, 1, 1, 1, 0]),
        ):
            A = np.asarray(A, dtype=float)
            assert_matches_scan(PolyhedralSet(A.shape[1], ineq_lhs=A, ineq_rhs=b))
        for S in _random_sets(11, 12):
            A = np.vstack([S.ineq_lhs, S.ineq_lhs[:2], 2.0 * S.ineq_lhs[2:3]])
            b = np.concatenate([S.ineq_rhs, S.ineq_rhs[:2], 2.0 * S.ineq_rhs[2:3]])
            assert_matches_scan(PolyhedralSet(S.ambient_dim, ineq_lhs=A, ineq_rhs=b))

    def test_near_parallel_rows(self):
        # a copy of one row tilted by 1e-3 .. 1e-10, with the same or a
        # shifted right-hand side; a zero threshold of 1e-9 or looser
        # (instead of _ZERO_TOL) loses a vertex or ray on one of these
        rng = SplitMix64(13)
        compared = broken = 0
        for k, S in enumerate(_random_sets(42, 40)):
            n = S.ambient_dim
            j = rng.randint(0, S.num_ineq - 1)
            scale = 10.0 ** -(3 + k % 8)
            tilt = np.ones(n) if k % 3 == 0 else np.array([rng.normal() for _ in range(n)])
            rhs = S.ineq_rhs[j] + (scale * rng.normal() if k % 2 else 0.0)
            S = PolyhedralSet(
                n,
                ineq_lhs=np.vstack([S.ineq_lhs, S.ineq_lhs[j] + scale * tilt]),
                ineq_rhs=np.concatenate([S.ineq_rhs, [rhs]]),
            )
            try:
                is_nonempty(S)
            except NumericalBreakdown:
                # phase one breaks down on some near-parallel pairs; that is
                # a fault of the simplex kernel, not of the enumeration
                broken += 1
                continue
            assert_matches_scan(S)
            compared += 1
        assert compared >= 34, broken

    def test_equality_rows_and_lineality(self):
        rng = SplitMix64(19)
        for k, S in enumerate(_random_sets(23, 24)):
            n = S.ambient_dim
            if k % 2:
                E = _normals(rng, 1 + k % (n - 1), n)
                d = E @ np.array([0.1 * rng.normal() for _ in range(n)])
                S = PolyhedralSet(n, ineq_lhs=S.ineq_lhs, ineq_rhs=S.ineq_rhs, eq_lhs=E, eq_rhs=d)
            else:
                # rows confined to a hyperplane: one lineality direction
                Q = np.linalg.qr(_normals(rng, n, n))[0][:, : n - 1]
                S = PolyhedralSet(n, ineq_lhs=S.ineq_lhs @ Q @ Q.T, ineq_rhs=S.ineq_rhs)
            if is_nonempty(S):
                assert_matches_scan(S)

    def test_sets_empty_up_to_the_tolerance(self):
        # exactly empty, but within tol.feas of a point: no vertex of the
        # homogenized cone has t > 0, so every subset is scanned
        for A, b in (
            ([[1.0], [-1.0]], [-1e-10, 0.0]),
            ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]],
             [1e-10, 0.0, 1e-10, 0.0, -1e-10]),
        ):
            S = PolyhedralSet(len(A[0]), ineq_lhs=A, ineq_rhs=b)
            assert is_nonempty(S)
            assert_matches_scan(S)

    def test_box_gpm_sections(self):
        compared = 0
        for j in range(9):
            f = workloads.box_gpm(4000 + j, 2 + (j // 3) % 2, 2 + j % 3)
            for S in _section_points(f, 60 + j):
                assert_matches_scan(S)
                compared += 1
        assert compared >= 20

    def test_lifted_cones_of_from_generators(self):
        compared = 0
        for S in _random_sets(29, 24):
            vs = enumerate_vertices(S)
            lifted = [np.concatenate([v, [1.0]]) for v in vs.vertices]
            lifted += [np.concatenate([r, [0.0]]) for r in vs.recession_rays]
            if len(lifted) <= DEFAULT_CAPS.row_cap:
                assert_cone_matches_scan(lifted)
                compared += 1
        assert compared >= 12

    def test_avi_face_templates(self):
        cones = 0
        for _, _, inst in _avi_corpus():
            A = inst.c_set.ineq_lhs
            for template in _face_templates(inst, DEFAULT_CAPS, DEFAULT_TOL):
                if template.active:
                    assert_cone_matches_scan(A[list(template.active)])
                    cones += 1
                piece = template.section(np.zeros(inst.dim), DEFAULT_TOL)
                if piece is not None and is_nonempty(piece):
                    assert_matches_scan(piece)
        assert cones > 300


def _count_calls(monkeypatch, module, name, counter):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counter[name] = counter.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_cone_generators_run_no_phase_one(monkeypatch):
    calls = {}
    _count_calls(monkeypatch, optkernel, "solve_feasibility", calls)
    rng = SplitMix64(31)
    for _ in range(20):
        rows = _normals(rng, rng.randint(1, 6), rng.randint(2, 4))
        cone_generators(rows)
    from_generators([np.array(p, dtype=float) for p in [(0, 0), (1, 0), (0, 1), (1, 1)]])
    from_generators([np.zeros(2)], [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert calls == {}
    # the counter does see the phase-one solve of a non-box set
    assert is_nonempty(PolyhedralSet(2, ineq_lhs=[[1, 1], [-1, 0], [0, -1]], ineq_rhs=[1, 0, 0]))
    assert calls == {"solve_feasibility": 1}


def test_redundant_rows_cost_nothing(monkeypatch):
    # the unit cube plus 18 far rows: the scan tried C(24, 3) = 2024 bases
    # and C(24, 2) = 276 null spaces; double description solves only at the
    # 8 vertices
    rng = SplitMix64(37)
    far = _normals(rng, 18, 3)
    far /= np.linalg.norm(far, axis=1)[:, None]
    cube = PolyhedralSet(
        3,
        ineq_lhs=np.vstack([np.eye(3), -np.eye(3), far]),
        ineq_rhs=np.concatenate([np.ones(3), np.zeros(3), np.full(18, 100.0)]),
    )
    calls = {}
    _count_calls(monkeypatch, np.linalg, "matrix_rank", calls)
    _count_calls(monkeypatch, np.linalg, "lstsq", calls)
    _count_calls(monkeypatch, polyhedra, "null_space", calls)
    vs = enumerate_vertices(cube)
    assert len(vs.vertices) == 8 and vs.is_bounded
    assert sum(calls.values()) <= 3 * 8
