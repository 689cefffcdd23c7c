import itertools

import numpy as np
import pytest
from reference_oracles import build_kkt_piece, piece_section_points
from test_acceptance import _avi_corpus

from avibound import CapExceeded, EmptySet, PolyhedralSet
from avibound.avi import (
    AviInstance,
    _PieceTemplate,
    enumerate_solution_set,
    inverse_residual,
    is_solution,
    residual,
)
from avibound.config import DEFAULT_CAPS, DEFAULT_TOL, Caps
from avibound.instgen import canned_suite, generate_random_avi
from avibound.polyhedra import (
    enumerate_vertices,
    is_nonempty,
    nonnegative_orthant,
    union_distance,
)
from avibound.rng import SplitMix64


def lcp_1d():
    return AviInstance(m_op=[[1.0]], q=[-1.0], c_set=nonnegative_orthant(1))


def ray_2d():
    return AviInstance(
        m_op=[[0.0, 0.0], [0.0, 1.0]], q=[0.0, -1.0], c_set=nonnegative_orthant(2)
    )


def zero_op_interval():
    C = PolyhedralSet(1, ineq_lhs=[[1.0], [-1.0]], ineq_rhs=[1.0, 0.0])
    return AviInstance(m_op=[[0.0]], q=[0.0], c_set=C)


def identity_lcp(n=3):
    return AviInstance(m_op=np.eye(n), q=-np.ones(n), c_set=nonnegative_orthant(n))


def skew_2d():
    return AviInstance(
        m_op=[[0.0, 1.0], [-1.0, 0.0]], q=[-1.0, 0.0], c_set=nonnegative_orthant(2)
    )


def random_instance(seed, n=None, m=None):
    rng = SplitMix64(seed)
    n = n or rng.randint(1, 4)
    m = m or rng.randint(1, 6)
    M = np.array([[rng.normal() for _ in range(n)] for _ in range(n)])
    q = np.array([rng.normal() for _ in range(n)])
    witness = np.array([rng.normal() for _ in range(n)])
    A = np.array([[rng.normal() for _ in range(n)] for _ in range(m)])
    b = A @ witness + np.array([abs(rng.normal()) + 0.1 for _ in range(m)])
    return AviInstance(m_op=M, q=q, c_set=PolyhedralSet(n, ineq_lhs=A, ineq_rhs=b))


class TestConstruction:
    def test_rejects_empty_constraint_set(self):
        empty = PolyhedralSet(1, ineq_lhs=[[1.0], [-1.0]], ineq_rhs=[-1.0, 0.0])
        with pytest.raises(EmptySet):
            AviInstance(m_op=[[1.0]], q=[0.0], c_set=empty)

    def test_rejects_equality_rows(self):
        C = PolyhedralSet(1, eq_lhs=[[1.0]], eq_rhs=[0.0])
        with pytest.raises(Exception):
            AviInstance(m_op=[[1.0]], q=[0.0], c_set=C)

    def test_json_round_trip(self):
        inst = ray_2d()
        clone = AviInstance.from_json_dict(inst.to_json_dict())
        np.testing.assert_allclose(clone.m_op, inst.m_op)
        np.testing.assert_allclose(clone.q, inst.q)


class TestResidual:
    def test_one_dimensional_lcp(self):
        # target at x=3 is 3 - 3 + 1 = 1, projection 1, residual 2
        val = residual(lcp_1d(), [3.0])
        assert val.projected_point[0] == pytest.approx(1.0, abs=1e-10)
        assert val.r[0] == pytest.approx(2.0, abs=1e-10)
        assert val.norm == pytest.approx(2.0, abs=1e-10)

    def test_residual_is_identity_shift_for_lcp_1d(self):
        inst = lcp_1d()
        for x in (-2.0, 0.0, 0.5, 1.0, 4.0):
            assert residual(inst, [x]).r[0] == pytest.approx(x - 1.0, abs=1e-10)

    def test_zero_at_solutions(self):
        inst = identity_lcp(3)
        assert residual(inst, np.ones(3)).norm <= 1e-10

    def test_zero_operator_reduces_to_set_distance(self):
        inst = zero_op_interval()
        val = residual(inst, [2.5])
        assert val.r[0] == pytest.approx(1.5, abs=1e-10)
        assert val.projected_point[0] == pytest.approx(1.0, abs=1e-10)

    def test_projection_lands_in_constraint_set(self):
        rng = SplitMix64(11)
        for seed in range(20):
            inst = random_instance(seed + 1)
            x = np.array([2 * rng.normal() for _ in range(inst.dim)])
            val = residual(inst, x)
            assert inst.c_set.contains(val.projected_point, 1e-8)
            np.testing.assert_allclose(x - val.r, val.projected_point, atol=1e-10)

    def test_residual_lipschitz_bound(self):
        rng = SplitMix64(13)
        for seed in range(10):
            inst = random_instance(seed + 100)
            bound = 2.0 + np.linalg.norm(inst.m_op, 2)
            for _ in range(10):
                x = np.array([2 * rng.normal() for _ in range(inst.dim)])
                y = np.array([2 * rng.normal() for _ in range(inst.dim)])
                rx = residual(inst, x).r
                ry = residual(inst, y).r
                assert np.linalg.norm(rx - ry) <= bound * np.linalg.norm(x - y) + 1e-6


class TestIsSolution:
    def test_one_dimensional_lcp(self):
        inst = lcp_1d()
        assert is_solution(inst, [1.0])
        assert not is_solution(inst, [0.0])

    def test_zero_data_everything_solves(self):
        inst = zero_op_interval()
        for x in (0.0, 0.3, 1.0):
            assert is_solution(inst, [x])
        assert not is_solution(inst, [1.5])

    def test_ray_instance_point(self):
        assert is_solution(ray_2d(), [5.0, 1.0])
        assert not is_solution(ray_2d(), [5.0, 2.0])

    def test_fixed_point_equivalence(self):
        rng = SplitMix64(17)
        for seed in range(15):
            inst = random_instance(seed + 300)
            pieces = inverse_residual(inst, np.zeros(inst.dim))
            for piece in pieces:
                vs = enumerate_vertices(piece)
                for v in vs.vertices:
                    assert residual(inst, v).norm <= 1e-6
                    assert is_solution(inst, v)
            x = np.array([2 * rng.normal() for _ in range(inst.dim)])
            if residual(inst, x).norm > 1e-4:
                assert not is_solution(inst, x)


class TestKktPiece:
    def test_one_dimensional_transcription(self):
        # C = R_+ has the single row -x <= 0; with nothing active the rows are
        # the slack row -(x - y) <= 0 plus the pair pinning lambda at 0.
        piece = build_kkt_piece(lcp_1d(), active=())
        poly = piece.polyhedron_yxl
        np.testing.assert_allclose(poly.eq_lhs, [[1.0, -1.0, 1.0]])
        np.testing.assert_allclose(poly.eq_rhs, [-1.0])
        np.testing.assert_allclose(
            poly.ineq_lhs, [[1.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
        )
        np.testing.assert_allclose(poly.ineq_rhs, [0.0, 0.0, 0.0])

    def test_row_count_structure(self):
        inst = ray_2d()
        rows = range(inst.num_constraints)
        patterns = itertools.chain.from_iterable(
            itertools.combinations(rows, k) for k in range(len(rows) + 1)
        )
        for active in patterns:
            piece = build_kkt_piece(inst, active)
            assert piece.polyhedron_yxl.num_eq == inst.dim
            assert piece.polyhedron_yxl.num_ineq == 3 * inst.num_constraints

    def test_orthant_matches_componentwise_complementarity(self):
        # For C = R^n_+ a triple lies in the piece iff y - Mx - sum lam_i a_i = q
        # with the usual sign pattern; cross-check membership on samples.
        inst = identity_lcp(2)
        piece = build_kkt_piece(inst, active=(0,))
        poly = piece.polyhedron_yxl
        n = inst.dim

        def manual_member(y, x, lam):
            a_rows = inst.c_set.ineq_lhs
            if np.max(np.abs(y - inst.m_op @ x - a_rows.T @ lam - inst.q)) > 1e-9:
                return False
            slack = a_rows @ (x - y) - inst.c_set.ineq_rhs
            if abs(slack[0]) > 1e-9 or lam[0] < -1e-9:
                return False
            return slack[1] <= 1e-9 and abs(lam[1]) <= 1e-9

        rng = SplitMix64(23)
        agree = 0
        for _ in range(200):
            x = np.array([rng.normal() for _ in range(n)])
            lam = np.array([rng.normal(), 0.0 if rng.uniform() < 0.7 else rng.normal()])
            x[0] = -x[0] * np.sign(x[0])  # make row 0 tightable: x0 - y0 = 0
            y = x.copy()
            y[0] = x[0]
            y = inst.m_op @ x + inst.c_set.ineq_lhs.T @ lam + inst.q
            point = np.concatenate([y, x, lam])
            assert poly.contains(point, 1e-8) == manual_member(y, x, lam)
            agree += 1
        assert agree == 200


class TestInverseResidual:
    def test_one_dimensional_inversion(self):
        inst = lcp_1d()
        for y, expected in [(0.0, 1.0), (0.5, 1.5), (-0.25, 0.75)]:
            pieces = inverse_residual(inst, [y])
            assert pieces
            points = set()
            for piece in pieces:
                for v in enumerate_vertices(piece).vertices:
                    points.add(round(float(v[0]), 9))
            assert len(points) == 1
            assert points.pop() == pytest.approx(expected, abs=1e-9)

    def test_no_preimage_gives_empty_list(self):
        # residual of the ray instance is (min(x1, 0), x2 - 1): first
        # coordinate can never be positive
        assert inverse_residual(ray_2d(), [1.0, 0.0]) == []

    def test_zero_operator_recovers_constraint_set(self):
        inst = zero_op_interval()
        pieces = inverse_residual(inst, [0.0])
        rng = SplitMix64(29)
        for _ in range(200):
            x = np.array([rng.uniform_in(-0.5, 1.5)])
            inside_union = any(p.contains(x, 1e-9) for p in pieces)
            assert inside_union == inst.c_set.contains(x, 1e-9)

    def test_preimage_consistency_random(self):
        rng = SplitMix64(31)
        for seed in range(20):
            inst = random_instance(seed + 500)
            x = np.array([2 * rng.normal() for _ in range(inst.dim)])
            r = residual(inst, x)
            pieces = inverse_residual(inst, r.r)
            assert union_distance(pieces, x) <= 1e-6

    def test_piece_vertices_map_back_to_level(self):
        # soundness of the decomposition in the converse direction: every
        # vertex of every piece of the preimage must satisfy R(v) = y
        rng = SplitMix64(43)
        checked = 0
        for seed in range(12):
            inst = random_instance(seed + 900)
            probe = np.array([1.5 * rng.normal() for _ in range(inst.dim)])
            y = residual(inst, probe).r
            for piece in inverse_residual(inst, y):
                for v in enumerate_vertices(piece).vertices:
                    np.testing.assert_allclose(residual(inst, v).r, y, atol=1e-7)
                    checked += 1
        assert checked > 10

    def test_lifted_sections_project_into_pieces(self):
        rng = SplitMix64(37)
        for seed in range(10):
            inst = random_instance(seed + 700)
            y = residual(
                inst, np.array([rng.normal() for _ in range(inst.dim)])
            ).r
            labelled = inverse_residual(inst, y, keep_active=True)
            for active, piece in labelled:
                points = piece_section_points(inst, active, y)
                assert points, f"active {active} feasible but no section points"
                for x_part, lam in points:
                    assert piece.contains(x_part, 1e-7)
                    kkt = build_kkt_piece(inst, active)
                    triple = np.concatenate([y, x_part, lam])
                    assert kkt.polyhedron_yxl.contains(triple, 1e-7)

    def test_cap_enforced(self):
        # the root pattern and its three one-row children exceed a budget of 2
        inst = random_instance(3, n=2, m=3)
        with pytest.raises(CapExceeded, match="more than 2 active patterns, budget 2"):
            inverse_residual(inst, np.zeros(2), caps=Caps(subset_budget=2))

    def test_template_cache_respects_caps(self):
        # templates built under the default caps must not answer a call
        # whose smaller dim_cap rules the instance out, in either call order
        small = Caps(dim_cap=2)
        for small_first in (True, False):
            inst = generate_random_avi(
                n=3, m=5, monotonicity="strongly_monotone", seed=4
            )
            if small_first:
                with pytest.raises(CapExceeded, match="exceeds cap 2"):
                    inverse_residual(inst, np.zeros(3), caps=small)
            assert len(inverse_residual(inst, np.zeros(3))) == 1
            with pytest.raises(CapExceeded, match="exceeds cap 2"):
                inverse_residual(inst, np.zeros(3), caps=small)


def _brute_force_pieces(inst, levels):
    """Reference decomposition at each level: all 2^m patterns in subset-rank
    order."""
    m = inst.num_constraints
    templates = [
        _PieceTemplate(
            inst, tuple(i for i in range(m) if rank >> i & 1), DEFAULT_CAPS, DEFAULT_TOL
        )
        for rank in range(1 << m)
    ]
    per_level = []
    for y in levels:
        found = []
        for t in templates:
            piece = t.section(y, DEFAULT_TOL)
            if piece is not None and is_nonempty(piece, DEFAULT_TOL):
                found.append((t.active, piece))
        per_level.append(found)
    return per_level


def _row_bytes(piece):
    arrays = (piece.ineq_lhs, piece.ineq_rhs, piece.eq_lhs, piece.eq_rhs)
    return [(a.shape, a.tobytes()) for a in arrays]


def test_face_search_matches_brute_force():
    corpus = [e.payload for e in canned_suite() if e.kind == "avi"]
    corpus += [inst for _, _, inst in _avi_corpus()]
    rng = SplitMix64(47)
    compared = 0
    for inst in corpus:
        levels = [np.zeros(inst.dim)]
        for _ in range(2):
            x = np.array([2.0 * rng.normal() for _ in range(inst.dim)])
            levels.append(residual(inst, x).r)
        for y, expected in zip(levels, _brute_force_pieces(inst, levels)):
            got = inverse_residual(inst, y, keep_active=True)
            assert [a for a, _ in got] == [a for a, _ in expected]
            for (_, piece), (_, ref) in zip(got, expected):
                assert _row_bytes(piece) == _row_bytes(ref)
            compared += len(expected)
    assert compared > 100


def test_twenty_rows_beyond_the_old_cap():
    # 16 generated rows plus 4 far rows; the face search visits only the
    # nonempty faces, so 20 rows at n = 3 stay desk-scale
    base = generate_random_avi(n=3, m=16, monotonicity="strongly_monotone", seed=1)
    extra = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    inst = AviInstance(
        m_op=base.m_op,
        q=base.q,
        c_set=PolyhedralSet(
            3,
            ineq_lhs=np.vstack([base.c_set.ineq_lhs, extra]),
            ineq_rhs=np.concatenate([base.c_set.ineq_rhs, np.full(4, 100.0)]),
        ),
    )
    assert inst.num_constraints == 20
    pieces = enumerate_solution_set(inst)
    assert pieces
    vertices = [v for p in pieces for v in enumerate_vertices(p).vertices]
    assert vertices
    assert all(is_solution(inst, v) for v in vertices)


class TestSolutionSet:
    def test_identity_lcp_single_point(self):
        pieces = enumerate_solution_set(identity_lcp(3))
        points = set()
        for piece in pieces:
            for v in enumerate_vertices(piece).vertices:
                points.add(tuple(np.round(v, 8)))
        assert points == {(1.0, 1.0, 1.0)}

    def test_ray_instance(self):
        pieces = enumerate_solution_set(ray_2d())
        # union must be the ray {(t, 1): t >= 0}
        for t in (0.0, 1.0, 10.0):
            assert any(p.contains([t, 1.0], 1e-8) for p in pieces)
        for bad in ([0.0, 0.0], [-1.0, 1.0], [1.0, 1.5]):
            assert not any(p.contains(bad, 1e-8) for p in pieces)

    def test_zero_data_solution_set_is_c(self):
        pieces = enumerate_solution_set(zero_op_interval())
        rng = SplitMix64(41)
        for _ in range(100):
            x = np.array([rng.uniform_in(-0.5, 1.5)])
            assert any(p.contains(x, 1e-9) for p in pieces) == (0.0 <= x[0] <= 1.0)

    def test_skew_instance_solution_ray(self):
        pieces = enumerate_solution_set(skew_2d())
        for good in ([0.0, 1.0], [0.0, 2.5]):
            assert any(p.contains(good, 1e-8) for p in pieces)
        for bad in ([0.0, 0.5], [1.0, 1.0]):
            assert not any(p.contains(bad, 1e-8) for p in pieces)

    def test_all_vertices_solve(self):
        for builder in (lcp_1d, ray_2d, zero_op_interval, identity_lcp, skew_2d):
            inst = builder()
            for piece in enumerate_solution_set(inst):
                for v in enumerate_vertices(piece).vertices:
                    assert is_solution(inst, v), builder.__name__
