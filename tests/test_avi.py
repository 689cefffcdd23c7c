import gc
import hashlib
import itertools
import json
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from reference_oracles import (
    build_kkt_piece,
    face_search_dfs,
    face_violation,
    piece_section_points,
    reference_cell,
    reference_piece,
)
from scipy.optimize import linear_sum_assignment
from test_acceptance import _avi_corpus
from test_optkernel import _degenerate_sets
from test_polyhedra import _all_near_parallel_sets, _count_calls

from avibound import (
    CapExceeded,
    EmptySet,
    NumericalBreakdown,
    PolyhedralSet,
    avi,
    optkernel,
    polyhedra,
)
from avibound.avi import (
    AviInstance,
    _build_templates,
    _face_templates,
    enumerate_solution_set,
    inverse_residual,
    is_solution,
    residual,
)
from avibound.bounds import (
    LipschitzCheckConfig,
    SolutionGeometry,
    find_local_radius,
    verify_upper_lipschitz_inverse,
)
from avibound.instgen import MONOTONICITY_CLASSES, canned_suite, generate_random_avi
from avibound.optkernel import FEAS_TOL, solve_projection_qp
from avibound.polyhedra import (
    box,
    distance,
    enumerate_vertices,
    feasible_point,
    is_nonempty,
    nonnegative_orthant,
    union_distance,
)
from avibound.rng import SplitMix64

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


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
        # A projection is a function of its set and its target: at a point
        # inside C the residual's projection lands, bit for bit, where a
        # direct projection of the same target onto C does.
        rng = SplitMix64(11)
        warm = 0
        for seed in range(20):
            inst = random_instance(seed + 1)
            x = np.array([2 * rng.normal() for _ in range(inst.dim)])
            val = residual(inst, x)
            assert inst.c_set.contains(val.projected_point, 1e-8)
            np.testing.assert_allclose(x - val.r, val.projected_point, atol=1e-10)
            inside = val.projected_point
            u = inside - inst.m_op @ inside - inst.q
            cold = solve_projection_qp(inst.c_set, u)
            scale = 1.0 + np.linalg.norm(u)
            assert residual(inst, inside).projected_point.tobytes() == cold.tobytes()
            warm += not inst.c_set.contains(u, FEAS_TOL * scale)
        assert warm >= 10

    def test_residual_and_distance_project_alike(self):
        # With M = 0 and q = v - u, the residual's target at v is u itself,
        # so R(v) and d(u, S) project the same target onto the same set and
        # must get the same bits, though the residual is evaluated at the
        # degenerate vertex v.  Sets with equality rows are left out.
        compared = 0
        for seed, (S, v, normals) in enumerate(_degenerate_sets()):
            if S.num_eq:
                continue
            rng = SplitMix64(9000 + seed)
            weights = np.array([abs(rng.normal()) for _ in range(len(normals))])
            u = v + weights @ normals
            n = S.ambient_dim
            inst = AviInstance(m_op=np.zeros((n, n)), q=v - u, c_set=S)
            assert (v - inst.m_op @ v - inst.q).tobytes() == u.tobytes(), seed
            assert residual(inst, v).projected_point.tobytes() == distance(S, u)[1].tobytes()
            compared += 1
        assert compared == 30

    def test_residual_outside_c_starts_near_the_slack_point(self, monkeypatch):
        # error_bound-style samples, the solution plus noise, that lie
        # outside C: the projection starts from C's cached witness, which the
        # slack-basis phase one puts at the origin, a point of this C.  These
        # 30 calls make 70 Gram solves; from the vertex of an all-artificial
        # phase one they made 234.
        inst = generate_random_avi(n=4, m=6, monotonicity="strongly_monotone", seed=2003)
        assert inst.c_set.box_bounds() is None and inst.c_set.contains(np.zeros(4), 0.0)
        (anchor,) = SolutionGeometry.from_instance(inst).anchors
        rng = SplitMix64(2003)
        points = [anchor + 0.5 * np.array(rng.normals(4)) for _ in range(40)]
        points = [x for x in points if not inst.c_set.contains(x, 0.0)]
        assert len(points) == 30
        calls = [0]
        original = optkernel._gram_solve

        def counting(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(optkernel, "_gram_solve", counting)
        for x in points:
            assert inst.c_set.contains(residual(inst, x).projected_point, 1e-8)
        assert 0 < calls[0] <= 70

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

    def test_cap_enforced(self, monkeypatch):
        # the root pattern and its three one-row children exceed a budget of 2
        inst = random_instance(3, n=2, m=3)
        monkeypatch.setattr(avi, "_PATTERN_BUDGET", 2)
        with pytest.raises(CapExceeded, match="more than 2 active patterns, budget 2"):
            inverse_residual(inst, np.zeros(2))


def _brute_force_pieces(inst, levels):
    """Reference decomposition at each level: all 2^m patterns in subset-rank
    order."""
    m = inst.num_constraints
    patterns = [tuple(i for i in range(m) if rank >> i & 1) for rank in range(1 << m)]
    templates = _build_templates(inst, patterns)
    per_level = []
    for y in levels:
        found = []
        for t in templates:
            piece = t.section(y)
            if piece is not None and is_nonempty(piece):
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

    def test_unconstrained_beyond_the_dimension_cap(self):
        # C = R^11: the empty pattern is the only one, and its polar cone is
        # the whole space, so no double description runs
        inst = AviInstance(m_op=np.eye(11), q=-np.ones(11), c_set=PolyhedralSet(11))
        pieces = enumerate_solution_set(inst)
        assert len(pieces) == 1
        assert pieces[0].contains(np.ones(11), 1e-12)

    def test_all_vertices_solve(self):
        for builder in (lcp_1d, ray_2d, zero_op_interval, identity_lcp, skew_2d):
            inst = builder()
            for piece in enumerate_solution_set(inst):
                for v in enumerate_vertices(piece).vertices:
                    assert is_solution(inst, v), builder.__name__


# --- piece-row regression -------------------------------------------------
#
# The active set and the exact row bytes of every piece that
# `inverse_residual(..., keep_active=True)` returns, hashed per instance, are
# recorded in tests/data/preimage_rows_sha256.json; any change to a piece's
# rows, their order or the patterns kept changes a digest.  The
# corpus covers the canned AVIs, the criterion-4 corpus and rank-deficient M
# on sets that are not boxes, where some cone rows -w M vanish and only y
# moves their right-hand side.  Regenerate the file only for an intended
# change of the piece rows:
#     PYTHONPATH=src python tests/test_avi.py

_PIECE_RECORD = Path(__file__).parent / "data" / "preimage_rows_sha256.json"


def _singular_corpus():
    """Ten instances with singular M on a simplex cut by one random row."""
    corpus = []
    for seed in range(10):
        rng = SplitMix64(5000 + seed)
        n = 2 + seed % 3
        a = np.array(rng.normals(n))
        a /= np.linalg.norm(a)
        center = np.full(n, 0.2)
        A = np.vstack([-np.eye(n), np.ones((1, n)), a])
        b = np.concatenate([np.zeros(n), [1.5], [a @ center + 0.3]])
        k = seed % n
        if seed % 3 == 0:
            M = np.zeros((n, n))
        elif seed % 3 == 1:
            M = np.array([rng.normals(n) for _ in range(n)])
            M[k] = 0.0
        else:
            u = np.array(rng.normals(n))
            u[k] = 0.0
            M = np.outer(u, u)
        q = np.array(rng.normals(n))
        corpus.append(
            (f"singular{seed}", AviInstance(m_op=M, q=q, c_set=PolyhedralSet(n, A, b)))
        )
    return corpus


def _piece_corpus():
    corpus = [(e.name, e.payload) for e in canned_suite() if e.kind == "avi"]
    corpus += [(f"random{seed}", inst) for seed, _, inst in _avi_corpus()]
    return corpus + _singular_corpus()


def _piece_levels(inst, seed, singular):
    """y = 0 and two residual levels, where vanishing rows hold.  For the
    singular corpus also a residual level moved by 5e-8, beyond the kernel's
    FEAS_TOL, and an arbitrary point, where most fail."""
    rng = SplitMix64(seed)
    levels = [np.zeros(inst.dim)]
    for _ in range(2):
        x = np.array([2.0 * rng.normal() for _ in range(inst.dim)])
        levels.append(residual(inst, x).r)
    if singular:
        levels += [levels[1] + 5e-8, np.array(rng.normals(inst.dim))]
    return levels


def _run_piece_corpus():
    record = {}
    for index, (name, inst) in enumerate(_piece_corpus()):
        levels = _piece_levels(inst, 6000 + index, name.startswith("singular"))
        digest = hashlib.sha256()
        count = 0
        for y in levels:
            digest.update(b"level")
            for active, piece in inverse_residual(inst, y, keep_active=True):
                digest.update(repr(active).encode())
                for shape, raw in _row_bytes(piece):
                    digest.update(repr(shape).encode() + raw)
                count += 1
        record[f"{name}/default"] = {"pieces": count, "sha256": digest.hexdigest()}
    return record


def test_piece_rows_are_unchanged():
    expected = json.loads(_PIECE_RECORD.read_text())
    actual = _run_piece_corpus()
    assert list(actual) == list(expected)
    for name in expected:
        assert actual[name] == expected[name], name


# --- order independence ------------------------------------------------------
#
# A template keeps its cell and, after its first nonempty section, its x-space
# rows; neither depends on the level that built it, so no result may depend
# on which levels came before.


def _pieces_at(inst, y):
    return [(active, _row_bytes(piece))
            for active, piece in inverse_residual(inst, y, keep_active=True)]


def test_pieces_do_not_depend_on_earlier_levels():
    for index, (name, inst) in enumerate(_piece_corpus()):
        levels = _piece_levels(inst, 6000 + index, name.startswith("singular"))

        def copy():
            return AviInstance(m_op=inst.m_op, q=inst.q, c_set=inst.c_set)

        fresh = [_pieces_at(copy(), y) for y in levels]
        forward = copy()
        assert [_pieces_at(forward, y) for y in levels] == fresh, name
        backward = copy()
        assert [_pieces_at(backward, y) for y in reversed(levels)] == fresh[::-1], name


def test_lipschitz_check_section_phase_ones(monkeypatch):
    # 36 sampled levels plus the base point: each cell decides its section,
    # and each nonempty section here is nonsingular, so its piece is the
    # point x0 + X1 y, a box whose emptiness, distances and vertex are read
    # off its bounds: once the instance is built no phase one runs
    inst = generate_random_avi(n=3, m=5, monotonicity="monotone_skew", seed=1)
    calls = []
    original = optkernel._phase_one

    def counting(*args):
        calls.append(args)
        return original(*args)

    # every phase one, the pieces' cached ones included
    monkeypatch.setattr(optkernel, "_phase_one", counting)
    cfg = LipschitzCheckConfig(base_point=np.zeros(3), master_seed=1)
    report = verify_upper_lipschitz_inverse(inst, cfg)
    assert report.num_samples > 0
    assert len(calls) == 0


def _simplex_face_instance():
    """M = 0 and q = -(1, 1, 1) on the unit simplex of R^3: the solution set
    is the face x1 + x2 + x3 = 1.  Its triangle and its three edges are
    pieces of singular templates, none of them a box, and its three
    vertices are point pieces."""
    C = PolyhedralSet(3, ineq_lhs=np.vstack([-np.eye(3), np.ones((1, 3))]),
                      ineq_rhs=[0.0, 0.0, 0.0, 1.0])
    return AviInstance(m_op=np.zeros((3, 3)), q=-np.ones(3), c_set=C)


def test_one_face_search_per_instance(monkeypatch):
    # the x-space rows, and the polar cone behind them, are built once per
    # singular template with a nonempty section, and a later verdict on the
    # same instance, here an error-bound curve, reuses them: 4 templates of
    # 15; the point pieces build none
    inst = _simplex_face_instance()
    calls = []
    original = avi.cone_generators

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(avi, "cone_generators", counting)
    pieces = inverse_residual(inst, np.zeros(3), keep_active=True)
    templates = {t.active: t for t in _face_templates(inst)}
    singular = {active for active, _ in pieces if templates[active].singular}
    assert all(piece.box_bounds() is None for active, piece in pieces if active in singular)
    built = {active for active, t in templates.items() if t.ineq_lhs is not None}
    assert built == singular
    assert (len(pieces), len(calls), len(singular), len(templates)) == (7, 4, 4, 15)
    find_local_radius(inst, num_samples=40, master_seed=3)
    assert len(calls) == 4


def test_nonsingular_sections_are_their_particular_points():
    # a nonsingular K pins the lifted section to the one point z0 + Z1 y, so
    # the x-space piece is x0 + X1 y: the section is exactly that point, and
    # the piece with every face and polar row kept enumerates to it alone
    corpus = [(name, inst, _piece_levels(inst, 6000 + index, name.startswith("singular")))
              for index, (name, inst) in enumerate(_piece_corpus())]
    for index, (name, inst) in enumerate(_pool_shaped_instances()):
        corpus.append((name, inst, _piece_levels(inst, 6100 + index, False)))
    checked = 0
    for name, inst, levels in corpus:
        for template in _face_templates(inst):
            assert template.singular == _is_singular(template, inst), (name, template.active)
            if template.singular:
                continue
            for y in levels:
                piece = template.section(y)
                if piece is None:
                    continue
                point = template._x0 + template._x1 @ y
                assert piece.num_ineq == 0 and np.array_equal(piece.eq_lhs, np.eye(inst.dim))
                assert piece.eq_rhs.tobytes() == point.tobytes(), (name, template.active)
                vertex_set = enumerate_vertices(reference_piece(inst, template.active, y))
                assert len(vertex_set.vertices) == 1 and not vertex_set.recession_rays
                miss = np.linalg.norm(vertex_set.vertices[0] - point)
                assert miss <= 1e-9 * max(1.0, np.linalg.norm(point)), (name, template.active)
                checked += 1
    assert checked > 300


def test_pool_pass_builds_polar_cones_only_for_singular_pieces(monkeypatch):
    # one pass over the benchmark's `preimage` and `error_bound` pools, each
    # output checked against the recorded reference: every nonempty section
    # of `preimage` is a point piece, and the singular pieces of
    # `error_bound` (the canned AVIs) build 8 polar cones.  Before point
    # pieces, every template with a nonempty section built one: 49 and 48.
    reference = json.loads((Path(workloads.__file__).parent / "reference.json").read_text())
    calls = []
    original = avi.cone_generators

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(avi, "cone_generators", counting)
    counts = {}
    for pool in (workloads.Preimage(), workloads.ErrorBound()):
        calls.clear()
        for index in range(pool.pool_size):
            outcome = pool.run(index, pool.build(index))
            assert workloads.check(outcome, reference["workloads"][pool.name][str(index)]) == []
        counts[pool.name] = len(calls)
    assert counts == {"preimage": 0, "error_bound": 8}


# --- cells -------------------------------------------------------------------
#
# A template decides emptiness by its cell in y alone and builds its x-space
# rows only after a nonempty verdict, so the cell verdict must be the x-space
# one: phase one on the piece with lambda eliminated and every row kept, the
# rows on y alone included.  Every template of the piece corpus at every
# level is compared, and of a few instances shaped as the benchmark's
# `preimage` and `error_bound` pools at y = 0 and two residual levels.


def _pool_shaped_instances():
    corpus = []
    for index in (9, 13, 17, 22, 26, 35):
        n = 2 + (index // 3) % 3
        monotonicity = MONOTONICITY_CLASSES[index % 3]
        corpus.append((f"preimage{index}", generate_random_avi(
            n=n, m=6, monotonicity=monotonicity, seed=1000 + index)))
    for j in (2, 7, 11, 27):
        n = 2 + j % 4
        corpus.append((f"error_bound{j}", generate_random_avi(
            n=n, m=min(6, n + 1 + (j // 4) % 3),
            monotonicity="strongly_monotone", seed=2000 + j)))
    return corpus


def _cell_margin(template, y):
    """How far y lies outside the template's cell, relative to 1 + ||y||
    (negative inside)."""
    cell = template.cell
    misses = np.concatenate([cell.ineq_lhs @ y - cell.ineq_rhs,
                             np.abs(cell.eq_lhs @ y - cell.eq_rhs)])
    return float(np.max(misses, initial=-np.inf)) / (1.0 + np.linalg.norm(y))


def _x_space_verdict(inst, template, y):
    """Phase one on the x-space piece with every row kept
    (`reference_piece`, built afresh, with no witness)."""
    return is_nonempty(reference_piece(inst, template.active, y))


def test_cell_verdicts_match_the_x_space_pieces():
    corpus = [(name, inst, _piece_levels(inst, 6000 + index, name.startswith("singular")))
              for index, (name, inst) in enumerate(_piece_corpus())]
    for index, (name, inst) in enumerate(_pool_shaped_instances()):
        corpus.append((name, inst, _piece_levels(inst, 6100 + index, False)))
    compared = nonempty = 0
    disagreements = []
    for name, inst, levels in corpus:
        for template in _face_templates(inst):
            for level, y in enumerate(levels):
                x_verdict = _x_space_verdict(inst, template, y)
                compared += 1
                nonempty += x_verdict
                if (template.section(y) is not None) != x_verdict:
                    disagreements.append((name, template.active, level,
                                          _cell_margin(template, y)))
    assert not disagreements, disagreements
    assert compared > 5000 and nonempty > 300


def _corank(template, inst):
    """The dimension of null(K) for the lifted section's equality rows
    K = [[A_I, 0], [M, A_I^T]], along which the cell is a projection."""
    A_I = inst.c_set.ineq_lhs[list(template.active)]
    k = A_I.shape[0]
    K = np.block([[A_I, np.zeros((k, k))], [inst.m_op, A_I.T]])
    return K.shape[0] - np.linalg.matrix_rank(K)


def _is_singular(template, inst):
    """Whether K is singular, so that the cell is a projection along null(K)."""
    return _corank(template, inst) > 0


def _edge_levels(template, y, d):
    """Levels on and near the edge of the template's cell along y + s d,
    from a level y inside it: the first point where the line leaves the cell
    (s >= 0), and the point 10 slacks FEAS_TOL (1 + ||y||) beyond it; for
    each equality row, the point 10 slacks off it along its normal.  d is
    first projected onto the equality rows' null space."""
    cell = template.cell
    E = cell.eq_lhs
    if E.shape[0]:
        d = d - E.T @ np.linalg.lstsq(E @ E.T, E @ d, rcond=None)[0]
    rates = cell.ineq_lhs @ d
    hits = np.flatnonzero(rates > 1e-6 * np.linalg.norm(d))
    levels = []
    if hits.size:
        rooms = np.maximum(cell.ineq_rhs[hits] - cell.ineq_lhs[hits] @ y, 0.0) / rates[hits]
        i = hits[np.argmin(rooms)]
        edge = y + rooms.min() * d
        slack = FEAS_TOL * (1.0 + np.linalg.norm(edge))
        levels += [(edge, True), (edge + 10.0 * slack / rates[i] * d, False)]
    slack = FEAS_TOL * (1.0 + np.linalg.norm(y))
    for row in E:
        norm = np.linalg.norm(row)
        if norm > 1e-6:
            levels.append((y + 10.0 * slack * row / norm**2, False))
    return levels


def test_cell_edges_match_the_x_space_pieces():
    # levels on an edge of a nonempty cell are inside it, levels 10 slacks
    # beyond are outside, and phase one on the x-space piece agrees with both
    rng = SplitMix64(53)
    counts = {}
    disagreements = []
    corpus = [(name, inst, _piece_levels(inst, 6000 + index, name.startswith("singular")))
              for index, (name, inst) in enumerate(_piece_corpus())]
    for name, inst, levels in corpus:
        for template in _face_templates(inst):
            singular = bool(_is_singular(template, inst))
            for y in levels:
                if template.section(y) is None:
                    continue
                for _ in range(3):
                    d = np.array(rng.normals(inst.dim))
                    for level, inside in _edge_levels(template, y, d):
                        cell_verdict = template.section(level) is not None
                        x_verdict = _x_space_verdict(inst, template, level)
                        key = (singular, inside)
                        counts[key] = counts.get(key, 0) + 1
                        if not cell_verdict == x_verdict == inside:
                            disagreements.append((name, template.active, singular, inside,
                                                  cell_verdict, x_verdict))
    assert not disagreements, disagreements
    assert all(counts.get((singular, inside), 0) >= 20
               for singular in (False, True) for inside in (False, True)), counts


def _record_callers(monkeypatch, module, name):
    """Patch module.name to record the name of each call's caller, in the
    returned list."""
    callers = []
    original = getattr(module, name)

    def recording(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args)

    monkeypatch.setattr(module, name, recording)
    return callers


def test_nonsingular_cells_run_no_double_description(monkeypatch):
    # the projection cone of a nonsingular K is the orthant, whose rays are
    # the unit vectors, and that of a K of corank one has its rays in closed
    # form, so only a template whose K has corank two or more runs a double
    # description for its cell; counted on a fresh instance, whose first
    # inverse_residual builds its templates
    callers = _record_callers(monkeypatch, polyhedra, "_extreme_rays")
    closed_form = _record_callers(monkeypatch, polyhedra, "_corank_one_rays")
    counts = {1: 0, 2: 0}
    for name, inst in _pool_shaped_instances() + _singular_corpus():
        callers.clear()
        closed_form.clear()
        inverse_residual(inst, np.zeros(inst.dim))
        coranks = [_corank(t, inst) for t in _face_templates(inst)]
        expected = {1: coranks.count(1), 2: sum(int(c >= 2) for c in coranks)}
        assert callers.count("_projections") == expected[2], name
        assert closed_form == ["_projections"] * expected[1], name
        for corank in counts:
            counts[corank] += expected[corank]
    assert counts[1] > 50 and counts[2] > 10, counts


def _cell_arrays(cell, x0, x1):
    return [cell.ineq_lhs, cell.ineq_rhs, cell.eq_lhs, cell.eq_rhs, x0, x1]


def _in_row_order(got, expected):
    """The inequality rows of `got` (cell arrays) put in the order of their
    nearest match in `expected`: the assignment of rows [lhs | rhs] that
    minimizes the summed largest entry difference."""
    got_rows, expected_rows = (np.column_stack(arrays[:2]) for arrays in (got, expected))
    if got_rows.shape != expected_rows.shape or not got_rows.size:
        return got
    gaps = np.abs(got_rows[:, None, :] - expected_rows[None, :, :]).max(axis=2)
    got_index, expected_index = linear_sum_assignment(gaps)
    order = got_index[np.argsort(expected_index)]
    return [got[0][order], got[1][order]] + got[2:]


def test_stacked_cells_match_one_system_projections():
    # each template's cell, x0 and X1 from the stacked projection against the
    # same projection run on its system alone, which runs double description
    # on every singular cone: equal for a nonsingular K (up to the sign of a
    # zero, which the one-system route's identity product of rays folds to
    # +0), and within 1e-12 relative for a singular one, whose inequality
    # rows a corank-one cone's closed-form rays give in another order
    corpus = _pool_shaped_instances() + _piece_corpus() + _degenerate_instances()
    corpus.append(("no rows, M = 0", AviInstance(m_op=np.zeros((2, 2)), q=[1.0, -1.0],
                                                 c_set=PolyhedralSet(2))))
    corpus.append(("M = 0", zero_op_interval()))
    counts = {False: 0, True: 0}
    for name, inst in corpus:
        for template in _face_templates(inst):
            singular = bool(_is_singular(template, inst))
            counts[singular] += 1
            stacked = _cell_arrays(template.cell, template._x0, template._x1)
            alone = _cell_arrays(*reference_cell(inst, template.active))
            if singular:
                stacked = _in_row_order(stacked, alone)
            for got, expected in zip(stacked, alone):
                assert got.shape == expected.shape, (name, template.active)
                if singular:
                    scale = max(1.0, float(np.max(np.abs(expected), initial=0.0)))
                    miss = np.max(np.abs(got - expected), initial=0.0)
                    assert miss <= 1e-12 * scale, (name, template.active, miss)
                else:
                    assert np.array_equal(got, expected), (name, template.active)
    assert counts[False] > 1000 and counts[True] > 100, counts


def test_built_instances_are_freed_without_the_cycle_collector():
    # a template keeps C, M and q, not its instance, so neither the cells nor
    # the faces and x-space rows built for a singular section tie an instance
    # into a reference cycle
    inst = _simplex_face_instance()
    assert inverse_residual(inst, np.zeros(3))
    assert any(t.ineq_lhs is not None for t in _face_templates(inst))
    ref = weakref.ref(inst)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del inst
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


# --- face search ------------------------------------------------------------
#
# The patterns with a nonempty face are read off one double description of C
# (the rows tight at each point of a minimal face, and all their subsets); the
# depth-first search it replaced, one phase one per untested face, is the
# oracle wherever its all-artificial phase one finishes.


def _patterns(inst):
    return [t.active for t in _face_templates(inst)]


def _degenerate_instances():
    """Orthant, box, an apex with more than n tight rows, C with lineality,
    C without rows, all-zero rows (no double description) and a C empty but
    within FEAS_TOL of a point."""
    apex = PolyhedralSet(3, ineq_lhs=[[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1], [0, 0, -1]],
                         ineq_rhs=[1, 1, 1, 1, 0])
    slab = PolyhedralSet(3, ineq_lhs=[[-1, 0, 0], [1, 1, 0], [1, 0, 0]], ineq_rhs=[0, 1, 2])
    sets = [
        ("orthant", nonnegative_orthant(3)),
        ("box", box([0, 0, 0], [1, 2, 3])),
        ("apex", apex),
        ("lineality", slab),
        ("no rows", PolyhedralSet(2)),
        ("zero rows", PolyhedralSet(2, ineq_lhs=np.zeros((2, 2)), ineq_rhs=[1.0, 0.0])),
        ("within FEAS_TOL", PolyhedralSet(1, ineq_lhs=[[1.0], [-1.0]], ineq_rhs=[-1e-10, 0.0])),
    ]
    return [(name, AviInstance(m_op=np.eye(S.ambient_dim), q=np.zeros(S.ambient_dim), c_set=S))
            for name, S in sets]


def test_face_lists_match_the_depth_first_search():
    corpus = [(e.name, e.payload) for e in canned_suite() if e.kind == "avi"]
    corpus += [(f"random{seed}", inst) for seed, _, inst in _avi_corpus()]
    degenerate = _degenerate_instances()
    corpus += _singular_corpus() + _pool_shaped_instances() + degenerate
    for name, inst in corpus:
        assert _patterns(inst) == face_search_dfs(inst), name
    patterns = {name: _patterns(inst) for name, inst in degenerate}
    assert (0, 1, 2, 3) in patterns["apex"]
    assert patterns["no rows"] == [()]
    assert patterns["zero rows"] == [(), (1,)]
    assert patterns["within FEAS_TOL"] == [(), (0,), (1,), (0, 1)]


def test_near_parallel_face_lists():
    # the AVI (I, 0) on each near-parallel set: where the old search's phase
    # one breaks down the new one still finishes, and its list is checked
    # face by face with HiGHS when 2^m is small.  A face is certified
    # nonempty when HiGHS's point misses its rows by at most FEAS_TOL
    # relative, and empty when HiGHS's least miss exceeds 1e-6; faces in
    # between (within HiGHS's own 1e-7 tolerance) are left undecided.
    compared, broken, disagreements = 0, [], []
    faces = decided = 0
    for k, S in _all_near_parallel_sets():
        inst = AviInstance(m_op=np.eye(S.ambient_dim), q=np.zeros(S.ambient_dim), c_set=S)
        got = _patterns(inst)
        try:
            expected = face_search_dfs(inst)
        except NumericalBreakdown:
            broken.append(k)
        else:
            assert got == expected, k
            compared += 1
            continue
        m = S.num_ineq
        if m > 11:
            continue
        found = set(got)
        faces += 1 << m
        for rank in range(1 << m):
            active = tuple(i for i in range(m) if rank >> i & 1)
            bound, violation = face_violation(inst, active)
            if violation <= FEAS_TOL or bound > 1e-6:
                decided += 1
                if (violation <= FEAS_TOL) != (active in found):
                    disagreements.append((k, active, bound, violation))
    assert not disagreements, disagreements
    # the old search breaks down on k = 5, 6, 7, 15, 19, 22, 30, 36, 37, 38
    assert compared >= 30 and compared + len(broken) == 40
    assert decided >= 0.9 * faces


def test_near_parallel_preimages_of_zero():
    # the AVI (I, 0) on each near-parallel set solves to P_C(0): every piece
    # of R^{-1}(0) has its witness there.  No phase one decides a section, so
    # the 7 sets whose faces' phase one breaks down (k = 5, 7, 19, 22, 30, 37,
    # 38) finish too
    finished = 0
    for k, S in _all_near_parallel_sets():
        n = S.ambient_dim
        inst = AviInstance(m_op=np.eye(n), q=np.zeros(n), c_set=S)
        nearest = solve_projection_qp(S, np.zeros(n))
        pieces = inverse_residual(inst, np.zeros(n))
        assert pieces, k
        for piece in pieces:
            assert np.linalg.norm(feasible_point(piece) - nearest) <= 1e-8, k
        finished += 1
    assert finished == 40


def test_face_search_runs_no_phase_one(monkeypatch):
    instances = [inst for _, inst in _pool_shaped_instances()]
    calls = {}
    _count_calls(monkeypatch, optkernel, "solve_feasibility", calls)
    _count_calls(monkeypatch, optkernel, "_phase_one", calls)
    callers = _record_callers(monkeypatch, polyhedra, "_extreme_rays")
    for inst in instances:
        assert _face_templates(inst)
    # one double description of C per instance, and no phase one; the
    # singular cells' double descriptions are counted apart, by caller
    assert calls == {}
    assert callers.count("_vertex_points") == len(instances)


def test_ray_budget_caps_the_face_search(monkeypatch):
    # the face search reads C's minimal faces off one double description, so
    # C's ray budget now bounds it: a cube in R^11 (2,048 vertices) is
    # refused at once, and so is a square under a budget of 3 rays
    cube = box(np.zeros(11), np.ones(11))
    inst = AviInstance(m_op=np.eye(11), q=np.zeros(11), c_set=cube)
    with pytest.raises(CapExceeded, match="budget 1024"):
        inverse_residual(inst, np.zeros(11))
    square = AviInstance(m_op=np.eye(2), q=np.zeros(2), c_set=box([0, 0], [1, 1]))
    monkeypatch.setattr(polyhedra, "_RAY_BUDGET", 3)
    with pytest.raises(CapExceeded, match="rays after a cut, budget 3"):
        inverse_residual(square, np.zeros(2))


if __name__ == "__main__":
    _PIECE_RECORD.write_text(json.dumps(_run_piece_corpus(), indent=1) + "\n")
