import collections
import itertools
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_oracles import box_bounds_loop, brute_force_projection
from scipy.optimize import linprog
from test_polyhedra import _all_near_parallel_sets, _near_parallel_sets, _random_sets

from avibound import (
    EmptySet,
    NumericalBreakdown,
    PolyhedralSet,
    avi,
    box,
    gpm,
    nonnegative_orthant,
    optkernel,
    polyhedra,
    solvers,
)
from avibound.optkernel import (
    FEAS_TOL,
    feasible_witness,
    solve_feasibility,
    solve_lp,
    solve_projection_qp,
)
from avibound.polyhedra import enumerate_vertices, feasible_point, hausdorff, is_nonempty
from avibound.rng import SplitMix64

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import workloads  # noqa: E402


def brute_force_lp_min(c, A, b):
    """Oracle: minimize c.x over {Ax <= b} by enumerating basic solutions.

    Assumes the optimum is attained at a vertex (callers pick instances with
    bounded feasible sets).
    """
    c = np.asarray(c, float)
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    n = A.shape[1]
    best = np.inf
    best_x = None
    for rows in itertools.combinations(range(A.shape[0]), n):
        sub = A[list(rows)]
        if np.linalg.matrix_rank(sub) < n:
            continue
        x = np.linalg.lstsq(sub, b[list(rows)], rcond=None)[0]
        if np.max(A @ x - b) <= 1e-8:
            val = c @ x
            if val < best:
                best = val
                best_x = x
    return best, best_x


class TestSolveLp:
    def test_nonnegativity_cone(self):
        res = solve_lp(PolyhedralSet(1, ineq_lhs=[[-1.0]], ineq_rhs=[0.0]), [1.0])
        assert res.status == "optimal"
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert res.point[0] == pytest.approx(0.0, abs=1e-9)

    def test_empty_system(self):
        S = PolyhedralSet(1, ineq_lhs=[[1.0], [-1.0]], ineq_rhs=[-1.0, 0.0])
        assert solve_lp(S, [1.0]).status == "infeasible"

    def test_simplex_facet(self):
        c = [-1.0, -1.0]
        A = [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
        b = [1.0, 0.0, 0.0]
        res = solve_lp(PolyhedralSet(2, ineq_lhs=A, ineq_rhs=b), c)
        oracle_value, _ = brute_force_lp_min(c, A, b)
        assert oracle_value == pytest.approx(-1.0)
        assert res.status == "optimal"
        assert res.value == pytest.approx(oracle_value, abs=1e-8)
        assert res.point[0] + res.point[1] == pytest.approx(1.0, abs=1e-8)

    def test_unbounded(self):
        res = solve_lp(PolyhedralSet(1, ineq_lhs=[[-1.0]], ineq_rhs=[0.0]), [-1.0])
        assert res.status == "unbounded"
        assert res.value == -np.inf

    def test_maximize_sense(self):
        # maximizing 1 . x is minimizing -1 . x, whose duals are <= 0 too
        S = PolyhedralSet(
            2,
            ineq_lhs=[[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            ineq_rhs=[1.0, 0.0, 0.0],
        )
        res = solve_lp(S, [-1.0, -1.0])
        assert res.status == "optimal"
        assert res.value == pytest.approx(-1.0, abs=1e-8)
        rhs = S.ineq_rhs
        assert res.dual is not None
        assert float(rhs @ res.dual) == pytest.approx(res.value, abs=1e-7)
        assert np.all(res.dual <= 1e-9)

    def test_equality_rows(self):
        S = PolyhedralSet(
            2,
            eq_lhs=[[1.0, 1.0]],
            eq_rhs=[3.0],
            ineq_lhs=[[-1.0, 0.0], [0.0, -1.0]],
            ineq_rhs=[0.0, 0.0],
        )
        res = solve_lp(S, [1.0, 2.0])
        assert res.status == "optimal"
        assert res.value == pytest.approx(3.0, abs=1e-8)
        np.testing.assert_allclose(res.point, [3.0, 0.0], atol=1e-8)

    def test_redundant_equalities(self):
        res = solve_lp(PolyhedralSet(1, eq_lhs=[[1.0], [2.0]], eq_rhs=[2.0, 4.0]), [1.0])
        assert res.status == "optimal"
        assert res.point[0] == pytest.approx(2.0, abs=1e-9)

    def test_strong_duality_and_scipy_cross_check_random(self):
        rng = SplitMix64(2024)
        checked = 0
        for trial in range(300):
            n = rng.randint(1, 5)
            m = rng.randint(1, 8)
            A = np.array([[rng.normal() for _ in range(n)] for _ in range(m)])
            b = np.array([rng.normal() for _ in range(m)])
            c = np.array([rng.normal() for _ in range(n)])
            res = solve_lp(PolyhedralSet(n, ineq_lhs=A, ineq_rhs=b), c)
            # presolve collapses "unbounded" into "infeasible" on some inputs
            ref = linprog(
                c,
                A_ub=A,
                b_ub=b,
                bounds=[(None, None)] * n,
                method="highs",
                options={"presolve": False},
            )
            if res.status == "optimal":
                assert ref.status == 0
                assert res.value == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
                assert np.max(A @ res.point - b) <= 1e-8
                gap = abs(res.value - float(b @ res.dual))
                assert gap <= 1e-7 * (1.0 + abs(res.value))
                checked += 1
            elif res.status == "unbounded":
                assert ref.status == 3
            else:
                assert ref.status == 2
        assert checked > 30

    def test_equality_rows_zero_rhs_and_maximize_match_highs(self):
        # the cases the gap LPs reach: equality rows, rows through the origin
        # (a zero rhs, so phase one starts from degenerate slacks) and
        # objectives of either sign, drawn at random (a maximization is the
        # minimization of the negated objective); three trials in four keep
        # the origin feasible
        rng = SplitMix64(2025)
        seen = {"optimal": 0, "unbounded": 0, "infeasible": 0}
        zero_rows = negated = with_eq = 0
        for trial in range(400):
            n = rng.randint(1, 5)
            m = rng.randint(n, 4 * n)
            k = rng.randint(0, 2)
            A = np.array([[rng.normal() for _ in range(n)] for _ in range(m)]).reshape(m, n)
            E = np.array([[rng.normal() for _ in range(n)] for _ in range(k)]).reshape(k, n)
            b = np.array([rng.normal() for _ in range(m)])
            d = np.array([rng.normal() for _ in range(k)])
            if trial % 4:
                b, d = np.abs(b), np.zeros(k)
            b[[rng.randint(0, 2) == 0 for _ in range(m)]] = 0.0
            c = np.array([rng.normal() for _ in range(n)])
            sign = -1.0 if rng.randint(0, 1) else 1.0
            c = sign * c
            res = solve_lp(PolyhedralSet(n, ineq_lhs=A, ineq_rhs=b, eq_lhs=E, eq_rhs=d), c)
            ref = linprog(
                c,
                A_ub=A,
                b_ub=b,
                A_eq=E if k else None,
                b_eq=d if k else None,
                bounds=[(None, None)] * n,
                method="highs",
                options={"presolve": False},
            )
            seen[res.status] += 1
            if res.status == "optimal":
                assert ref.status == 0
                assert res.value == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
                assert np.max(A @ res.point - b, initial=0.0) <= 1e-8
                assert np.max(np.abs(E @ res.point - d), initial=0.0) <= 1e-8
                # strong duality, with the sign convention of `SolveStatus`
                dual_value = float(b @ res.dual[:m] + d @ res.dual[m:])
                assert abs(res.value - dual_value) <= 1e-7 * (1.0 + abs(res.value))
                assert np.all(res.dual[:m] <= 1e-9)
                zero_rows += int(np.any(b == 0.0))
                negated += sign < 0
                with_eq += k > 0
            elif res.status == "unbounded":
                assert ref.status == 3
            else:
                assert ref.status == 2
        assert min(seen.values()) >= 40
        assert zero_rows >= 150 and negated >= 100 and with_eq >= 100


class TestSolveFeasibility:
    def test_feasible_with_witness(self):
        res = solve_feasibility(
            PolyhedralSet(1, eq_lhs=[[1.0]], eq_rhs=[1.0], ineq_lhs=[[1.0]], ineq_rhs=[2.0])
        )
        assert res.status == "optimal"
        assert res.point[0] == pytest.approx(1.0, abs=1e-9)

    def test_infeasible(self):
        res = solve_feasibility(
            PolyhedralSet(1, eq_lhs=[[1.0]], eq_rhs=[1.0], ineq_lhs=[[1.0]], ineq_rhs=[0.0])
        )
        assert res.status == "infeasible"

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_set_without_rows_is_witnessed_by_the_origin(self, n):
        # ordinary phase one with no row: no artificial, no pivot, v = 0
        res = solve_feasibility(PolyhedralSet(n))
        assert res.status == "optimal"
        assert np.array_equal(res.point, np.zeros(n))
        assert np.array_equal(feasible_witness(PolyhedralSet(n)), np.zeros(n))

    def test_one_dimensional_kkt_system(self):
        # Stationarity plus sign pattern for a scalar complementarity setup
        # with no active rows: variables (x, lam); -x + lam = -1, -x <= 0,
        # lam = 0 forces (x, lam) = (1, 0).
        E = [[-1.0, 1.0], [0.0, 1.0]]
        d = [-1.0, 0.0]
        A = [[-1.0, 0.0]]
        b = [0.0]
        res = solve_feasibility(PolyhedralSet(2, eq_lhs=E, eq_rhs=d, ineq_lhs=A, ineq_rhs=b))
        assert res.status == "optimal"
        np.testing.assert_allclose(res.point, [1.0, 0.0], atol=1e-9)

    def test_consistent_with_zero_objective_lp(self):
        rng = SplitMix64(99)
        agreements = 0
        for _ in range(1000):
            n = rng.randint(1, 8)
            m = rng.randint(1, 8)
            k = rng.randint(0, 2)
            A = np.array([[rng.normal() for _ in range(n)] for _ in range(m)])
            b = np.array([rng.normal() for _ in range(m)])
            E = np.array([[rng.normal() for _ in range(n)] for _ in range(k)])
            d = np.array([rng.normal() for _ in range(k)])
            S = PolyhedralSet(n, ineq_lhs=A, ineq_rhs=b, eq_lhs=E, eq_rhs=d)
            oracle = solve_feasibility(S)
            lp = solve_lp(S, np.zeros(n))
            assert (oracle.status == "optimal") == (lp.status == "optimal")
            if oracle.status == "optimal":
                assert np.max(A @ oracle.point - b) <= 1e-8
                if k:
                    assert np.max(np.abs(E @ oracle.point - d)) <= 1e-8
            agreements += 1
        assert agreements == 1000


def project_onto(u, S):
    return solve_projection_qp(S, np.asarray(u, float))


class TestProjectionQp:
    def test_member_is_fixed(self):
        S = nonnegative_orthant(3)
        u = np.array([1.0, 2.0, 0.0])
        np.testing.assert_allclose(project_onto(u, S), u)

    def test_orthant_clips(self):
        S = nonnegative_orthant(4)
        u = np.array([1.0, -2.0, 0.5, -0.1])
        np.testing.assert_allclose(project_onto(u, S), np.maximum(u, 0.0), atol=1e-10)

    def test_simplex_corner_case(self):
        # Projection of (1,1) onto {x1+x2<=1, x>=0}; KKT case enumeration over
        # the three constraints gives (0.5, 0.5).
        S = PolyhedralSet(
            2,
            ineq_lhs=[[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            ineq_rhs=[1.0, 0.0, 0.0],
        )
        z = project_onto([1.0, 1.0], S)
        np.testing.assert_allclose(z, [0.5, 0.5], atol=1e-9)

    def test_affine_equality_projection(self):
        S = PolyhedralSet(2, eq_lhs=[[1.0, 1.0]], eq_rhs=[1.0])
        z = project_onto([1.0, 1.0], S)
        np.testing.assert_allclose(z, [0.5, 0.5], atol=1e-10)

    def test_empty_set_raises(self):
        S = PolyhedralSet(1, ineq_lhs=[[1.0], [-1.0]], ineq_rhs=[-1.0, 0.0])
        with pytest.raises(EmptySet):
            project_onto([0.0], S)

    def test_variational_characterization_random(self):
        # <u - z*, y - z*> <= 0 for all vertices y of the feasible set.
        rng = SplitMix64(17)
        tested = 0
        for _ in range(200):
            n = rng.randint(1, 4)
            lo = np.array([rng.normal() for _ in range(n)])
            hi = lo + np.array([abs(rng.normal()) + 0.1 for _ in range(n)])
            S = box(lo, hi)
            u = np.array([4.0 * rng.normal() for _ in range(n)])
            z = project_onto(u, S)
            for bits in itertools.product([0, 1], repeat=n):
                v = np.where(np.array(bits) == 1, hi, lo)
                assert (u - z) @ (v - z) <= 1e-7 * (1 + np.linalg.norm(u))
            tested += 1
        assert tested == 200

    def test_general_rows_match_scipy_reference(self):
        # Non-box rows force the active-set path; cross-check with a dense
        # KKT enumeration oracle in 2-D.
        S = PolyhedralSet(
            2,
            ineq_lhs=[[1.0, 2.0], [-1.0, 1.0], [0.0, -1.0]],
            ineq_rhs=[2.0, 1.0, 0.5],
        )
        rng = SplitMix64(31)
        for _ in range(100):
            u = np.array([3 * rng.normal(), 3 * rng.normal()])
            z = project_onto(u, S)
            best, best_v = None, np.inf
            A = np.asarray(S.ineq_lhs)
            b = np.asarray(S.ineq_rhs)
            # enumerate KKT cases: unconstrained, one active row, two active rows
            candidates = [u]
            for i in range(3):
                a = A[i]
                candidates.append(u - ((a @ u - b[i]) / (a @ a)) * a)
            for i, j in itertools.combinations(range(3), 2):
                G = A[[i, j]]
                try:
                    nu = np.linalg.solve(G @ G.T, G @ u - b[[i, j]])
                except np.linalg.LinAlgError:
                    continue
                candidates.append(u - G.T @ nu)
            for cand in candidates:
                if np.max(A @ cand - b) <= 1e-9:
                    val = np.linalg.norm(cand - u)
                    if val < best_v:
                        best, best_v = cand, val
            np.testing.assert_allclose(z, best, atol=1e-8)

    def test_one_gram_solve_per_working_set(self, monkeypatch):
        # Every working set the dual loop visits makes one Gram solve,
        # `_gram_solve`, of the square system G G^T nu = rhs.  A working set
        # that shrinks between two solves shows a partial step dropped a row.
        shapes = []
        original = optkernel._gram_solve

        def recording(G, rhs, *rest):
            shapes.append((G.shape[0], rhs.shape[0]))
            return original(G, rhs, *rest)

        monkeypatch.setattr(optkernel, "_gram_solve", recording)
        rng = SplitMix64(23)
        iterated = drops = 0
        for _ in range(40):
            n = rng.randint(2, 4)
            A = np.array([rng.normals(n) for _ in range(3 * n)])
            b = np.array([abs(rng.normal()) + 0.5 for _ in range(3 * n)])
            S = PolyhedralSet(n, ineq_lhs=A, ineq_rhs=b)
            shapes.clear()
            z = project_onto(10.0 * np.array(rng.normals(n)), S)
            assert S.contains(z, 1e-7)
            assert all(rows == cols for rows, cols in shapes), shapes
            iterated += bool(shapes)
            drops += sum(after[0] < before[0] for before, after in zip(shapes, shapes[1:]))
        assert iterated >= 30 and drops > 0


def _triangle():
    # {x1 + x2 <= 1, x >= 0}: the first row keeps it off the box fast path
    return PolyhedralSet(
        2,
        ineq_lhs=[[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        ineq_rhs=[1.0, 0.0, 0.0],
    )


@pytest.fixture
def feasibility_calls(monkeypatch):
    """Arguments of every phase one run while the test runs, whichever
    solve runs it."""
    calls = []
    original = optkernel._phase_one

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(optkernel, "_phase_one", counting)
    return calls


def _farkas_corpus():
    """Random systems shifted to be mostly empty, then the near-parallel sets."""
    for seed in range(40):
        for n in (2, 3, 6, 10):
            shift = -0.5 if seed % 2 else -1.0
            yield _random_system(7000 + 10 * seed + n, n, seed % 3, shift)
    for _, S in _near_parallel_sets():
        yield S


def _assert_farkas_ray(z, S):
    # z with rows^T z = 0, z_ineq <= 0 and rhs . z > 0 certifies emptiness;
    # phase one calls a set empty beyond FEAS_TOL, so the ray clears that
    # margin too
    scale = np.max(np.abs(z))
    rows = np.vstack([S.ineq_lhs, S.eq_lhs])
    rhs = np.concatenate([S.ineq_rhs, S.eq_rhs])
    assert np.max(np.abs(rows.T @ z)) <= 1e-12 * scale
    assert np.all(z[:S.num_ineq] <= 1e-12 * scale)
    assert rhs @ z > FEAS_TOL * scale


def test_infeasible_outcomes_carry_a_farkas_ray():
    counts = {"optimal": 0, "infeasible": 0}
    for S in _farkas_corpus():
        res = solve_feasibility(S)
        counts[res.status] += 1
        if res.is_optimal:
            assert res.dual is None
            continue
        _assert_farkas_ray(res.dual, S)
        # an LP's phase one starts from the slack basis, so it may end on
        # another ray, but that ray certifies emptiness too
        assert not is_nonempty(S)
        lp = solve_lp(S, np.ones(S.ambient_dim))
        assert lp.status == "infeasible"
        _assert_farkas_ray(lp.dual, S)
    assert counts["infeasible"] >= 100 and counts["optimal"] >= 30


def _phase_one_factorizations(monkeypatch, solve, *args):
    """`lu_factor` calls made inside `_phase_one` while `solve(*args)` runs."""
    inside = [False]
    calls = [0]
    lu_factor, phase_one = optkernel.lu_factor, optkernel._phase_one

    def counting_lu(*a, **kw):
        calls[0] += inside[0]
        return lu_factor(*a, **kw)

    def flagged_phase_one(*a, **kw):
        inside[0] = True
        try:
            return phase_one(*a, **kw)
        finally:
            inside[0] = False

    monkeypatch.setattr(optkernel, "lu_factor", counting_lu)
    monkeypatch.setattr(optkernel, "_phase_one", flagged_phase_one)
    solve(*args)
    monkeypatch.undo()
    return calls[0]


def test_lp_phase_one_starts_from_the_slack_basis(monkeypatch):
    # {Ax <= b} with every b_i >= 0, three of them zero: the slack basis is
    # feasible, so an LP's phase one pivots never.  Its Bland loop factors
    # the start basis once to find it optimal, and the read-off of the
    # basic point factors it once more.
    rng = SplitMix64(31)
    n = 4
    A = np.array([rng.normals(n) for _ in range(12)])
    b = np.array([abs(rng.normal()) for _ in range(12)])
    b[[1, 5, 9]] = 0.0
    S = PolyhedralSet(n, ineq_lhs=A, ineq_rhs=b)
    c = np.array(rng.normals(n))
    assert _phase_one_factorizations(monkeypatch, solve_lp, S, c) == 2
    assert solve_lp(S, c).status == "optimal"
    # the feasibility solve keeps its all-artificial start and its count
    assert _phase_one_factorizations(monkeypatch, solve_feasibility, S) == 16


def test_slack_start_finishes_on_near_parallel_rows():
    # the all-artificial start of `solve_feasibility` breaks down on some of
    # the near-parallel sets; the cached witness starts from the slack basis
    # and finds a point of each
    broken = []
    for k, S in _all_near_parallel_sets():
        try:
            solve_feasibility(S)
        except NumericalBreakdown:
            broken.append(k)
            assert is_nonempty(S)
            x = feasible_point(S)
            slack = FEAS_TOL * (1.0 + np.linalg.norm(x))
            assert np.max(S.ineq_lhs @ x - S.ineq_rhs) <= slack, k
    assert broken


def test_lp_optimum_satisfies_its_rows_or_breaks_down():
    # on near-parallel set 22, minimizing -1 . x ends phase two on a basis
    # that lost primal feasibility, whose clipped point (value -12.18)
    # misses a row by 6.46; the LP breaks down instead of calling it optimal.
    # Every optimum of the corpus satisfies its rows.
    breakdowns = {}
    for k, S in _all_near_parallel_sets():
        n = S.ambient_dim
        for c in (np.ones(n), -np.ones(n), np.eye(n)[0], -np.eye(n)[0]):
            try:
                res = solve_lp(S, c)
            except NumericalBreakdown as exc:
                breakdowns.setdefault(k, []).append(str(exc))
                continue
            if res.is_optimal:
                x = res.point
                slack = FEAS_TOL * (1.0 + np.linalg.norm(x))
                assert np.max(S.ineq_lhs @ x - S.ineq_rhs) <= slack, (k, c)
    assert "simplex ended at a point that violates a row" in breakdowns[22]


def test_cached_witness_satisfies_its_rows_on_tilted_rows():
    # one row copied and tilted by 1e-7 along (1, ..., 1): on sets 110 and
    # 112 the slack-basis phase one ends on a basis that lost primal
    # feasibility, and its clipped point misses a row by 0.03 and by 1.0;
    # the witness then falls back to the all-artificial start, which finds
    # a point of set 112 and breaks down on set 110
    rng = SplitMix64(77)
    broken = []
    for index, S in enumerate(_random_sets(101, 113)):
        n = S.ambient_dim
        j = rng.randint(0, S.num_ineq - 1)
        T = PolyhedralSet(n, ineq_lhs=np.vstack([S.ineq_lhs, S.ineq_lhs[j] + 1e-7 * np.ones(n)]),
                          ineq_rhs=np.append(S.ineq_rhs, S.ineq_rhs[j]))
        try:
            x = feasible_point(T)
        except NumericalBreakdown:
            broken.append(index)
            continue
        slack = FEAS_TOL * (1.0 + np.linalg.norm(x))
        assert np.max(T.ineq_lhs @ x - T.ineq_rhs) <= slack, index
    assert set(broken) <= {110}


class TestWitnessCache:
    def test_one_phase_one_solve_per_set(self, feasibility_calls):
        S = _triangle()
        # every routine over S shares its one phase one, on repeated calls
        # too
        for _ in range(2):
            assert is_nonempty(S)
            feasible_point(S)
            for u in ([2.0, 2.0], [-1.0, 3.0], [3.0, -1.0], [-2.0, -2.0], [1.0, 1.0]):
                project_onto(u, S)
            enumerate_vertices(S)
            assert hausdorff(S, S) == 0.0
            assert is_nonempty(S)
        assert len(feasibility_calls) == 1

    def test_returned_points_do_not_alias_the_cache(self):
        S = _triangle()
        w = feasible_point(S)
        # u - w lies in the normal cone at w, so the projection of u is w
        tight_rows = np.abs(S.ineq_rhs - S.ineq_lhs @ w) <= 1e-9
        u = w + S.ineq_lhs[tight_rows].sum(axis=0)
        z = project_onto(u, S)
        np.testing.assert_allclose(z, w, atol=1e-12)
        z += 5.0
        p = feasible_point(S)
        p += 7.0
        np.testing.assert_array_equal(project_onto(u, S), w)
        np.testing.assert_array_equal(feasible_point(S), w)

    def test_empty_set_cached_as_empty(self, feasibility_calls):
        S = PolyhedralSet(2, ineq_lhs=[[1.0, 1.0], [-1.0, -1.0]], ineq_rhs=[-1.0, 0.0])
        assert not is_nonempty(S)
        with pytest.raises(EmptySet):
            project_onto([0.5, 0.5], S)
        with pytest.raises(EmptySet):
            feasible_point(S)
        assert len(feasibility_calls) == 1


def _margin_box(gap):
    """{x : x1 <= 0.3, x1 >= 0.3 + gap, -1 <= x2 <= 2}: lo_1 = hi_1 + gap."""
    return PolyhedralSet(2, ineq_lhs=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                         ineq_rhs=[0.3, -(0.3 + gap), 2.0, 1.0])


class TestBoxWitness:
    """A box's emptiness and point are read off its bounds by
    `feasible_witness`, the one place that decides them, with no phase
    one."""

    def test_a_box_runs_no_phase_one(self, feasibility_calls):
        pinned = PolyhedralSet(3, eq_lhs=np.eye(3), eq_rhs=[0.1, 0.2, 0.3])
        np.testing.assert_array_equal(feasible_point(pinned), [0.1, 0.2, 0.3])
        np.testing.assert_array_equal(enumerate_vertices(pinned).vertices, [[0.1, 0.2, 0.3]])
        S = box([-1.0, 0.5, -2.0], [1.0, 2.0, -1.0])
        assert is_nonempty(S)
        # the origin clipped into the box
        np.testing.assert_array_equal(feasible_point(S), [0.0, 0.5, -1.0])
        np.testing.assert_array_equal(project_onto([3.0, 0.0, 0.0], S), [1.0, 0.5, -1.0])
        assert feasibility_calls == []

    @pytest.mark.parametrize("gap, empty", [(2e-9, True), (5e-10, False)])
    def test_the_emptiness_margin_is_feas_tol(self, gap, empty):
        # every entry point decides a fresh set, so none reads another's
        # verdict from the cache
        assert is_nonempty(_margin_box(gap)) is not empty
        entries = (
            feasible_point,
            lambda S: project_onto([5.0, 5.0], S),
            enumerate_vertices,
        )
        for entry in entries:
            if empty:
                with pytest.raises(EmptySet):
                    entry(_margin_box(gap))
            else:
                entry(_margin_box(gap))


def _single_coordinate_sets(count=2000):
    """Seeded sets whose rows mostly touch one coordinate each: mixed signs
    and scales, repeated coordinates, right-hand sides of 0 (whose bounds
    are signed zeros), equality rows, and now and then a row with two
    coefficients, a zero row, or no rows at all."""
    rng = SplitMix64(33)
    for _ in range(count):
        n = rng.randint(1, 4)
        blocks = []
        for num_rows in (rng.randint(0, 6), rng.randint(0, 2)):
            lhs = np.zeros((num_rows, n))
            rhs = np.zeros(num_rows)
            for i in range(num_rows):
                kind = rng.randint(0, 39)
                if kind > 1:
                    lhs[i, rng.randint(0, n - 1)] = (
                        rng.normal() if kind % 2 else (1.0 if kind % 4 else -1.0))
                if kind == 1:
                    lhs[i] = rng.normals(n)
                rhs[i] = 0.0 if kind % 3 == 0 else rng.normal()
            blocks += [lhs, rhs]
        yield PolyhedralSet(n, *blocks)


def _same_bounds(a, b):
    if a is None or b is None:
        return a is None and b is None
    return all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def test_box_bounds_match_the_row_loop():
    # bit for bit, signed zeros included, on the seeded corpus and on every
    # piece of the benchmark's `preimage` pool at level 0
    boxes = others = 0
    for S in _single_coordinate_sets():
        bounds = S.box_bounds()
        assert _same_bounds(bounds, box_bounds_loop(S))
        boxes += bounds is not None
        others += bounds is None
    assert boxes > 1000 and others > 100
    pool = workloads.Preimage()
    pieces = 0
    for index in range(pool.pool_size):
        inst = pool.build(index)
        for piece in avi.inverse_residual(inst, np.zeros(inst.dim)):
            assert _same_bounds(piece.box_bounds(), box_bounds_loop(piece)), index
            pieces += 1
    assert pieces > 30


class TestLapackHelpers:
    """`optkernel.lu_factor`/`lu_solve` call getrf/getrs themselves; their
    results must be those of scipy's wrappers, bit for bit."""

    @staticmethod
    def _assert_same(a, rhs):
        lu, piv = optkernel.lu_factor(a)
        ref_lu, ref_piv = scipy.linalg.lu_factor(a)
        assert lu.tobytes() == ref_lu.tobytes()
        np.testing.assert_array_equal(piv, ref_piv)
        for trans in (0, 1):
            x = optkernel.lu_solve((lu, piv), rhs, trans=trans)
            ref = scipy.linalg.lu_solve((ref_lu, ref_piv), rhs, trans=trans)
            assert x.tobytes() == ref.tobytes()

    def test_random_square_systems(self):
        rng = SplitMix64(41)
        for n in (2, 5, 12):
            a = np.array([rng.normals(n) for _ in range(n)])
            self._assert_same(a, np.array(rng.normals(n)))

    def test_fancy_indexed_column_slice(self):
        # the simplex factors A[:, basis], a Fortran-ordered copy
        rng = SplitMix64(43)
        A = np.array([rng.normals(9) for _ in range(4)])
        basis = [7, 2, 5, 0]
        a = A[:, basis]
        assert not a.flags.c_contiguous
        self._assert_same(a, np.array(rng.normals(4)))
        # a column of A is a strided right-hand side
        self._assert_same(a, A[:, 3])

    def test_one_by_one(self):
        self._assert_same(np.array([[3.0]]), np.array([-7.0]))

    def test_inputs_are_left_alone(self):
        a = np.array([[0.0, 2.0], [1.0, 1.0]], order="F")
        b = np.array([1.0, 3.0])
        lu = optkernel.lu_factor(a)
        optkernel.lu_solve(lu, b)
        np.testing.assert_array_equal(a, [[0.0, 2.0], [1.0, 1.0]])
        np.testing.assert_array_equal(b, [1.0, 3.0])


def test_singular_basis_raises_numerical_breakdown():
    # the two columns of A are equal, so the starting basis is exactly
    # singular; the simplex must say so without a LinAlgWarning first
    A = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalBreakdown, match="singular"):
            optkernel._bland_iterate(
                A, np.array([1.0, 2.0]), np.array([0.0, 0.0, -1.0]), [0, 1], 3, 10,
            )


def _unit(rng, n):
    v = np.array(rng.normals(n))
    return v / np.linalg.norm(v)


def _degenerate_sets():
    """40 sets in R^2..R^4, each with a vertex v where n + 2 rows are tight,
    one of those rows duplicated and one rescaled, and for every fourth set
    an equality row through v.  The normals of the rows through v lie
    within 0.5 of -w for a unit w, so v + t w lies in the set for small t.
    Yields (S, v, normals of the rows through v)."""
    for seed in range(40):
        rng = SplitMix64(8000 + seed)
        n = 2 + seed % 3
        v = np.array(rng.normals(n))
        w = _unit(rng, n)
        normals = np.array([-w + 0.5 * _unit(rng, n) for _ in range(n + 2)])
        A = np.vstack([normals, normals[0], 2.0 * normals[1], w])
        b = np.concatenate([normals @ v, [normals[0] @ v, 2.0 * normals[1] @ v, w @ v + 2.0]])
        eq_lhs = eq_rhs = None
        if seed % 4 == 3:
            e = _unit(rng, n)
            e -= (e @ w) * w
            eq_lhs, eq_rhs = [e], [e @ v]
        yield PolyhedralSet(n, ineq_lhs=A, ineq_rhs=b, eq_lhs=eq_lhs, eq_rhs=eq_rhs), v, normals


def _moved_to_origin(S, x):
    """S - x = {z : A z <= b - A x, E z = d - E x}, with every right-hand
    side within 1e-12 of 0 set to 0: the rows through x pass through the
    origin, which is the set's phase-one witness and so the start of every
    projection loop on it."""
    b = S.ineq_rhs - S.ineq_lhs @ x
    d = S.eq_rhs - S.eq_lhs @ x
    b[np.abs(b) <= 1e-12] = 0.0
    d[np.abs(d) <= 1e-12] = 0.0
    T = PolyhedralSet(S.ambient_dim, S.ineq_lhs, b, S.eq_lhs, d)
    assert not feasible_witness(T).any()
    return T


def _on_a_degenerate_vertex(S, z):
    """Whether more than n inequality rows of S are tight at z."""
    return np.sum(np.abs(S.ineq_lhs @ z - S.ineq_rhs) <= 1e-9) > S.ambient_dim


def test_projection_matches_the_brute_force_oracle():
    # Each set is projected onto as it is and moved so that its degenerate
    # vertex v is the origin.  The targets are v pushed out along its
    # normal cone (projection v, where n + 4 rows are tight and the loop
    # ends on independent ones among them), points near v and far points.
    compared = 0
    reached = set()
    for seed, (S, v, normals) in enumerate(_degenerate_sets()):
        rng = SplitMix64(9000 + seed)
        n = S.ambient_dim
        weights = np.array([abs(rng.normal()) for _ in range(len(normals))])
        targets = [v + weights @ normals, v + 0.3 * _unit(rng, n), 4.0 * _unit(rng, n)]
        at_v = _moved_to_origin(S, v)
        for u in targets:
            expected = brute_force_projection(u, S)
            for z in (project_onto(u, S), v + project_onto(u - v, at_v)):
                assert np.linalg.norm(z - expected) <= 1e-9 * (1.0 + np.linalg.norm(u)), seed
                compared += 1
                if _on_a_degenerate_vertex(S, z):
                    reached.add(seed)
    assert compared == 240
    assert len(reached) == 40


def _fresh(S):
    """A copy of S with an empty cache."""
    return PolyhedralSet(S.ambient_dim, S.ineq_lhs, S.ineq_rhs, S.eq_lhs, S.eq_rhs)


def _sets_with_equality_rows():
    """30 sets in R^3..R^5 with 2n inequality rows and one or two equality
    rows, all holding a seeded point x, none of whose inequality rows is
    tight.  Yields (S, x)."""
    for seed in range(30):
        rng = SplitMix64(9500 + seed)
        n = 3 + seed % 3
        x = np.array(rng.normals(n))
        A = np.array([rng.normals(n) for _ in range(2 * n)])
        b = A @ x + np.array([abs(rng.normal()) + 0.1 for _ in range(2 * n)])
        E = np.array([rng.normals(n) for _ in range(1 + seed % 2)])
        yield PolyhedralSet(n, ineq_lhs=A, ineq_rhs=b, eq_lhs=E, eq_rhs=E @ x), x


def _hexagon():
    """{a_k . x <= 1} for the six unit normals a_k at angles k pi / 3."""
    angles = np.pi / 3.0 * np.arange(6)
    return PolyhedralSet(2, ineq_lhs=np.column_stack([np.cos(angles), np.sin(angles)]),
                         ineq_rhs=np.ones(6))


def _shuffled(rng, items):
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = rng.randint(0, i)
        items[i], items[j] = items[j], items[i]
    return items


def test_projections_do_not_depend_on_call_history():
    # A set keeps its stacked projection rows and the cells, with their
    # Cholesky factors, of the last working sets its projections ended on.  So a
    # target projected onto a set whose cache is warm from the other
    # targets, in shuffled order, lands bit for bit where it lands on a
    # fresh copy of the set.  Each set is taken as it is and moved so that
    # its seeded point is the origin, its phase-one witness
    # (`_moved_to_origin`); some targets project onto the degenerate sets'
    # vertices.  On the hexagon the targets ring the set and end on its 6
    # edges and 6 vertices, so the kept cells change from call to call.
    def seeded(S, seed):
        rng = SplitMix64(seed)
        return [4.0 * np.array(rng.normals(S.ambient_dim)) for _ in range(8)]

    ring = 3.0 * np.column_stack([np.cos(np.pi / 6.0 * np.arange(12)),
                                  np.sin(np.pi / 6.0 * np.arange(12))])
    cases = []
    for i, (S, x) in enumerate(_sets_with_equality_rows()):
        targets = seeded(S, 9600 + i)
        cases += [(S, targets), (_moved_to_origin(S, x), [u - x for u in targets])]
    for i, (S, v, _) in enumerate(_degenerate_sets()):
        targets = seeded(S, 9700 + i)
        cases += [(S, targets), (_moved_to_origin(S, v), [u - v for u in targets])]
    cases.append((_hexagon(), list(ring)))
    compared = degenerate = 0
    for index, (S, targets) in enumerate(cases):
        for u in targets:
            project_onto(u, S)
        for u in _shuffled(SplitMix64(9800 + index), targets):
            warm = project_onto(u, S)
            cold = project_onto(u, _fresh(S))
            assert warm.tobytes() == cold.tobytes(), (index, u)
            compared += 1
            degenerate += _on_a_degenerate_vertex(S, warm)
    hexagon = _hexagon()
    tight_sets = {
        tuple(np.flatnonzero(np.abs(hexagon.ineq_lhs @ project_onto(u, hexagon) - 1.0) <= 1e-9))
        for u in ring
    }
    assert compared == 30 * 16 + 40 * 16 + 12
    assert len(tight_sets) == 12 and degenerate > 0


def _pass_counts(monkeypatch, pool):
    """((potrf, potrs, hits, loops), outcomes) of one pass over `pool`: the
    LAPACK Cholesky calls, the projections of a target outside a set that is
    not a box which a kept cell answered, the active-set loops, and what
    each task returned."""
    counts = {"_potrf": 0, "_potrs": 0}

    def counted(name):
        original = getattr(optkernel, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(optkernel, name, counted(name))
    loops = _count_loops(monkeypatch)
    hits = [0]
    project = optkernel.solve_projection_qp

    def classified(S, u):
        # a call that neither returns its target, nor clips onto a box, nor
        # runs the loop took a kept cell
        before = len(loops)
        z = project(S, u)
        outside = not S.contains(u, FEAS_TOL * (1.0 + np.linalg.norm(u)))
        hits[0] += outside and S.box_bounds() is None and len(loops) == before
        return z

    for module in (avi, polyhedra, solvers):
        monkeypatch.setattr(module, "solve_projection_qp", classified)
    outcomes = [pool.run(index, pool.build(index)) for index in range(pool.pool_size)]
    return (counts["_potrf"], counts["_potrs"], hits[0], len(loops)), outcomes


def test_solver_tail_pass_factors_each_working_set_once(monkeypatch):
    # One pass over the benchmark's `solver_tail` pool (16 extragradient
    # solves, 7,345 projections onto their C).  A set keeps the cells of the
    # last four working sets its projections ended on, each with its
    # Cholesky factor, and the next target onto it usually lies in one of
    # them: an extragradient iteration alternates between the cell of the
    # residual's target and that of its steps' targets.  5,985 calls take a
    # kept cell with one potrs on each factor tried, and 60 run the dual
    # loop, which factors each working set it tries once.
    counts, outcomes = _pass_counts(monkeypatch, workloads.SolverTail())
    assert all(outcome["invariants"] for outcome in outcomes)
    assert counts == (108, 6528, 5985, 60)


@pytest.mark.parametrize("pool, expected", [
    # random samples and their projections onto C and the solution pieces
    (workloads.ErrorBound, (301, 2080, 1069, 146)),
    # Hausdorff distances between sections, projecting their vertices
    (workloads.Multifunction, (438, 842, 97, 198)),
], ids=["error_bound", "multifunction"])
def test_pool_pass_keeps_four_cells_per_set(monkeypatch, pool, expected):
    # (potrf, potrs, hits, loops) over one pool pass: a change that loses a
    # set's kept cells raises the loops and the factorizations here
    assert _pass_counts(monkeypatch, pool())[0] == expected


def test_solver_tail_pass_calls_the_public_names(monkeypatch):
    # One pass over the `solver_tail` pool makes 2,459 residual evaluations
    # and 7,345 projections (one per residual, two per extragradient step),
    # every one through the module bindings of `residual` and
    # `solve_projection_qp`, which the benchmark's tracer counts.  A caller
    # that bypassed either name (an inlined residual, a private projection
    # entry) would lower these counts.
    counts = {"residual": 0, "solve_projection_qp": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name, module in (("residual", avi), ("solve_projection_qp", optkernel)):
        original = getattr(module, name)
        for bound in (avi, optkernel, solvers):
            if getattr(bound, name, None) is original:
                monkeypatch.setattr(bound, name, counted(name, original))
    pool = workloads.SolverTail()
    for index in range(pool.pool_size):
        assert pool.run(index, pool.build(index))["invariants"]
    assert counts == {"residual": 2459, "solve_projection_qp": 7345}


def _count_loops(monkeypatch):
    """The sets on which `solve_projection_qp` ran its active-set loop,
    one entry per run, recorded through the loop's `_projection_rows` call
    (`polyhedra.hausdorff` reads the stacked rows too)."""
    loops = []
    original = optkernel._projection_rows

    def recording(S):
        if sys._getframe(1).f_code is optkernel.solve_projection_qp.__code__:
            loops.append(S)
        return original(S)

    monkeypatch.setattr(optkernel, "_projection_rows", recording)
    return loops


def _runs(loops, S):
    return sum(T is S for T in loops)


class TestCellLookup:
    """A projection that ends on a working set W leaves W's cell in its
    set's cache, and the next projection onto the set tries it first: it is
    accepted only with margins that no other working set at which the loop
    could stop can meet (every inequality multiplier of W above a floor set
    by W's conditioning, every row outside W slack by more than
    FEAS_TOL (1 + ||u||) and a reach L sqrt(E) set by the multipliers), and
    otherwise the loop runs as on a fresh set.  On the
    hexagon, W = {0} is optimal for u = (t, y) with t > 1 and
    |y| < 1 / sqrt(3), and P(u) = (1, y)."""

    def test_targets_in_one_cell_take_it(self, monkeypatch):
        loops = _count_loops(monkeypatch)
        hexagon = _hexagon()
        project_onto([2.0, 0.0], hexagon)
        assert _runs(loops, hexagon) == 1
        for u in ([1.5, 0.3], [3.0, -0.4], [1.2, 0.5], [7.0, -0.55]):
            z = project_onto(u, hexagon)
            assert _runs(loops, hexagon) == 1, u
            np.testing.assert_allclose(z, [1.0, u[1]], atol=1e-12)
            assert z.tobytes() == project_onto(u, _fresh(hexagon)).tobytes()
        assert _runs(loops, hexagon) == 1

    def test_a_hit_solves_on_the_cells_own_factor(self, monkeypatch):
        # the cell keeps the factor its projection ended with: a hit makes
        # one potrs on it and no factorization
        hexagon = _hexagon()
        project_onto([2.0, 0.0], hexagon)
        calls = []
        for name in ("_potrf", "_potrs"):
            original = getattr(optkernel, name)
            monkeypatch.setattr(optkernel, name,
                                lambda *a, _name=name, _f=original: calls.append(_name) or _f(*a))
        z = project_onto([1.5, 0.3], hexagon)
        assert calls == ["_potrs"]
        assert z.tobytes() == project_onto([1.5, 0.3], _fresh(hexagon)).tobytes()

    def test_a_neighbouring_cell_misses(self, monkeypatch):
        loops = _count_loops(monkeypatch)
        hexagon = _hexagon()
        project_onto([2.0, 0.0], hexagon)
        # (2, 2) projects onto the vertex of rows 0 and 1, where row 1 is
        # violated by W = {0}'s point; (0.5, 2.5) projects onto edge 1; the
        # set still keeps W = {0}, third, and (2, 0) hits it
        for count, u in zip((2, 3, 3), ([2.0, 2.0], [0.5, 2.5], [2.0, 0.0])):
            z = project_onto(u, hexagon)
            assert _runs(loops, hexagon) == count, u
            assert z.tobytes() == project_onto(u, _fresh(hexagon)).tobytes()
        # the hit moved W = {0} to the front, and (3, 0.2) lies in its cell
        project_onto([3.0, 0.2], hexagon)
        assert _runs(loops, hexagon) == 3

    @pytest.mark.parametrize("u, runs", [
        # a multiplier of 5e-8, above W's floor of 2e-9: the cell answers
        ([1.0 + 5e-8, 0.1], 1),
        # W = {0}'s point leaves row 1 slack by 1e-10, within FEAS_TOL
        ([2.0, (0.5 - 1e-10) / math.sin(math.pi / 3.0)], 2),
        # a multiplier of 999 at ||u|| = 1000: row 1 is slack by 0.017,
        # within the reach sqrt(E) = 0.03 of the loop's tolerance
        ([1000.0, 1.0 / math.sqrt(3.0) - 0.02], 2),
    ], ids=["u0", "u1", "u2"])
    def test_a_target_on_a_cell_boundary_runs_the_loop(self, monkeypatch, u, runs):
        loops = _count_loops(monkeypatch)
        hexagon = _hexagon()
        project_onto([2.0, 0.0], hexagon)
        assert not hexagon.contains(u, FEAS_TOL * (1.0 + np.linalg.norm(u)))
        z = project_onto(u, hexagon)
        assert _runs(loops, hexagon) == runs
        assert z.tobytes() == project_onto(u, _fresh(hexagon)).tobytes()

    def test_a_row_the_loop_can_bind_refuses_the_cell(self, monkeypatch):
        # S = {x2 <= 0, x1 + x2 <= 1}, moved by s = (10.875, -10); below,
        # points are named before the move.  (0.5, 1) leaves W = {0}, whose
        # point for u = (1 - 5e-8, 1) is (1 - 5e-8, 0): row 1 is slack there
        # by 5e-8, more than FEAS_TOL (1 + ||u - s||) but within the reach
        # L sqrt(E) = 1.8e-4 of the margin, so the cell is refused.  The
        # loop adds row 0, the most violated, and stops at (1 - 5e-8, 0),
        # the exact projection, on warm and fresh sets alike.
        loops = _count_loops(monkeypatch)
        s = np.array([10.875, -10.0])
        rows = np.array([[0.0, 1.0], [1.0, 1.0]])
        S = PolyhedralSet(2, ineq_lhs=rows, ineq_rhs=np.array([0.0, 1.0]) - rows @ s)
        project_onto(np.array([0.5, 1.0]) - s, S)
        u = np.array([1.0 - 5e-8, 1.0]) - s
        z = project_onto(u, S)
        assert _runs(loops, S) == 2
        np.testing.assert_allclose(z + s, [1.0 - 5e-8, 0.0], rtol=0.0, atol=1e-14)
        assert z.tobytes() == project_onto(u, _fresh(S)).tobytes()

    @pytest.mark.parametrize("t, hit", [(1e-6, True), (2e-7, False)])
    def test_a_multiplier_below_the_floor_runs_the_loop(self, monkeypatch, t, hit):
        # S = {x2 <= 0, s x1 + c x2 <= 0} with c = 0.99: at the vertex 0,
        # W = {0, 1} has trace((G G^T)^{-1}) = 2 / (1 - c^2), about 100, so a
        # multiplier must exceed about 2.9e-7 for u = a_0 + t a_1
        loops = _count_loops(monkeypatch)
        c = 0.99
        rows = np.array([[0.0, 1.0], [math.sqrt(1.0 - c * c), c]])
        S = PolyhedralSet(2, ineq_lhs=rows, ineq_rhs=np.zeros(2))
        project_onto(rows[0] + rows[1], S)
        assert _runs(loops, S) == 1
        u = rows[0] + t * rows[1]
        z = project_onto(u, S)
        assert _runs(loops, S) == 1 + (not hit)
        assert z.tobytes() == project_onto(u, _fresh(S)).tobytes()

    def test_a_loop_that_ends_with_no_working_row_keeps_no_cell(self):
        # S = {x1 + x2 <= 1, x1 - x2 <= 1}, each row scaled by 1e6.
        # u = (1 + 20 eps, 0) violates both rows by 4.4e-9, more than
        # FEAS_TOL (1 + ||u||).  The loop starts at u and adds the violated
        # rows, so it never ends with no working row: u is projected onto the
        # vertex (1, 0), and the set keeps the cell of W = {0, 1}
        rows = 1e6 * np.array([[1.0, 1.0], [1.0, -1.0]])
        S = PolyhedralSet(2, ineq_lhs=rows, ineq_rhs=np.full(2, 1e6))
        u = np.array([1.0 + 20 * np.finfo(float).eps, 0.0])
        assert not S.contains(u, FEAS_TOL * (1.0 + np.linalg.norm(u)))
        z = project_onto(u, S)
        np.testing.assert_allclose(z, [1.0, 0.0], rtol=0.0, atol=1e-14)
        assert [cell[0] for cell in S._cache["cells"]] == [np.ones(2, dtype=bool).tobytes()]

    def test_dependent_working_sets_keep_no_cell(self, monkeypatch):
        # At a degenerate vertex v, n + 4 rows are tight (and for every
        # fourth set an equality row passes through v).  The loop ends on n
        # independent rows through v, never on dependent ones, and keeps
        # their cell; the rows through v left out of W are tight at v, so
        # for a target that projects onto v the cell is refused and the loop
        # decides again, with the same bits.
        loops = _count_loops(monkeypatch)
        refused = 0
        for seed, (S, v, normals) in enumerate(_degenerate_sets()):
            rng = SplitMix64(9000 + seed)
            weights = np.array([abs(rng.normal()) for _ in range(len(normals))])
            u = v + weights @ normals
            for T, target in ((_moved_to_origin(S, v), u - v), (S, u)):
                for run in (1, 2):
                    z = project_onto(target, T)
                    assert _runs(loops, T) == run, seed
                    assert z.tobytes() == project_onto(target, _fresh(T)).tobytes()
                    working = np.frombuffer(T._cache["cells"][0][0], dtype=bool)
                    assert T.num_eq + working.sum() == T.ambient_dim, seed
                refused += 1
        assert refused == 80


def _edge_target(k):
    """2 a_k for the hexagon's unit normal a_k: it projects onto the middle
    of edge k, with W = {k} and multiplier 1."""
    return 2.0 * np.array([math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0)])


class TestKeptCells:
    """A set keeps the cells of the last four working sets its projections
    ended on, most recently used first; a hit on a cell that is not first
    moves it to the front."""

    def test_alternating_cells_run_the_loop_once_each(self, monkeypatch):
        # as an extragradient step alternates between the residual's target
        # and the step's, the targets alternate between edges 0 and 1
        loops = _count_loops(monkeypatch)
        hexagon = _hexagon()
        for round in range(10):
            for k in (0, 1):
                u = _edge_target(k) + 0.01 * round * np.array([1.0, 0.5])
                z = project_onto(u, hexagon)
                assert z.tobytes() == project_onto(u, _fresh(hexagon)).tobytes(), (round, k)
        assert _runs(loops, hexagon) == 2

    def test_a_fifth_cell_drops_the_oldest(self, monkeypatch):
        loops = _count_loops(monkeypatch)
        hexagon = _hexagon()
        for k in range(5):
            project_onto(_edge_target(k), hexagon)
        assert _runs(loops, hexagon) == 5
        assert len(hexagon._cache["cells"]) == 4
        # edge 0's cell went when edge 4's came, so the loop runs again
        z = project_onto(_edge_target(0), hexagon)
        assert _runs(loops, hexagon) == 6
        assert z.tobytes() == project_onto(_edge_target(0), _fresh(hexagon)).tobytes()
        # and edge 1's went for it; edges 4, 3 and 2 are still kept
        for k in (4, 3, 2):
            project_onto(_edge_target(k), hexagon)
        assert _runs(loops, hexagon) == 6
        project_onto(_edge_target(1), hexagon)
        assert _runs(loops, hexagon) == 7

    def test_a_hit_moves_its_cell_to_the_front(self, monkeypatch):
        # with W = {1} kept before W = {0}, a target in edge 0's cell tries
        # W = {1} first (its point leaves row 0) and then W = {0}: two
        # potrs; the hit moved W = {0} to the front, so the next target in
        # its cell takes one
        hexagon = _hexagon()
        for k in (0, 1):
            project_onto(_edge_target(k), hexagon)
        calls = []
        original = optkernel._potrs
        monkeypatch.setattr(optkernel, "_potrs", lambda *a: calls.append(a) or original(*a))
        per_call = []
        for u in ([1.5, 0.3], [3.0, -0.4]):
            before = len(calls)
            z = project_onto(u, hexagon)
            per_call.append(len(calls) - before)
            np.testing.assert_allclose(z, [1.0, u[1]], atol=1e-12)
            assert z.tobytes() == project_onto(u, _fresh(hexagon)).tobytes()
        assert per_call == [2, 1]


def _fuzz_polytope(rng):
    """A polytope in R^2..R^4 holding the origin in its interior: random
    unit rows with right-hand sides in [0.5, 1.5], one to three of them
    copied with a tilt of 10^-(3..10) and the same or a nudged right-hand
    side, and a box of half-width 3."""
    n = rng.randint(2, 4)
    m = rng.randint(n + 1, n + 5)
    rows = [_unit(rng, n) for _ in range(m)]
    rhs = [0.5 + rng.uniform() for _ in range(m)]
    for _ in range(rng.randint(1, 3)):
        j = rng.randint(0, m - 1)
        tilt = 10.0 ** -rng.randint(3, 10)
        rows.append(rows[j] + tilt * np.array(rng.normals(n)))
        rhs.append(rhs[j] + (tilt * rng.normal() if rng.uniform() < 0.5 else 0.0))
    A = np.vstack(rows + [np.eye(n), -np.eye(n)])
    b = np.concatenate([rhs, np.full(2 * n, 3.0)])
    return PolyhedralSet(n, ineq_lhs=A, ineq_rhs=b)


def _fuzz_targets(rng, S, centres=5, rounds=6):
    """Targets near the boundaries of the cells around `centres` points
    outside S, in interleaved order: each round takes one target per centre.
    A target is the projection p of its centre (onto a fresh copy of S)
    pushed out along each row tight at p by a multiplier of 1, of 1e-9 to
    1e-5 or of 0, then moved by 10^-(4..9) in a random direction, so that
    it lies near the boundary of a neighbouring cell."""
    n = S.ambient_dim
    feet = []
    for _ in range(centres):
        p = project_onto((1.0 + 3.0 * rng.uniform()) * _unit(rng, n), _fresh(S))
        feet.append((p, S.ineq_lhs[np.abs(S.ineq_lhs @ p - S.ineq_rhs) <= 1e-9]))
    targets = []
    for _ in range(rounds):
        for p, tight in feet:
            weights = np.array([(1.0, 10.0 ** -rng.randint(5, 9) * rng.uniform(), 0.0)[rng.randint(0, 2)]
                                 for _ in tight])
            shift = 10.0 ** -rng.randint(4, 9) * np.array(rng.normals(n))
            targets.append(p + weights @ tight + shift)
    return targets


def test_warm_sets_project_as_fresh_ones(monkeypatch):
    # Seeded warm-against-fresh fuzz: each target is projected onto one set
    # that keeps the cells of the targets before it and onto a fresh copy,
    # and the two must agree to the bit.  The near-parallel row pairs make
    # thin cells, the targets lie near their cells' boundaries, and
    # interleaving them around five points changes the front cell on most
    # calls.  Trial 102 holds the case of
    # `test_a_kept_cell_answers_where_the_loop_cycles`.
    loops = _count_loops(monkeypatch)
    compared = hits = 0
    for trial in range(300):
        rng = SplitMix64(12_000 + trial)
        S = _fuzz_polytope(rng)
        for index, u in enumerate(_fuzz_targets(rng, S)):
            before = len(loops)
            warm = project_onto(u, S)
            outside = not S.contains(u, FEAS_TOL * (1.0 + np.linalg.norm(u)))
            hits += outside and len(loops) == before
            assert warm.tobytes() == project_onto(u, _fresh(S)).tobytes(), (trial, index)
            compared += 1
    assert compared == 300 * 30
    assert hits > 1500


def test_a_kept_cell_answers_where_the_loop_cycles():
    # Trial 102 of the fuzz above: row 4 is row 2 tilted by about 1e-8 and
    # row 5 is row 0 tilted by about 1e-9, rows on which a primal
    # active-set loop can drop a row and block on it again until its cap.
    # A set that kept the cell of `near` answers `u` from that cell, and
    # the loop ends on a fresh set with the oracle's point, to the bit the
    # kept cell's.
    A = np.array([
        [-0.7277541154113606, 0.6212077401501541, 0.2906456452097067],
        [-0.7990059688422453, -0.1662641299326178, 0.5778803516751667],
        [-0.601256180047457, -0.32129500278517026, -0.7316150129268926],
        [0.012544418115382731, -0.5054390896906031, -0.8627710960543826],
        [-0.6012562064604273, -0.32129499975007875, -0.7316150027401384],
        [-0.727754116956643, 0.6212077398078537, 0.29064564615697064],
    ])
    b = [0.7665253746476879, 0.6241646839698928, 0.5182168204810906,
         0.8395170001993182, 0.5182168204810906, 0.766525376895519]
    S = PolyhedralSet(3, ineq_lhs=np.vstack([A, np.eye(3), -np.eye(3)]),
                      ineq_rhs=np.concatenate([b, np.full(6, 3.0)]))
    near = np.array([0.3889673482192549, -3.4453283023780914, -0.10806329236393111])
    u = np.array([-0.4100387039062987, -3.611592291687066, 0.46981684685194236])
    fresh = project_onto(u, _fresh(S))
    assert np.linalg.norm(fresh - brute_force_projection(u, S)) <= 1e-12
    project_onto(near, S)
    assert project_onto(u, S).tobytes() == fresh.tobytes()


def _duplicate_and_scaled_rows():
    """150 seeded sets in R^1..R^4, one row of each copied exactly and
    doubled, with an objective and a target each.  Yields (A, b, c, u)."""
    rng = SplitMix64(777)
    for _ in range(150):
        n = rng.randint(1, 4)
        m = rng.randint(2, 6)
        A = np.array([[rng.normal() for _ in range(n)] for _ in range(m)])
        b = np.array([rng.normal() + 1.0 for _ in range(m)])
        A = np.vstack([A, A[0], 2.0 * A[0]])
        b = np.concatenate([b, [b[0]], [2.0 * b[0]]])
        c = np.array([rng.normal() for _ in range(n)])
        yield A, b, c, np.array([3 * rng.normal() for _ in range(n)])


def _overdetermined_corner():
    """{x1 + x2 <= 1, x1 <= 1, x2 >= 0}: three rows meet at (1, 0)."""
    return PolyhedralSet(2, ineq_lhs=[[1.0, 1.0], [1.0, 0.0], [0.0, -1.0]],
                         ineq_rhs=[1.0, 1.0, 0.0])


class TestDegenerateInputs:
    def test_duplicate_and_scaled_rows(self):
        # exactly duplicated and positively rescaled constraint rows must not
        # break pivoting or the active-set iteration
        feasible_seen = 0
        for A, b, c, u in _duplicate_and_scaled_rows():
            res = solve_lp(PolyhedralSet(A.shape[1], ineq_lhs=A, ineq_rhs=b), c)
            if res.is_optimal:
                assert np.max(A @ res.point - b) <= 1e-8
                assert abs(res.value - b @ res.dual) <= 1e-7 * (1 + abs(res.value))
            S = PolyhedralSet(A.shape[1], ineq_lhs=A, ineq_rhs=b)
            try:
                z = solve_projection_qp(S, u)
            except EmptySet:
                continue
            assert S.contains(z, 1e-7)
            feasible_seen += 1
        assert feasible_seen > 50

    def test_overdetermined_corner_projection(self):
        # three constraints meet at (1, 0); projecting from outside the
        # corner, the loop ends on two of them
        z = project_onto([2.0, -1.0], _overdetermined_corner())
        np.testing.assert_allclose(z, [1.0, 0.0], atol=1e-9)


def test_the_loop_and_phase_one_agree_on_emptiness():
    # The dual loop runs no phase one until a violated row is dependent on
    # the working rows with none to drop.  On the 40 near-parallel sets
    # (k = 7, 30 and 38, where the all-artificial phase one breaks down,
    # included) and on the sets of `TestDegenerateInputs`, it raises
    # EmptySet for three targets each exactly when `feasible_witness` finds
    # the set empty.  Four of those sets are empty and not boxes, so the
    # loop reaches that branch on them.
    sets = [S for _, S in _all_near_parallel_sets()]
    sets += [PolyhedralSet(A.shape[1], ineq_lhs=A, ineq_rhs=b)
             for A, b, _, _ in _duplicate_and_scaled_rows()]
    sets.append(_overdetermined_corner())
    loop_verdicts = 0
    for index, S in enumerate(sets):
        empty = feasible_witness(S) is None
        rng = SplitMix64(9900 + index)
        for u in [3.0 * np.array(rng.normals(S.ambient_dim)) for _ in range(3)]:
            try:
                project_onto(u, _fresh(S))
            except EmptySet:
                assert empty, index
                continue
            assert not empty, index
        loop_verdicts += empty and S.box_bounds() is None
    assert len(sets) == 191 and loop_verdicts == 4


def _thin_slabs():
    """(k, g, S) for each of the 40 near-parallel sets with its tilted row
    a x <= b added reversed, -a x <= -(b + g): a slab of width -g along a
    row some 10^-(3 + k % 8) from parallel to another, for g in 3e-10
    (empty, but within FEAS_TOL), 0, -1e-9, -1e-7 and -1e-5."""
    for k, S in _all_near_parallel_sets():
        a, b = S.ineq_lhs[-1], S.ineq_rhs[-1]
        for g in (3e-10, 0.0, -1e-9, -1e-7, -1e-5):
            yield k, g, PolyhedralSet(S.ambient_dim, ineq_lhs=np.vstack([S.ineq_lhs, -a]),
                                      ineq_rhs=np.append(S.ineq_rhs, -(b + g)))


def test_thin_slabs_raise_empty_set_only_on_empty_sets():
    # On a thin slab the optimal working set holds the slab's row and the
    # row nearly parallel to it, and their Gram factor fails potrf's rule.
    # So the loop meets a violated row that counts as dependent with no
    # row to drop, but whose residual off the working rows is 1e-5 to 1e-8
    # of its length: r <= 0 then proves only that the set has no point near
    # the iterate (the oracle projects 1.9 to 8.7 away).  There the loop
    # asks phase one: an empty set raises EmptySet, and a nonempty one
    # NumericalBreakdown, on 57 of the 600 (slab, target) pairs below, all
    # at tilts of 1e-5 to 1e-8.  Every point returned holds the rows.
    breakdowns = collections.Counter()
    empty = 0
    for k, g, S in _thin_slabs():
        witness = feasible_witness(S)
        rng = SplitMix64(k)
        for u in [3.0 * np.array(rng.normals(S.ambient_dim)) for _ in range(3)]:
            try:
                z = project_onto(u, _fresh(S))
            except EmptySet:
                assert witness is None, (k, g)
                empty += 1
                continue
            except NumericalBreakdown:
                assert witness is not None, (k, g)
                breakdowns[k] += 1
                continue
            assert witness is not None, (k, g)
            assert S.contains(z, FEAS_TOL * (1.0 + np.linalg.norm(u))), (k, g)
    assert empty == 129
    assert breakdowns == {2: 8, 3: 8, 5: 6, 10: 1, 18: 5, 19: 8, 27: 4, 34: 5, 36: 12}


def _dependent_equality_rows():
    """20 gpm sections with more equality rows than output dimensions and
    20 sets in R^3..R^5 whose equality rows are e_1, e_1 again, e_2 and
    e_1 + 2 e_2, all holding a seeded point with every inequality row slack;
    each with a twin whose equality rows are inconsistent (the section at a
    moved input, or the last right-hand side moved by 1e-3).  Yields
    (S, empty twin, targets)."""
    for seed in range(40):
        rng = SplitMix64(9900 + seed)
        r = 2 + seed % 3
        y = np.array(rng.normals(r))
        ineq = np.array([rng.normals(r) for _ in range(r + 2)])
        slack = np.array([abs(rng.normal()) + 0.1 for _ in range(r + 2)])
        if seed < 20:
            x = np.array(rng.normals(2))
            a1 = np.array([rng.normals(2) for _ in range(r + 1 + seed % 2)])
            a2 = np.array([rng.normals(r) for _ in range(len(a1))])
            row_x = np.array([rng.normals(2) for _ in range(len(ineq))])
            f = gpm.GpMultifunction(input_dim=2, output_dim=r, a1=a1, a2=a2, z=a1 @ x + a2 @ y,
                                    row_x=row_x, row_y=ineq, rhs=row_x @ x + ineq @ y + slack)
            S, empty = gpm.evaluate(f, x), gpm.evaluate(f, x + 0.1 * np.array(rng.normals(2)))
        else:
            r += 1
            y = np.append(y, rng.normal())
            ineq = np.column_stack([ineq, rng.normals(len(ineq))])
            e1, e2 = np.array(rng.normals(r)), np.array(rng.normals(r))
            E = np.array([e1, e1, e2, e1 + 2.0 * e2])
            S = PolyhedralSet(r, ineq_lhs=ineq, ineq_rhs=ineq @ y + slack, eq_lhs=E, eq_rhs=E @ y)
            empty = PolyhedralSet(r, ineq_lhs=ineq, ineq_rhs=ineq @ y + slack, eq_lhs=E,
                                  eq_rhs=E @ y + np.array([0.0, 0.0, 0.0, 1e-3]))
        yield S, empty, [y + 3.0 * np.array(rng.normals(r)) for _ in range(4)]


def test_dependent_equality_rows():
    # The loop takes up the equality rows in order and skips one that the
    # rows before it imply within FEAS_TOL (1 + ||u||); a set whose loop
    # skips one keeps no cell, so no lookup reads a multiplier off the
    # wrong row.  Inconsistent equality rows raise EmptySet.
    for seed, (S, empty, targets) in enumerate(_dependent_equality_rows()):
        for u in targets:
            z = project_onto(u, S)
            gap = np.linalg.norm(z - brute_force_projection(u, S))
            assert gap <= 1e-9 * (1.0 + np.linalg.norm(u)), seed
            assert z.tobytes() == project_onto(u, _fresh(S)).tobytes(), seed
        assert "cells" not in S._cache, seed
        with pytest.raises(EmptySet):
            project_onto(targets[0], empty)
        assert feasible_witness(empty) is None, seed


@settings(max_examples=60, deadline=None)
@given(
    u=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    v=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
)
def test_projection_nonexpansive_on_fixed_polyhedron(u, v):
    S = PolyhedralSet(
        2,
        ineq_lhs=[[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        ineq_rhs=[1.0, 0.0, 0.0],
    )
    pu = project_onto(u, S)
    pv = project_onto(v, S)
    assert np.linalg.norm(pu - pv) <= np.linalg.norm(np.subtract(u, v)) + 1e-6


@settings(max_examples=60, deadline=None)
@given(u=st.lists(st.floats(-5, 5), min_size=2, max_size=2))
def test_projection_idempotent(u):
    S = PolyhedralSet(
        2,
        ineq_lhs=[[1.0, 2.0], [-1.0, 1.0], [0.0, -1.0]],
        ineq_rhs=[2.0, 1.0, 0.5],
    )
    p1 = project_onto(u, S)
    p2 = project_onto(p1, S)
    assert np.linalg.norm(p1 - p2) <= 1e-6


# --- pivot-sequence regression -------------------------------------------
#
# A fixed seeded corpus of LPs and feasibility systems.  For each problem the
# number of `optkernel.lu_factor` calls (one per simplex pivot plus the
# refactorizations) and the exact bytes of every result are recorded in
# tests/data/pivot_sequence.json; any drift in the chosen pivots changes
# them.  Regenerate the file only for an intended change of the pivot rule:
#     PYTHONPATH=src python tests/test_optkernel.py

_PIVOT_RECORD = Path(__file__).parent / "data" / "pivot_sequence.json"


def _random_lp(seed, n, num_eq=0):
    """(S, objective) of a feasible LP with 4n random rows (bounded or not,
    as the draw falls)."""
    rng = SplitMix64(seed)
    m = 4 * n
    witness = np.array(rng.normals(n))
    A = np.array([rng.normals(n) for _ in range(m)])
    b = A @ witness + np.array([abs(rng.normal()) + 0.1 for _ in range(m)])
    E = np.array([rng.normals(n) for _ in range(num_eq)]).reshape(num_eq, n)
    rows = PolyhedralSet(n, ineq_lhs=A, ineq_rhs=b, eq_lhs=E, eq_rhs=E @ witness)
    return rows, rng.normals(n)


def _random_system(seed, n, num_eq, shift):
    """{Ex = d, Ax <= b} with m = 3n rows; a negative `shift` may make it empty."""
    rng = SplitMix64(seed)
    A = np.array([rng.normals(n) for _ in range(3 * n)])
    b = np.array([rng.normal() + shift for _ in range(3 * n)])
    E = np.array([rng.normals(n) for _ in range(num_eq)]).reshape(num_eq, n)
    d = np.array(rng.normals(num_eq))
    return PolyhedralSet(n, ineq_lhs=A, ineq_rhs=b, eq_lhs=E, eq_rhs=d)


def _solve_beale_lp():
    # Beale's example: the textbook rule cycles on it, Bland's rule must
    # break the ratio-test ties at the degenerate origin.
    S = PolyhedralSet(
        4,
        ineq_lhs=[
            [0.25, -8.0, -1.0, 9.0],
            [0.5, -12.0, -0.5, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ] + (-np.eye(4)).tolist(),
        ineq_rhs=[0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
    )
    return solve_lp(S, [-0.75, 20.0, -0.5, 6.0])  # maximizes (0.75, -20, 0.5, -6) . x


def _pivot_corpus():
    """(name, thunk) pairs; each thunk runs its problem through optkernel."""
    corpus = []
    for n in (3, 6, 10):
        for k in range(3):
            lp = _random_lp(1000 * n + k, n, num_eq=k % 2)
            corpus.append((f"lp_n{n}_{k}", lambda lp=lp: [solve_lp(*lp)]))
        for k, shift in enumerate((1.0, 1.0, -0.5)):
            S = _random_system(2000 * n + k, n, num_eq=k, shift=shift)
            corpus.append((f"feas_n{n}_{k}", lambda S=S: [solve_feasibility(S)]))
    corpus.append(("beale_degenerate", lambda: [_solve_beale_lp()]))
    infeasible = PolyhedralSet(
        2, ineq_lhs=[[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], ineq_rhs=[-1.0, 0.0, 0.0]
    )
    corpus.append(("lp_infeasible", lambda: [solve_lp(infeasible, [1.0, 1.0])]))
    unbounded = PolyhedralSet(2, ineq_lhs=[[-1.0, 1.0], [0.0, -1.0]], ineq_rhs=[1.0, 0.0])
    corpus.append(("lp_unbounded", lambda: [solve_lp(unbounded, [-1.0, 0.5])]))
    redundant = PolyhedralSet(
        2,
        eq_lhs=[[1.0, 1.0], [2.0, 2.0], [1.0, -1.0]],
        eq_rhs=[2.0, 4.0, 0.0],
        ineq_lhs=[[-1.0, 0.0]],
        ineq_rhs=[0.0],
    )
    corpus.append(("feas_redundant_rows", lambda: [solve_feasibility(redundant)]))
    corpus.append(("is_solution_ray", _is_solution_ray_solves))
    return corpus


def _is_solution_ray_solves():
    # On the ray instance F(x) = (0, x2 - 1) over R^2_+, the point (5, 1 - 1e-8)
    # leaves a drift of -1e-8 along e2: the LP over C reports "unbounded",
    # a descent ray, and `is_solution` returns False after that one solve.
    inst = avi.AviInstance(
        m_op=[[0.0, 0.0], [0.0, 1.0]], q=[0.0, -1.0], c_set=nonnegative_orthant(2)
    )
    results = []

    def recording(*args):
        results.append(solve_lp(*args))
        return results[-1]

    original = avi.solve_lp
    avi.solve_lp = recording
    try:
        avi.is_solution(inst, [5.0, 1.0 - 1e-8])
    finally:
        avi.solve_lp = original
    return results


def _hex(arr):
    return None if arr is None else [float(v).hex() for v in arr]


def _run_pivot_corpus():
    record = {}
    original = optkernel.lu_factor
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    optkernel.lu_factor = counting
    try:
        for name, thunk in _pivot_corpus():
            calls[0] = 0
            solves = thunk()
            record[name] = {
                "lu_factor": calls[0],
                "solves": [
                    {"status": r.status, "point": _hex(r.point), "dual": _hex(r.dual)}
                    for r in solves
                ],
            }
    finally:
        optkernel.lu_factor = original
    return record


def test_pivot_sequence_is_unchanged():
    expected = json.loads(_PIVOT_RECORD.read_text())
    actual = _run_pivot_corpus()
    assert list(actual) == list(expected)
    for name in expected:
        assert actual[name] == expected[name], name


def test_pivot_corpus_covers_every_outcome():
    record = json.loads(_PIVOT_RECORD.read_text())
    statuses = {s["status"] for entry in record.values() for s in entry["solves"]}
    assert statuses == {"optimal", "infeasible", "unbounded"}
    ray = [s["status"] for s in record["is_solution_ray"]["solves"]]
    assert ray == ["unbounded"]


if __name__ == "__main__":
    _PIVOT_RECORD.parent.mkdir(exist_ok=True)
    _PIVOT_RECORD.write_text(json.dumps(_run_pivot_corpus(), indent=1) + "\n")
