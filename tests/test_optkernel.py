import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from avibound import EmptySet, PolyhedralSet, box, nonnegative_orthant, optkernel
from avibound.config import DEFAULT_TOL, Tolerances
from avibound.optkernel import (
    LinearProgram,
    QpProjectionProblem,
    solve_feasibility,
    solve_lp,
    solve_projection_qp,
)
from avibound.polyhedra import enumerate_vertices, feasible_point, is_nonempty
from avibound.rng import SplitMix64


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
        lp = LinearProgram(objective=[1.0], ineq_lhs=[[-1.0]], ineq_rhs=[0.0])
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert res.point[0] == pytest.approx(0.0, abs=1e-9)

    def test_empty_system(self):
        lp = LinearProgram(
            objective=[1.0], ineq_lhs=[[1.0], [-1.0]], ineq_rhs=[-1.0, 0.0]
        )
        assert solve_lp(lp).status == "infeasible"

    def test_simplex_facet(self):
        c = [-1.0, -1.0]
        A = [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
        b = [1.0, 0.0, 0.0]
        res = solve_lp(LinearProgram(objective=c, ineq_lhs=A, ineq_rhs=b))
        oracle_value, _ = brute_force_lp_min(c, A, b)
        assert oracle_value == pytest.approx(-1.0)
        assert res.status == "optimal"
        assert res.value == pytest.approx(oracle_value, abs=1e-8)
        assert res.point[0] + res.point[1] == pytest.approx(1.0, abs=1e-8)

    def test_unbounded(self):
        lp = LinearProgram(objective=[-1.0], ineq_lhs=[[-1.0]], ineq_rhs=[0.0])
        res = solve_lp(lp)
        assert res.status == "unbounded"
        assert res.value == -np.inf

    def test_maximize_sense(self):
        lp = LinearProgram(
            objective=[1.0, 1.0],
            ineq_lhs=[[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            ineq_rhs=[1.0, 0.0, 0.0],
            sense="maximize",
        )
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert res.value == pytest.approx(1.0, abs=1e-8)
        rhs = np.asarray(lp.ineq_rhs)
        assert res.dual is not None
        assert float(rhs @ res.dual) == pytest.approx(res.value, abs=1e-7)
        assert np.all(res.dual >= -1e-9)

    def test_equality_rows(self):
        lp = LinearProgram(
            objective=[1.0, 2.0],
            eq_lhs=[[1.0, 1.0]],
            eq_rhs=[3.0],
            ineq_lhs=[[-1.0, 0.0], [0.0, -1.0]],
            ineq_rhs=[0.0, 0.0],
        )
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert res.value == pytest.approx(3.0, abs=1e-8)
        np.testing.assert_allclose(res.point, [3.0, 0.0], atol=1e-8)

    def test_redundant_equalities(self):
        lp = LinearProgram(
            objective=[1.0],
            eq_lhs=[[1.0], [2.0]],
            eq_rhs=[2.0, 4.0],
        )
        res = solve_lp(lp)
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
            lp = LinearProgram(objective=c, ineq_lhs=A, ineq_rhs=b)
            res = solve_lp(lp)
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


class TestSolveFeasibility:
    def test_feasible_with_witness(self):
        res = solve_feasibility([[1.0]], [1.0], [[1.0]], [2.0])
        assert res.status == "optimal"
        assert res.point[0] == pytest.approx(1.0, abs=1e-9)

    def test_infeasible(self):
        res = solve_feasibility([[1.0]], [1.0], [[1.0]], [0.0])
        assert res.status == "infeasible"

    def test_one_dimensional_kkt_system(self):
        # Stationarity plus sign pattern for a scalar complementarity setup
        # with no active rows: variables (x, lam); -x + lam = -1, -x <= 0,
        # lam = 0 forces (x, lam) = (1, 0).
        E = [[-1.0, 1.0], [0.0, 1.0]]
        d = [-1.0, 0.0]
        A = [[-1.0, 0.0]]
        b = [0.0]
        res = solve_feasibility(E, d, A, b)
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
            oracle = solve_feasibility(E, d, A, b)
            lp = solve_lp(
                LinearProgram(
                    objective=np.zeros(n),
                    ineq_lhs=A,
                    ineq_rhs=b,
                    eq_lhs=E,
                    eq_rhs=d,
                )
            )
            assert (oracle.status == "optimal") == (lp.status == "optimal")
            if oracle.status == "optimal":
                assert np.max(A @ oracle.point - b) <= 1e-8
                if k:
                    assert np.max(np.abs(E @ oracle.point - d)) <= 1e-8
            agreements += 1
        assert agreements == 1000


def project_onto(u, S, **kw):
    return solve_projection_qp(QpProjectionProblem(np.asarray(u, float), S), **kw)


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

    def test_two_starts_agree(self):
        # no start, a start at a vertex and a start at an earlier projection
        rng = SplitMix64(5)
        compared = 0
        for _ in range(50):
            n = rng.randint(1, 5)
            m = rng.randint(1, 8)
            A = np.array([[rng.normal() for _ in range(n)] for _ in range(m)])
            b = np.array([rng.normal() + 1.0 for _ in range(m)])
            S = PolyhedralSet(n, ineq_lhs=A, ineq_rhs=b)
            if solve_feasibility([], [], A, b).status != "optimal":
                continue
            u = np.array([3.0 * rng.normal() for _ in range(n)])
            earlier = project_onto([3.0 * rng.normal() for _ in range(n)], S)
            starts = [earlier] + enumerate_vertices(S).vertices[:1]
            z1 = project_onto(u, S)
            for start in starts:
                z2 = project_onto(u, S, start=start)
                assert np.linalg.norm(z1 - z2) <= 1e-6
            compared += len(starts)
        assert compared > 50

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


def _triangle():
    # {x1 + x2 <= 1, x >= 0}: the first row keeps it off the box fast path
    return PolyhedralSet(
        2,
        ineq_lhs=[[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        ineq_rhs=[1.0, 0.0, 0.0],
    )


@pytest.fixture
def feasibility_calls(monkeypatch):
    """Arguments of every phase-one solve made while the test runs."""
    calls = []
    original = optkernel.solve_feasibility

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(optkernel, "solve_feasibility", counting)
    return calls


class TestWitnessCache:
    def test_one_phase_one_solve_per_set_and_tolerance(self, feasibility_calls):
        S = _triangle()
        # phase one reads only tol.feas, so the cmp-only variant shares an entry
        loose = Tolerances(feas=1e-7)
        for tol in (DEFAULT_TOL, loose, DEFAULT_TOL.with_cmp(1e-8)):
            assert is_nonempty(S, tol)
            feasible_point(S, tol)
            for u in ([2.0, 2.0], [-1.0, 3.0], [3.0, -1.0], [-2.0, -2.0], [1.0, 1.0]):
                project_onto(u, S, tol=tol)
            assert is_nonempty(S, tol)
        assert len(feasibility_calls) == 2

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

    def test_start_outside_the_set_falls_back_to_the_witness(self):
        S = _triangle()
        for u in ([2.0, 2.0], [-1.0, 3.0], [3.0, -1.0]):
            np.testing.assert_array_equal(
                project_onto(u, S, start=[5.0, 5.0]), project_onto(u, S)
            )

    def test_empty_set_cached_as_empty(self, feasibility_calls):
        S = PolyhedralSet(2, ineq_lhs=[[1.0, 1.0], [-1.0, -1.0]], ineq_rhs=[-1.0, 0.0])
        assert not is_nonempty(S)
        with pytest.raises(EmptySet):
            project_onto([0.5, 0.5], S)
        with pytest.raises(EmptySet):
            feasible_point(S)
        assert len(feasibility_calls) == 1

    @pytest.mark.parametrize("two_rows", [False, True])
    def test_nonempty_verdict_follows_the_tolerance(self, two_rows):
        # {x <= -1e-8, -x <= 0} is empty at feas = 1e-9 and nonempty at 1e-7,
        # in either call order; two_rows puts it in 2-D off the box path
        loose = Tolerances(feas=1e-7)

        def make():
            if two_rows:
                return PolyhedralSet(
                    2, ineq_lhs=[[1.0, 1.0], [-1.0, -1.0]], ineq_rhs=[-1e-8, 0.0]
                )
            return PolyhedralSet(1, ineq_lhs=[[1.0], [-1.0]], ineq_rhs=[-1e-8, 0.0])

        S = make()
        assert (is_nonempty(S, loose), is_nonempty(S)) == (True, False)
        S = make()
        assert (is_nonempty(S), is_nonempty(S, loose)) == (False, True)


class TestDegenerateInputs:
    def test_duplicate_and_scaled_rows(self):
        # exactly duplicated and positively rescaled constraint rows must not
        # break pivoting or the active-set iteration
        rng = SplitMix64(777)
        feasible_seen = 0
        for _ in range(150):
            n = rng.randint(1, 4)
            m = rng.randint(2, 6)
            A = np.array([[rng.normal() for _ in range(n)] for _ in range(m)])
            b = np.array([rng.normal() + 1.0 for _ in range(m)])
            A = np.vstack([A, A[0], 2.0 * A[0]])
            b = np.concatenate([b, [b[0]], [2.0 * b[0]]])
            c = np.array([rng.normal() for _ in range(n)])
            res = solve_lp(LinearProgram(objective=c, ineq_lhs=A, ineq_rhs=b))
            if res.is_optimal:
                assert np.max(A @ res.point - b) <= 1e-8
                assert abs(res.value - b @ res.dual) <= 1e-7 * (1 + abs(res.value))
            S = PolyhedralSet(n, ineq_lhs=A, ineq_rhs=b)
            u = np.array([3 * rng.normal() for _ in range(n)])
            try:
                z = solve_projection_qp(QpProjectionProblem(u, S))
            except EmptySet:
                continue
            assert S.contains(z, 1e-7)
            feasible_seen += 1
        assert feasible_seen > 50

    def test_overdetermined_corner_projection(self):
        # three constraints meet at (1, 0); projecting from outside the
        # corner exercises the redundant-multiplier drop rule
        S = PolyhedralSet(
            2,
            ineq_lhs=[[1.0, 1.0], [1.0, 0.0], [0.0, -1.0]],
            ineq_rhs=[1.0, 1.0, 0.0],
        )
        z = project_onto([2.0, -1.0], S)
        np.testing.assert_allclose(z, [1.0, 0.0], atol=1e-9)


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
