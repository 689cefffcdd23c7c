import numpy as np
import pytest

from avibound.avi import AviInstance, is_solution
from avibound.bounds import find_local_radius
from avibound.instgen import generate_random_avi
from avibound.polyhedra import nonnegative_orthant
from avibound.config import DEFAULT_TOL
from avibound.solvers import (
    SolverConfig,
    annotate_distances,
    check_tail_bound,
    default_step,
    operator_norm,
    solution_check_tolerance,
    solve,
)


def tight(stop_residual):
    """Comparison tolerance matched to a sub-default stopping threshold."""
    return DEFAULT_TOL.with_cmp(stop_residual)


def identity_lcp(n=3):
    return AviInstance(m_op=np.eye(n), q=-np.ones(n), c_set=nonnegative_orthant(n))


def skew_2d():
    return AviInstance(
        m_op=[[0.0, 1.0], [-1.0, 0.0]], q=[-1.0, 0.0], c_set=nonnegative_orthant(2)
    )


class TestOperatorNorm:
    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, 1.0, 0.5])) == pytest.approx(3.0, rel=1e-6)

    def test_zero(self):
        assert operator_norm(np.zeros((2, 2))) == 0.0

    def test_matches_svd_on_randoms(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            M = rng.normal(size=(4, 4))
            assert operator_norm(M) == pytest.approx(
                np.linalg.norm(M, 2), rel=1e-4
            )


class TestSolve:
    def test_projected_fixed_point_contraction(self):
        # x+ = max(0, (1 - t) x + t): contraction with factor |1 - t| toward 1
        inst = identity_lcp(4)
        cfg = SolverConfig(
            method="projected_fixed_point",
            step=0.5,
            stop_residual=1e-10,
            x0=np.zeros(4),
        )
        trace = solve(inst, cfg, tol=tight(cfg.stop_residual))
        assert trace.converged
        np.testing.assert_allclose(trace.final_x, np.ones(4), atol=1e-9)

    def test_starting_at_solution_takes_zero_iterations(self):
        inst = identity_lcp(2)
        cfg = SolverConfig(x0=np.ones(2), stop_residual=1e-8)
        trace = solve(inst, cfg, tol=tight(1e-8))
        assert trace.converged
        assert trace.iterations == 0

    def test_extragradient_on_skew_monotone(self):
        trace = solve(
            skew_2d(),
            SolverConfig(method="extragradient", step=0.3, stop_residual=1e-7,
                         x0=np.array([1.0, 0.0]), max_iters=20_000),
            tol=tight(1e-7),
        )
        assert trace.converged
        assert is_solution(skew_2d(), trace.final_x, )

    def test_fixed_point_on_skew_recorded_not_asserted(self):
        # plain projection iteration may cycle on skew operators; we only
        # record the outcome
        trace = solve(
            skew_2d(),
            SolverConfig(method="projected_fixed_point", step=0.3,
                         stop_residual=1e-7, x0=np.array([1.0, 0.0]),
                         max_iters=500),
            tol=tight(1e-7),
        )
        assert trace.records  # ran and returned a trace either way

    def test_converged_point_is_near_solution_set(self):
        from avibound.bounds import SolutionGeometry

        for seed in (1, 2, 3):
            inst = generate_random_avi(n=3, m=4, monotonicity="strongly_monotone", seed=seed)
            cfg = SolverConfig(stop_residual=1e-8)
            trace = solve(inst, cfg, tol=tight(1e-8))
            assert trace.converged
            assert trace.records[-1].residual_norm <= cfg.stop_residual
            geometry = SolutionGeometry.from_instance(inst)
            assert geometry.distance(trace.final_x) <= 1e-6

    def test_converged_point_passes_direct_check_on_bounded_set(self):
        # on a bounded constraint set the direct variational check holds at
        # the documented tolerance 10 * stop_residual * (1 + ||M||)
        from avibound.config import Tolerances
        from avibound.sets import box

        inst = AviInstance(
            m_op=[[2.0, 0.3], [0.3, 1.0]], q=[-1.0, 0.4], c_set=box([0, 0], [2, 2])
        )
        cfg = SolverConfig(stop_residual=1e-8)
        trace = solve(inst, cfg, tol=tight(1e-8))
        assert trace.converged
        check_tol = solution_check_tolerance(inst, cfg)
        assert is_solution(inst, trace.final_x, tol=Tolerances(cmp=check_tol))

    @pytest.mark.parametrize("method", ["extragradient", "projected_fixed_point"])
    def test_no_phase_one_after_construction(self, method, monkeypatch):
        # C is not a box, so each projection needs a start point in C; the
        # emptiness test in AviInstance already solved phase one for it
        from avibound import optkernel
        from avibound.bounds import SolutionGeometry

        inst = generate_random_avi(n=3, m=5, monotonicity="strongly_monotone", seed=4)
        assert inst.c_set.box_bounds() is None
        calls = []
        original = optkernel.solve_feasibility

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(optkernel, "solve_feasibility", counting)
        cfg = SolverConfig(method=method, stop_residual=1e-8, x0=np.full(3, 10.0))
        trace = solve(inst, cfg, tol=tight(1e-8))
        assert calls == []
        assert trace.converged
        (solution,) = SolutionGeometry.from_instance(inst).anchors
        assert np.linalg.norm(trace.final_x - solution) <= 1e-6

    def test_divergence_aborts(self):
        # expansive operator pushed away from the solution diverges under
        # plain fixed-point iteration with an oversized step
        inst = AviInstance(m_op=[[-5.0]], q=[0.0], c_set=nonnegative_orthant(1))
        cfg = SolverConfig(
            method="projected_fixed_point", step=1.0, x0=np.array([1.0]),
            max_iters=10_000, stop_residual=1e-12,
        )
        trace = solve(inst, cfg, tol=tight(1e-12))
        assert trace.diverged
        assert not trace.converged

    def test_max_iters_returns_trace(self):
        inst = identity_lcp(2)
        cfg = SolverConfig(step=1e-6, max_iters=5, stop_residual=1e-12, x0=np.zeros(2))
        trace = solve(inst, cfg, tol=tight(1e-12))
        assert not trace.converged
        assert trace.iterations == 5

    def test_default_step_uses_operator_norm(self):
        inst = identity_lcp(2)
        assert default_step(inst) == pytest.approx(0.15, rel=1e-6)


class TestAnnotateAndTail:
    def test_lcp_1d_distance_equals_residual(self):
        inst = AviInstance(m_op=[[1.0]], q=[-1.0], c_set=nonnegative_orthant(1))
        trace = solve(inst, SolverConfig(step=0.5, x0=np.array([4.0]), stop_residual=1e-9),
                      tol=tight(1e-9))
        annotated = annotate_distances(inst, trace)
        for rec in annotated.records:
            assert rec.distance_to_solutions == pytest.approx(rec.residual_norm, abs=1e-8)

    def test_tail_bound_on_identity_lcp(self):
        inst = identity_lcp(3)
        result = find_local_radius(inst, num_samples=200, master_seed=1)
        trace = annotate_distances(
            inst, solve(inst, SolverConfig(x0=np.full(3, 5.0), stop_residual=1e-8),
                        tol=tight(1e-8))
        )
        report = check_tail_bound(trace, result.c_emp, result.epsilon)
        assert report.passed
        assert report.num_checked > 0

    def test_csv_round_trip(self):
        inst = identity_lcp(2)
        trace = annotate_distances(
            inst, solve(inst, SolverConfig(stop_residual=1e-8), tol=tight(1e-8))
        )
        text = trace.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "iter,residual,distance"
        assert len(lines) == len(trace.records) + 1
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) >= 0.0
