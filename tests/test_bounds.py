import json

import numpy as np
import pytest

from avibound import DegenerateSampler, NoSolution, PolyhedralSet, bounds
from avibound.avi import AviInstance, enumerate_solution_set, inverse_residual, residual
from avibound.bounds import (
    LipschitzCheckConfig,
    SolutionGeometry,
    find_local_radius,
    truncation_study,
    verify_error_bound,
    verify_upper_lipschitz_inverse,
)
from avibound.instgen import TruncationFamily, generate_random_avi
from avibound.polyhedra import nonnegative_orthant, union_distance
from avibound.ratios import ZERO_OVER_ZERO_FLOOR
from avibound.rng import SplitMix64, derive_seed


def lcp_1d():
    return AviInstance(m_op=[[1.0]], q=[-1.0], c_set=nonnegative_orthant(1))


def ray_2d():
    return AviInstance(
        m_op=[[0.0, 0.0], [0.0, 1.0]], q=[0.0, -1.0], c_set=nonnegative_orthant(2)
    )


def zero_op_interval():
    C = PolyhedralSet(1, ineq_lhs=[[1.0], [-1.0]], ineq_rhs=[1.0, 0.0])
    return AviInstance(m_op=[[0.0]], q=[0.0], c_set=C)


class TestVerifyErrorBound:
    def test_lcp_1d_constant_is_one(self):
        # R(x) = x - 1 identically and the solution set is {1}, so every
        # ratio d(x, C*) / ||R(x)|| equals 1 at every noise scale.
        report = verify_error_bound(lcp_1d(), epsilon=1.0, num_samples=300, master_seed=3)
        assert report.passed
        assert report.c_emp == pytest.approx(1.0, abs=1e-9)

    def test_zero_operator_distance_equals_residual(self):
        report = verify_error_bound(
            zero_op_interval(), epsilon=1.0, num_samples=300, master_seed=5
        )
        assert report.passed
        assert report.c_emp == pytest.approx(1.0, abs=1e-9)

    def test_ray_instance_hand_sample(self):
        inst = ray_2d()
        val = residual(inst, [2.0, 1.5])
        np.testing.assert_allclose(val.r, [0.0, 0.5], atol=1e-10)
        pieces_distance = union_distance(enumerate_solution_set(inst), [2.0, 1.5])
        assert pieces_distance == pytest.approx(0.5, abs=1e-9)
        report = verify_error_bound(inst, epsilon=1.0, num_samples=300, master_seed=7)
        assert report.passed
        assert report.c_emp == pytest.approx(1.0, abs=1e-7)

    def test_solutions_are_excluded_as_zero_over_zero(self, monkeypatch):
        # noise this small leaves every sample inside the 0/0 guard band
        monkeypatch.setattr(bounds, "DEFAULT_NOISE_SCALES", (1e-9,))
        with pytest.raises(DegenerateSampler):
            verify_error_bound(
                lcp_1d(), epsilon=1.0, num_samples=100, master_seed=11,
            )

    def test_no_solution_raises(self):
        # M = 0, q = -1 on the halfline pushes off to infinity: no solution
        inst = AviInstance(m_op=[[0.0]], q=[-1.0], c_set=nonnegative_orthant(1))
        with pytest.raises(NoSolution):
            verify_error_bound(inst, epsilon=1.0, num_samples=50, master_seed=1)

    def test_bit_identical_reports_for_same_seed(self):
        a = verify_error_bound(ray_2d(), epsilon=0.5, num_samples=200, master_seed=42)
        b = verify_error_bound(ray_2d(), epsilon=0.5, num_samples=200, master_seed=42)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )

    def test_seed_changes_report(self):
        a = verify_error_bound(ray_2d(), epsilon=0.5, num_samples=200, master_seed=42)
        c = verify_error_bound(ray_2d(), epsilon=0.5, num_samples=200, master_seed=43)
        assert a.worst_ratio_witness is not None and c.worst_ratio_witness is not None
        assert not np.allclose(a.worst_ratio_witness, c.worst_ratio_witness)


class TestVerifyUpperLipschitz:
    def test_lcp_1d_ratios_exactly_one(self):
        # R^{-1}(y) = {1 + y}: every vertex sits exactly ||y - y0|| away.
        cfg = LipschitzCheckConfig(base_point=[0.0], master_seed=2)
        report = verify_upper_lipschitz_inverse(lcp_1d(), cfg)
        assert report.passed
        assert report.c_emp == pytest.approx(1.0, abs=1e-6)
        assert report.num_samples > 10

    def test_zero_operator_interval(self):
        cfg = LipschitzCheckConfig(base_point=[0.0], master_seed=4)
        report = verify_upper_lipschitz_inverse(zero_op_interval(), cfg)
        assert report.passed
        assert report.c_emp <= 1.0 + 1e-6

    def test_vacuous_base_point_outside_range(self):
        # first residual coordinate of the ray instance is min(x1, 0) <= 0,
        # so y0 = (1, 0) has an empty preimage and a small ball around it
        # stays outside the domain of the inverse.
        cfg = LipschitzCheckConfig(
            base_point=[1.0, 0.0], radius_ladder=(0.01, 0.05), samples_per_radius=8,
            master_seed=6,
        )
        report = verify_upper_lipschitz_inverse(ray_2d(), cfg)
        assert report.passed
        assert report.notes.get("empty_base_preimage") is True
        assert report.num_samples == 0

    def test_domain_hits_far_from_a_base_point_outside_range(self):
        # dom R^{-1} of the ray instance lies in the closed half-plane
        # y1 <= 0, at distance 1 from y0 = (1, 0).  The default ladder lands
        # 2 of its 36 y in the domain; each is at least 1 from y0, outside a
        # ball the domain misses, so the pass stands.
        inst = ray_2d()
        cfg = LipschitzCheckConfig(base_point=[1.0, 0.0], master_seed=6)
        report = verify_upper_lipschitz_inverse(inst, cfg)
        assert report.passed and report.c_emp == 0.0 and report.num_samples == 0
        assert report.per_family is None and report.ratio_trace == []
        assert report.notes["empty_base_preimage"] is True
        assert report.notes["near_domain_hits"] == 2
        assert report.notes["outside_domain"] == 34
        hits = []
        for r_index, radius in enumerate(cfg.radius_ladder):
            for j in range(cfg.samples_per_radius):
                stream = SplitMix64(derive_seed(cfg.master_seed, r_index, j))
                y = cfg.base_point + radius * np.array(stream.normals(inst.dim))
                if inverse_residual(inst, y):
                    hits.append(float(np.linalg.norm(y - cfg.base_point)))
        assert len(hits) == 2 and min(hits) >= 1.0

    @pytest.mark.parametrize("plan", [
        dict(radius_ladder=()), dict(samples_per_radius=0), dict(samples_per_radius=-1),
    ])
    def test_a_plan_that_draws_nothing_is_refused(self, plan):
        # a plan that draws no y would pass on the ray at y0 = (1, 0) with
        # num_samples 0, where the default plan draws 36 y, and would blame
        # the domain (DegenerateSampler) where the base preimage is nonempty
        with pytest.raises(ValueError, match="must draw at least one y"):
            LipschitzCheckConfig(base_point=[1.0, 0.0], **plan)

    def test_per_family_moduli_reported(self):
        cfg = LipschitzCheckConfig(base_point=[0.0], master_seed=8)
        report = verify_upper_lipschitz_inverse(lcp_1d(), cfg)
        assert report.per_family
        assert all(v <= 1.0 + 1e-6 for v in report.per_family.values())

    def test_random_base_points_in_domain(self):
        inst = generate_random_avi(n=3, m=4, monotonicity="strongly_monotone", seed=5)
        rng = SplitMix64(15)
        for k in range(3):
            x = np.array([rng.normal() for _ in range(3)])
            y0 = residual(inst, x).r  # guaranteed in the range of R
            cfg = LipschitzCheckConfig(base_point=y0, master_seed=k)
            report = verify_upper_lipschitz_inverse(inst, cfg)
            assert report.passed
            assert np.isfinite(report.c_emp)

    def test_dominates_error_bound_constant(self):
        # the error bound constant is inherited from the inverse-map modulus
        # at y0 = 0, so the latter should dominate (up to sampling slack)
        for inst in (lcp_1d(), zero_op_interval()):
            lip = verify_upper_lipschitz_inverse(
                inst, LipschitzCheckConfig(base_point=np.zeros(inst.dim), master_seed=9)
            )
            err = verify_error_bound(inst, epsilon=0.5, num_samples=200, master_seed=9)
            assert err.c_emp <= 1.05 * lip.c_emp + 1e-9


class TestFindLocalRadius:
    def test_lcp_1d_keeps_largest_epsilon(self):
        result = find_local_radius(lcp_1d(), num_samples=300, master_seed=12)
        assert result.epsilon == pytest.approx(1.0)
        assert result.c_emp == pytest.approx(1.0, abs=1e-9)
        assert result.stabilized

    def test_zero_operator(self):
        result = find_local_radius(zero_op_interval(), num_samples=300, master_seed=13)
        assert result.epsilon == pytest.approx(1.0)
        assert result.c_emp == pytest.approx(1.0, abs=1e-9)

    def test_curve_is_complete(self):
        result = find_local_radius(lcp_1d(), num_samples=200, master_seed=14)
        assert len(result.curve) == 11
        eps_values = [row[0] for row in result.curve]
        assert eps_values[0] == 1.0 and eps_values[-1] == pytest.approx(2.0 ** -10)


class TestTruncationStudy:
    def test_dimension_one_families_coincide(self):
        harmonic = truncation_study(
            TruncationFamily("harmonic"), dims=[1], num_samples=150, master_seed=21
        )
        constant = truncation_study(
            TruncationFamily("constant"), dims=[1], num_samples=150, master_seed=21
        )
        assert harmonic.rows[0].c_emp == pytest.approx(constant.rows[0].c_emp, rel=1e-9)

    def test_constant_family_stays_near_one(self):
        table = truncation_study(
            TruncationFamily("constant"), dims=[5, 10], num_samples=200, master_seed=22
        )
        for row in table.rows:
            assert 0.9 <= row.c_emp <= 1.1

    def test_harmonic_family_grows(self):
        table = truncation_study(
            TruncationFamily("harmonic"), dims=[5, 20], num_samples=250, master_seed=23
        )
        assert table.rows[1].c_emp > table.rows[0].c_emp

    def test_csv_export(self):
        table = truncation_study(
            TruncationFamily("constant"), dims=[2], num_samples=100, master_seed=24
        )
        text = table.to_csv()
        assert text.startswith("dim,epsilon,c_emp,stabilized")
        assert "2," in text


class TestRatioBoundedness:
    def test_skew_trajectory_ratio_plateaus(self):
        # Iterates of a skew instance spiral in through regions where
        # d(x, C*) / ||R(x)|| exceeds Monte-Carlo estimates, but the ratio
        # must plateau as the residual vanishes (that is the error bound);
        # divergence here would mean the enumerated C* is incomplete.
        from avibound.solvers import SolverConfig, solve

        inst = generate_random_avi(n=2, m=3, monotonicity="monotone_skew", seed=7014)
        trace = solve(inst, SolverConfig(stop_residual=1e-9, max_iters=60_000))
        assert trace.converged
        pieces = enumerate_solution_set(inst)
        near, far = [], []
        for pt, rec in zip(trace.points, trace.records):
            if 1e-8 < rec.residual_norm < 1e-6:
                near.append(union_distance(pieces, pt) / rec.residual_norm)
            elif 1e-4 < rec.residual_norm < 1e-3:
                far.append(union_distance(pieces, pt) / rec.residual_norm)
        assert near and far
        assert max(near) <= 1.2 * max(far)
        assert max(near) <= 20.0


class TestSolutionGeometry:
    def test_separable_matches_generic_distance(self):
        family = TruncationFamily("harmonic")
        n = 4
        inst = family.instance(n)
        separable = SolutionGeometry.separable_orthant(family.diagonal(n), family.shift(n))
        generic = SolutionGeometry.from_instance(inst)
        rng = SplitMix64(30)
        for _ in range(25):
            x = np.array([1.0 + rng.normal() for _ in range(n)])
            assert separable.distance(x) == pytest.approx(generic.distance(x), abs=1e-7)


def test_sampler_measures_only_the_samples_a_filter_can_keep():
    # d(x, SOL) is computed only for a sample whose residual norm lies in
    # [ZERO_OVER_ZERO_FLOOR, top], top the largest epsilon the table is
    # filtered at (epsilon itself in verify_error_bound, the ladder's top in
    # find_local_radius); those distances are the ones a table measuring
    # every sample holds, so the filters keep the same ratios
    inst = generate_random_avi(n=3, m=4, monotonicity="strongly_monotone", seed=2003)
    geometry = SolutionGeometry.from_instance(inst)
    full = bounds._sample_error_bound_table(inst, geometry, 300, 11, np.inf)
    for top in (0.25, bounds.EPSILON_LADDER[0]):
        table = bounds._sample_error_bound_table(inst, geometry, 300, 11, top)
        measured = [ZERO_OVER_ZERO_FLOOR <= s.residual_norm <= top for s in full]
        assert 0 < sum(measured) < len(full)
        for sample, reference, kept in zip(table, full, measured):
            assert sample.residual_norm == reference.residual_norm
            assert sample.distance == (reference.distance if kept else None)
    calls = []
    counting = SolutionGeometry(lambda x: calls.append(x) or geometry.distance(x),
                                geometry.anchors)
    for run, top in ((lambda: verify_error_bound(inst, 0.25, 300, 11, counting), 0.25),
                     (lambda: find_local_radius(inst, 300, 11, counting), 1.0)):
        calls.clear()
        run()
        assert len(calls) == sum(ZERO_OVER_ZERO_FLOOR <= s.residual_norm <= top for s in full)
