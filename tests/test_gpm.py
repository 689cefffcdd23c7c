import numpy as np
import pytest
from reference_oracles import annihilator_residual

from avibound import DegenerateSampler
from avibound.gpm import (
    GpMultifunction,
    SectionSamplerConfig,
    check_lipschitz_holdout,
    domain_contains,
    estimate_lipschitz_modulus,
    evaluate,
    gap_dual,
    gap_primal,
    verify_domain_characterization,
    verify_minimax,
)
from avibound.polyhedra import enumerate_vertices, is_nonempty
from avibound.rng import SplitMix64


def identity_graph(n=2):
    return GpMultifunction(
        input_dim=n, output_dim=n, a1=-np.eye(n), a2=np.eye(n), z=np.zeros(n)
    )


def abs_interval():
    """F(x) = [-x, x] in one dimension; empty for x < 0."""
    return GpMultifunction(
        input_dim=1,
        output_dim=1,
        row_x=[[-1.0], [-1.0]],
        row_y=[[1.0], [-1.0]],
        rhs=[0.0, 0.0],
    )


def scaled_graph(factor=2.0):
    return GpMultifunction(
        input_dim=1, output_dim=1, a1=[[-factor]], a2=[[1.0]], z=[0.0]
    )


def random_instance(seed, max_dim=6):
    rng = SplitMix64(seed)
    n = rng.randint(1, max_dim)
    r = rng.randint(1, max_dim)
    k = rng.randint(0, max_dim)
    p = rng.randint(0 if k else 1, max_dim)
    return GpMultifunction(
        input_dim=n,
        output_dim=r,
        a1=np.array([[rng.normal() for _ in range(n)] for _ in range(k)]),
        a2=np.array([[rng.normal() for _ in range(r)] for _ in range(k)]),
        z=np.array([rng.normal() for _ in range(k)]),
        row_x=np.array([[rng.normal() for _ in range(n)] for _ in range(p)]),
        row_y=np.array([[rng.normal() for _ in range(r)] for _ in range(p)]),
        rhs=np.array([rng.normal() for _ in range(p)]),
    )


def grid_gap_oracle(f, x, lo=-30.0, hi=30.0, steps=240001):
    """Brute-force section gap for output_dim == 1 on a fine y-grid."""
    assert f.output_dim == 1
    x = np.asarray(x, dtype=float)
    ys = np.linspace(lo, hi, steps)[:, None]
    worst = np.zeros(steps)
    if f.num_eq:
        worst = np.maximum(worst, np.max(np.abs(f.a1 @ x + ys * f.a2[:, 0] - f.z), axis=1))
    if f.num_ineq:
        worst = np.maximum(worst, np.max(f.row_x @ x + ys * f.row_y[:, 0] - f.rhs, axis=1))
    return float(np.min(worst))


class TestEvaluate:
    def test_identity_graph(self):
        f = identity_graph(2)
        section = evaluate(f, [1.5, -2.0])
        vs = enumerate_vertices(section)
        assert vs.is_bounded
        np.testing.assert_allclose(vs.vertices[0], [1.5, -2.0], atol=1e-10)

    def test_abs_interval(self):
        f = abs_interval()
        section = evaluate(f, [1.0])
        vs = enumerate_vertices(section)
        values = sorted(float(v[0]) for v in vs.vertices)
        assert values == pytest.approx([-1.0, 1.0])
        assert not is_nonempty(evaluate(f, [-1.0]))

    def test_contradictory_rows(self):
        f = GpMultifunction(
            input_dim=1, output_dim=1, row_x=[[0.0]], row_y=[[0.0]], rhs=[-1.0]
        )
        assert not is_nonempty(evaluate(f, [0.0]))


class TestDomain:
    def test_identity_graph_full_domain(self):
        f = identity_graph(2)
        for x in ([0.0, 0.0], [5.0, -3.0]):
            assert domain_contains(f, x)

    def test_abs_interval_halfline(self):
        f = abs_interval()
        assert domain_contains(f, [1.0])
        assert domain_contains(f, [0.0])
        assert not domain_contains(f, [-1.0])

    def test_contradictory_fixed_rows(self):
        f = GpMultifunction(
            input_dim=1, output_dim=1, row_x=[[0.0]], row_y=[[0.0]], rhs=[-1.0]
        )
        for x in ([0.0], [3.0], [-3.0]):
            assert not domain_contains(f, x)


class TestGap:
    def test_member_has_zero_gap(self):
        f = abs_interval()
        assert gap_primal(f, [1.0]) == pytest.approx(0.0, abs=1e-9)

    def test_abs_interval_outside_matches_grid_oracle(self):
        f = abs_interval()
        oracle = grid_gap_oracle(f, [-1.0])
        assert oracle == pytest.approx(1.0, abs=1e-3)
        assert gap_primal(f, [-1.0]) == pytest.approx(1.0, abs=1e-9)

    def test_surjective_equality_part_gives_zero_gap_everywhere(self):
        # a2 surjective with no inequality rows: every x admits an exact y,
        # so the gap vanishes identically and dom F is the whole space.
        f = scaled_graph(3.0)
        for x in ([-2.0], [0.0], [7.5]):
            assert domain_contains(f, x)
            assert gap_primal(f, x) == pytest.approx(0.0, abs=1e-9)
            assert gap_dual(f, x) == pytest.approx(0.0, abs=1e-9)

    def test_dual_is_nonnegative_and_matches_hand_value(self):
        # dual feasible set for the [-x, x] instance: gamma1 = gamma2 = t,
        # 2t <= 1; objective 2tx at -x, so the optimum at x = -1 is 1.
        f = abs_interval()
        value, mult = gap_dual(f, [-1.0], return_multiplier=True)
        assert value == pytest.approx(1.0, abs=1e-9)
        assert mult.ball_norm() <= 1.0 + 1e-9
        assert annihilator_residual(mult, f) <= 1e-9
        assert np.all(mult.gamma >= -1e-12)
        assert gap_dual(f, [5.0]) >= -1e-12

    def test_gap_primal_matches_grid_on_random_scalar_sections(self):
        rng = SplitMix64(404)
        done = 0
        for seed in range(30):
            f = random_instance(seed + 1000, max_dim=3)
            if f.output_dim != 1:
                continue
            x = np.array([2 * rng.normal() for _ in range(f.input_dim)])
            oracle = grid_gap_oracle(f, x)
            assert gap_primal(f, x) == pytest.approx(oracle, abs=5e-4)
            done += 1
        assert done >= 5


class TestMinimax:
    def test_identity_graph_zero_gaps(self):
        f = identity_graph(2)
        xs = [np.array([0.0, 0.0]), np.array([3.0, -1.0])]
        report = verify_minimax(f, xs)
        assert report.passed
        assert report.max_gap <= 1e-9

    def test_abs_interval_gap_closes_at_one(self):
        report = verify_minimax(abs_interval(), [np.array([-1.0])])
        check = report.checks[0]
        assert check.primal == pytest.approx(1.0, abs=1e-9)
        assert check.dual == pytest.approx(1.0, abs=1e-9)
        assert report.passed

    def test_random_instances(self):
        for seed in range(1, 41):
            f = random_instance(seed)
            rng = SplitMix64(seed + 10_000)
            xs = [
                np.array([2 * rng.normal() for _ in range(f.input_dim)])
                for _ in range(5)
            ]
            report = verify_minimax(f, xs)
            assert report.passed, f"seed {seed}: max gap {report.max_gap}"


class TestDomainCharacterization:
    def test_abs_interval_points(self):
        f = abs_interval()
        report = verify_domain_characterization(
            f, [np.array([1.0]), np.array([0.0]), np.array([-1.0])]
        )
        assert report.passed
        inside, boundary, outside = report.checks
        assert inside.member and inside.gap <= 1e-9
        assert boundary.member and boundary.gap <= 1e-9
        assert not outside.member and outside.gap == pytest.approx(1.0, abs=1e-9)

    def test_random_instances(self):
        for seed in range(1, 31):
            f = random_instance(seed)
            rng = SplitMix64(seed + 20_000)
            xs = [
                np.array([3 * rng.normal() for _ in range(f.input_dim)])
                for _ in range(5)
            ]
            assert verify_domain_characterization(f, xs).passed


class TestLipschitzModulus:
    def test_identity_graph_modulus_one(self):
        c, report = estimate_lipschitz_modulus(
            identity_graph(2), SectionSamplerConfig(num_pairs=40, master_seed=1)
        )
        assert c == pytest.approx(1.0, abs=1e-8)
        assert report.num_ratios > 10

    def test_abs_interval_modulus_one(self):
        c, _ = estimate_lipschitz_modulus(
            abs_interval(), SectionSamplerConfig(num_pairs=60, master_seed=2)
        )
        assert c == pytest.approx(1.0, abs=1e-7)

    def test_scaled_graph_modulus_two(self):
        c, _ = estimate_lipschitz_modulus(
            scaled_graph(2.0), SectionSamplerConfig(num_pairs=40, master_seed=3)
        )
        assert c == pytest.approx(2.0, abs=1e-8)

    def test_trace_is_nondecreasing(self):
        _, report = estimate_lipschitz_modulus(
            identity_graph(3), SectionSamplerConfig(num_pairs=64, master_seed=4)
        )
        values = [v for _, v in report.trace]
        assert values == sorted(values)

    def test_empty_domain_raises(self):
        f = GpMultifunction(
            input_dim=1, output_dim=1, row_x=[[0.0]], row_y=[[0.0]], rhs=[-1.0]
        )
        with pytest.raises(DegenerateSampler):
            estimate_lipschitz_modulus(f, SectionSamplerConfig(num_pairs=5))

    def test_unbounded_sections_modulus_one(self):
        # F(x) = {y : y >= x}: every section is a half-line with the same
        # recession cone, and h(F(x1), F(x2)) = |x1 - x2| exactly
        f = GpMultifunction(
            input_dim=1, output_dim=1, row_x=[[1.0]], row_y=[[-1.0]], rhs=[0.0]
        )
        cfg = SectionSamplerConfig(num_pairs=10, master_seed=5)
        c, report = estimate_lipschitz_modulus(f, cfg)
        assert c == pytest.approx(1.0, abs=1e-9)
        assert report.num_ratios == 10
        assert report.num_excluded_unbounded == 0
        holdout = check_lipschitz_holdout(f, c, cfg, slack=1.0)
        assert holdout.num_checked == 10
        assert holdout.violations == []

    def test_holdout_has_no_violations_for_identity(self):
        f = identity_graph(2)
        c, _ = estimate_lipschitz_modulus(
            f, SectionSamplerConfig(num_pairs=50, master_seed=6)
        )
        holdout = check_lipschitz_holdout(
            f, c, SectionSamplerConfig(num_pairs=50, master_seed=7)
        )
        assert holdout.passed
        assert holdout.num_checked > 20

    def test_holdout_checks_the_pairs_the_estimate_uses(self):
        # one sampler and one rejection rule: on the same plan the holdout
        # checks exactly the pairs that gave ratios, and none can exceed c_emp
        f = abs_interval()
        cfg = SectionSamplerConfig(num_pairs=60, master_seed=9)
        c, report = estimate_lipschitz_modulus(f, cfg)
        holdout = check_lipschitz_holdout(f, c, cfg, slack=1.0)
        assert holdout.num_checked == report.num_ratios
        assert holdout.violations == []

    def test_doubling_pairs_moves_estimate_at_most_five_percent(self):
        # pair seeds derive from the pair index, so 1000 pairs extend the
        # first 500 and the running max can only creep, not jump
        from avibound.instgen import canned_suite

        for entry in canned_suite():
            if entry.kind != "gpm" or not entry.expectations.get("bounded_sections"):
                continue
            c_half, _ = estimate_lipschitz_modulus(
                entry.payload, SectionSamplerConfig(num_pairs=500, master_seed=8)
            )
            c_full, _ = estimate_lipschitz_modulus(
                entry.payload, SectionSamplerConfig(num_pairs=1000, master_seed=8)
            )
            assert c_full >= c_half - 1e-12
            assert (c_full - c_half) / max(c_full, 1e-12) <= 0.05, entry.name


class TestSerialization:
    def test_round_trip(self):
        f = abs_interval()
        g = GpMultifunction.from_json_dict(f.to_json_dict())
        assert g.input_dim == f.input_dim
        np.testing.assert_allclose(g.row_x, f.row_x)
        np.testing.assert_allclose(g.row_y, f.row_y)
        np.testing.assert_allclose(g.rhs, f.rhs)
