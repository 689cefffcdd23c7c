import sys
from pathlib import Path

import numpy as np
import pytest
from reference_oracles import annihilator_residual
from test_acceptance import GPM_CORPUS_SEEDS
from test_acceptance import random_gpm as criterion_gpm

from avibound import CapExceeded, DegenerateSampler, gpm, instgen, optkernel, polyhedra
from avibound.cli import main
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
from avibound.optkernel import solve_lp
from avibound.polyhedra import PolyhedralSet, _projections, enumerate_vertices, is_nonempty
from avibound.ratios import CMP_TOL
from avibound.rng import SplitMix64

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


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
        assert gap_dual(f, [-1.0]) == pytest.approx(1.0, abs=1e-9)
        assert_dual_ball(f)
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


def assert_dual_ball(f):
    """Every vertex w = (lam+, lam-, gamma) of f's dual ball, whichever one
    gap_dual's maximum picks, is a point of the ball: gamma >= 0,
    ||lam||_1 + sum(gamma) <= 1, and a2^T lam + row_y^T gamma = 0."""
    k = f.num_eq
    for w in gpm._dual_vertices(f)[0]:
        lam, gamma = w[:k] - w[k:2 * k], w[2 * k:]
        assert np.all(gamma >= -1e-12)
        assert np.sum(np.abs(lam)) + np.sum(gamma) <= 1.0 + 1e-9
        assert annihilator_residual(lam, gamma, f) <= 1e-9


def reference_gap_primal(f, x):
    """The section-gap LP with its rows appended one at a time: for each j
    the + and - equality rows, then each inequality row, then t >= 0."""
    r = f.output_dim
    rows, rhs = [], []
    res = f.z - f.a1 @ x
    for j in range(f.num_eq):
        rows.append(np.concatenate([f.a2[j], [-1.0]]))
        rhs.append(res[j])
        rows.append(np.concatenate([-f.a2[j], [-1.0]]))
        rhs.append(-res[j])
    slack = f.rhs - f.row_x @ x
    for i in range(f.num_ineq):
        rows.append(np.concatenate([f.row_y[i], [-1.0]]))
        rhs.append(slack[i])
    rows.append(np.concatenate([np.zeros(r), [-1.0]]))
    rhs.append(0.0)
    S = PolyhedralSet(r + 1, ineq_lhs=np.array(rows), ineq_rhs=np.array(rhs))
    return solve_lp(S, np.concatenate([np.zeros(r), [1.0]]))


def reference_gap_dual(f, x):
    """The dual LP over (lam+, lam-, gamma) with its blocks spelled out."""
    k, p, r = f.num_eq, f.num_ineq, f.output_dim
    nw = 2 * k + p
    drift = f.a1 @ x - f.z
    objective = np.concatenate([drift, -drift, f.row_x @ x - f.rhs])
    S = PolyhedralSet(
        nw,
        ineq_lhs=np.vstack([np.ones((1, nw)), -np.eye(nw)]),
        ineq_rhs=np.concatenate([[1.0], np.zeros(nw)]),
        eq_lhs=np.hstack([f.a2.T, -f.a2.T, f.row_y.T]),
        eq_rhs=np.zeros(r),
    )
    return solve_lp(S, -objective)  # the maximum, negated


class TestGapRowOrder:
    def test_gaps_equal_the_reference_lps(self):
        # no canned multifunction has both equality and inequality rows, so
        # the primal LP's block order is pinned here: any other order pivots
        # differently and moves the values in the last bits.  The dual is a
        # maximum over the ball's vertices, not an LP: it matches the dual LP
        # to rounding, and every vertex is a point of the ball
        checked = 0
        seed = 0
        while checked < 24:
            seed += 1
            f = random_instance(seed)
            if not (f.num_eq and f.num_ineq):
                continue
            rng = SplitMix64(seed)
            for _ in range(5):
                x = np.array([2.0 * rng.normal() for _ in range(f.input_dim)])
                primal = reference_gap_primal(f, x)
                assert primal.is_optimal
                assert gap_primal(f, x) == primal.value
                dual = reference_gap_dual(f, x)
                assert dual.is_optimal
                value = gap_dual(f, x)
                assert abs(value + dual.value) <= 1e-9 * (1.0 + abs(dual.value))
            assert_dual_ball(f)
            checked += 1


def projected_domain(f):
    """dom F as the projection of gph F onto x, by `polyhedra._projections`
    with y eliminated: K y = d0 + D x is a2 y = z - a1 x, and
    L y <= r0 + R x is row_y y <= rhs - row_x x.  `_projections` takes a
    square K, so K gets zero rows (0 = 0) or zero columns (coordinates no
    row reads) up to size max(k, r)."""
    k, n, r = f.num_eq, f.input_dim, f.output_dim
    size = max(k, r)
    K, d0, D = np.zeros((size, size)), np.zeros(size), np.zeros((size, n))
    K[:k, :r], d0[:k], D[:k] = f.a2, f.z, -f.a1
    L = np.zeros((f.num_ineq, size))
    L[:, :r] = f.row_y
    rows, _, _, _ = _projections(K[None], d0[None], D[None], L[None],
                                 f.rhs[None], -f.row_x[None])
    return rows[0]


def in_projected_domain(S, x):
    return bool(np.all(np.abs(S.eq_lhs @ x - S.eq_rhs) <= CMP_TOL)
                and np.all(S.ineq_lhs @ x - S.ineq_rhs <= CMP_TOL))


def dual_corpus():
    """(f, probe points): the benchmark's `multifunction` pool at its probe
    points, then random instances 1-60 at five Gaussian points each; each
    list ends with a point of dom F when dom F is nonempty."""
    pool = workloads.Multifunction()
    for index in range(pool.pool_size):
        f = pool.build(index)
        yield f, workloads._probe_points(f.input_dim, 6000 + index)
    for seed in range(1, 61):
        f = random_instance(seed)
        rng = SplitMix64(seed + 30_000)
        yield f, [np.array([2 * rng.normal() for _ in range(f.input_dim)]) for _ in range(5)]


class TestDualVertices:
    def test_gap_dual_solves_no_lp(self, monkeypatch):
        # the ball is enumerated once per multifunction, then every point is
        # one product with H
        lps, balls = [], []
        original_lp, original_vertices = gpm.solve_lp, gpm.enumerate_vertices
        monkeypatch.setattr(gpm, "solve_lp", lambda *a: lps.append(a) or original_lp(*a))
        monkeypatch.setattr(gpm, "enumerate_vertices",
                            lambda S: balls.append(S) or original_vertices(S))
        for seed in range(1, 11):
            f = random_instance(seed)
            rng = SplitMix64(seed + 10_000)
            for _ in range(5):
                gap_dual(f, np.array([2 * rng.normal() for _ in range(f.input_dim)]))
        assert lps == []
        assert len(balls) == 10

    def test_ball_enumeration_runs_no_phase_one(self, monkeypatch):
        # the ball holds the origin, and double description finds its
        # vertices without an emptiness test first; only a ball that its
        # equality rows pin to the origin, and that is no box, takes its one
        # point from the phase one of `feasible_witness`: 6 of the corpus
        calls = []
        original = optkernel.solve_feasibility
        monkeypatch.setattr(optkernel, "solve_feasibility",
                            lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
        balls = pinned = 0
        for f, _ in dual_corpus():
            before = len(calls)
            V = gpm._dual_vertices(f)[0]
            if len(calls) > before:
                assert len(calls) - before == 1 and not V.any()
                pinned += 1
            balls += V.shape[1] > 0
        assert balls >= 90 and pinned == 6

    def test_vertices_give_dom_f_in_h_form(self):
        # three routes to dom F agree at every probe point: the dual
        # vertices' rows H x + h <= 0 (Farkas), the projection of gph F, and
        # phase one on the section
        inside = outside = 0
        for f, points in dual_corpus():
            _, H, h = gpm._dual_vertices(f)
            projected = projected_domain(f)
            try:
                points = [*points, gpm._domain_witness(f)]
            except DegenerateSampler:
                pass
            for x in points:
                member = domain_contains(f, x)
                assert (np.max(H @ x + h) <= CMP_TOL) == member
                assert in_projected_domain(projected, x) == member
                inside += member
                outside += not member
        assert inside >= 400 and outside >= 250

    def test_screen_skips_only_draws_outside_the_domain(self, monkeypatch):
        # the first 25 draws the sampler screens out on each instance are
        # outside dom F by phase one too; so on the benchmark's bounded pool,
        # as its tasks sample it, a sampler without the screen reports the
        # same bytes
        screened = 0
        for f, _ in dual_corpus():
            V, H, h = gpm._dual_vertices(f)
            draws = []
            monkeypatch.setattr(gpm, "_dual_vertices",
                                lambda g, V=V, H=H, h=h, draws=draws: (V, _Recorder(H, draws), h))
            try:
                estimate_lipschitz_modulus(f, SectionSamplerConfig(num_pairs=4))
            except DegenerateSampler:
                pass
            monkeypatch.undo()
            outside = [x for x in draws if np.max(H @ x + h) > CMP_TOL][:25]
            assert not any(is_nonempty(evaluate(f, x)) for x in outside)
            screened += len(outside)
        assert screened >= 800
        pool = workloads.Multifunction()
        for index in range(pool.num_boxes + len(pool.canned)):
            f = pool.build(index)
            cfg = SectionSamplerConfig(num_pairs=pool.num_pairs, master_seed=index)
            report = estimate_lipschitz_modulus(f, cfg)[1].to_json_dict()
            V, H, h = gpm._dual_vertices(f)
            monkeypatch.setattr(gpm, "_dual_vertices",
                                lambda g, form=(V, 0.0 * H, 0.0 * h): form)
            assert estimate_lipschitz_modulus(f, cfg)[1].to_json_dict() == report
            monkeypatch.undo()

    def test_largest_ball_is_far_inside_the_ray_budget(self):
        # the canned multifunctions (criterion 3's among them) and criterion
        # 1's random ones: the largest dual ball has 300 vertices, on
        # criterion 1's seed 80, against a budget of 1,024 rays
        canned = [e.payload for e in instgen.canned_suite() if e.kind == "gpm"]
        corpus = canned + [criterion_gpm(seed) for seed in GPM_CORPUS_SEEDS]
        sizes = [gpm._dual_vertices(f)[0].shape[0] for f in corpus]
        assert max(sizes) == 300
        assert sizes.index(300) == len(canned) + list(GPM_CORPUS_SEEDS).index(80)
        assert max(sizes) < polyhedra._RAY_BUDGET

    def test_a_ball_past_the_budget_raises(self, monkeypatch):
        # one code path: past the budget the typed error, never an LP
        monkeypatch.setattr(polyhedra, "_RAY_BUDGET", 8)
        f = criterion_gpm(80)
        with pytest.raises(CapExceeded):
            gap_dual(f, np.zeros(f.input_dim))


class _Recorder:
    """Stands for H in the sampler's screen and keeps each x it multiplies."""

    def __init__(self, H, seen):
        self.H, self.seen = H, seen

    def __matmul__(self, x):
        self.seen.append(x)
        return self.H @ x


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

    def test_multifunction_without_rows(self, tmp_path):
        # F(x) = R for every x: the gap is 0 and the dual ball is the origin
        f = GpMultifunction(input_dim=2, output_dim=1)
        x = np.array([0.0, 1.0])
        assert gap_primal(f, x) == 0.0
        assert gap_dual(f, x) == 0.0
        assert gpm._dual_vertices(f)[0].shape == (1, 0)
        assert verify_minimax(f, [x, np.array([-3.0, 2.5])]).passed
        path = str(tmp_path / "rowless.json")
        instgen.save(f, path)
        assert main(["verify-minimax", "--instance", path, "--samples", "4"]) == 0

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

    def test_domain_check_reuses_the_minimax_gaps(self, monkeypatch):
        # both checks probe the same points, as the CLI pairs them: the
        # minimax check solves one LP per point (the primal; the dual is read
        # off the ball's vertices), the domain check reads the primal gaps it
        # solved, and a fresh object solves its own
        f = random_instance(3)
        rng = SplitMix64(20_003)
        xs = [np.array(rng.normals(f.input_dim)) for _ in range(5)]
        lps = []
        original = gpm.solve_lp

        def counting(*args):
            lps.append(args)
            return original(*args)

        monkeypatch.setattr(gpm, "solve_lp", counting)
        minimax = verify_minimax(f, xs)
        assert len(lps) == len(xs)
        domain = verify_domain_characterization(f, xs)
        assert len(lps) == len(xs)
        assert [c.gap for c in domain.checks] == [c.primal for c in minimax.checks]
        copy = GpMultifunction(**{k: getattr(f, k) for k in (
            "input_dim", "output_dim", "a1", "a2", "z", "row_x", "row_y", "rhs")})
        assert [gap_primal(copy, x) for x in xs] == [c.primal for c in minimax.checks]
        assert len(lps) == 2 * len(xs)


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
