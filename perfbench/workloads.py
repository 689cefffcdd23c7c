"""The benchmark's four workloads: task pools, instance builders, task
runners and output checks.

Every workload draws its tasks from a fixed pool of task specs indexed
0..pool_size-1.  A spec is a pure function of its index, so the outcome of
every pool member is recorded once, in ``reference.json``; the workload
seed chooses the order in which the pool is walked (see `sequence`).  A task is one call to a public
verification function on an instance object built fresh for that task.

The library is always reached through module attributes (``bounds.x``, not
``from avibound.bounds import x``) so that the tracer's patches apply to the
calls made here as well.
"""

from __future__ import annotations

import random

import numpy as np

from avibound import avi, bounds, gpm, instgen, solvers
from avibound.rng import SplitMix64, derive_seed

CLASSES = instgen.MONOTONICITY_CLASSES


def sequence(pool_size: int, seed: int, length: int) -> list:
    """Pool indices in the order one run visits them: back-to-back seeded
    shuffles of the whole pool, so any run that gets through the pool once
    has seen every member, whatever its seed."""
    rng = random.Random(seed)
    order = []
    while len(order) < length:
        block = list(range(pool_size))
        rng.shuffle(block)
        order.extend(block)
    return order[:length]


def halfway_percentile(pool_size: int, beyond_per_pass: float) -> float:
    """Percentile of the reported tail latency: `beyond_per_pass` pool tasks
    lie beyond it in each whole pass.

    The tasks of a pool differ far more from each other than repeats of one
    task do, so a run's sorted latencies come in groups of repeats.  A
    half-integer `beyond_per_pass` puts the percentile halfway through one
    task's repeats; an integer one would put it on the border between two
    tasks, where it is the slowest repeat of the lower group and jumps with
    the number of repeats.  5.5 leaves 11 tasks beyond it in two passes.
    """
    return 100.0 * (pool_size - beyond_per_pass) / pool_size


def _probe_points(dim: int, seed: int, count: int = 10) -> list:
    rng = SplitMix64(derive_seed(seed, 0x9))
    return [np.array([2.0 * rng.normal() for _ in range(dim)]) for _ in range(count)]


class Preimage:
    """Upper Lipschitz continuity of R^{-1} at base point 0.

    n = 2..4, cycling through the three monotonicity classes, with m = 5
    for a quarter of the pool and m = 6 for the rest (an even split would
    put the median latency on the gap between the two sizes).  The radius
    ladder is one radius with one sample, so each task enumerates the 2^m
    active patterns of `inverse_residual` twice (base point and sample).
    """

    name = "preimage"
    pool_size = 36
    tail_percentile = halfway_percentile(pool_size, 5.5)

    def params(self, index: int) -> dict:
        return {
            "n": 2 + (index // 3) % 3,
            "m": 5 if index < 9 else 6,
            "monotonicity": CLASSES[index % 3],
            "seed": 1000 + index,
        }

    def build(self, index: int):
        return instgen.generate_random_avi(**self.params(index))

    def run(self, index: int, inst) -> dict:
        cfg = bounds.LipschitzCheckConfig(
            base_point=np.zeros(inst.dim),
            radius_ladder=(0.2,),
            samples_per_radius=1,
            master_seed=index,
        )
        report = bounds.verify_upper_lipschitz_inverse(inst, cfg)
        return {"verdict": report.passed, "constant": report.c_emp}


class ErrorBound:
    """Local error bound at epsilon = 0.5, with the task's own solution
    geometry and a direct solution test of each geometry anchor.

    The pool is the six canned AVIs plus strongly monotone instances with
    n = 2..5 and m <= 6.
    """

    name = "error_bound"
    pool_size = 36
    tail_percentile = halfway_percentile(pool_size, 5.5)
    num_samples = 50

    def __init__(self):
        self.canned = [e.name for e in instgen.canned_suite() if e.kind == "avi"]

    def params(self, index: int) -> dict:
        if index < len(self.canned):
            return {"canned": self.canned[index]}
        j = index - len(self.canned)
        n = 2 + j % 4
        return {
            "n": n,
            "m": min(6, n + 1 + (j // 4) % 3),
            "monotonicity": "strongly_monotone",
            "seed": 2000 + j,
        }

    def build(self, index: int):
        params = self.params(index)
        if "canned" in params:
            return next(
                e.payload for e in instgen.canned_suite() if e.name == params["canned"]
            )
        return instgen.generate_random_avi(**params)

    def run(self, index: int, inst) -> dict:
        geometry = bounds.SolutionGeometry.from_instance(inst)
        report = bounds.verify_error_bound(
            inst,
            0.5,
            num_samples=self.num_samples,
            master_seed=index,
            geometry=geometry,
        )
        anchors_ok = sum(bool(avi.is_solution(inst, a)) for a in geometry.anchors)
        return {
            "verdict": report.passed,
            "constant": report.c_emp,
            "anchor_solutions": anchors_ok,
        }


class SolverTail:
    """Extragradient solve to residual 1e-6 from a seeded start.

    Strongly monotone instances with n = 3..4 and m = n+1..7; the solution
    is unique, so the final iterate is also compared with the reference
    point.
    """

    name = "solver_tail"
    pool_size = 16
    tail_percentile = halfway_percentile(pool_size, 5.5)
    stop_residual = 1e-6

    def params(self, index: int) -> dict:
        n = 3 + index % 2
        return {
            "n": n,
            "m": n + 1 + (index // 2) % (7 - n),
            "monotonicity": "strongly_monotone",
            "seed": 3000 + index,
        }

    def build(self, index: int):
        return instgen.generate_random_avi(**self.params(index))

    def run(self, index: int, inst) -> dict:
        rng = SplitMix64(derive_seed(3000, index))
        x0 = np.array([2.0 * rng.normal() for _ in range(inst.dim)])
        cfg = solvers.SolverConfig(stop_residual=self.stop_residual, x0=x0)
        trace = solvers.solve(inst, cfg)
        final = trace.records[-1].residual_norm
        return {
            "converged": trace.converged,
            "invariants": trace.converged and final <= self.stop_residual,
            "point": [float(v) for v in trace.final_x],
        }


def random_gpm(seed: int) -> gpm.GpMultifunction:
    """Random multifunction with up to 6 input/output dimensions and up to 6
    equality and inequality rows; sections may be empty or unbounded."""
    rng = SplitMix64(derive_seed(seed, 0x6))
    n = rng.randint(1, 6)
    r = rng.randint(1, 6)
    k = rng.randint(0, 6)
    p = rng.randint(0 if k else 1, 6)

    def draw(*shape):
        return np.array([rng.normal() for _ in range(int(np.prod(shape)))]).reshape(shape)

    return gpm.GpMultifunction(
        input_dim=n,
        output_dim=r,
        a1=draw(k, n),
        a2=draw(k, r),
        z=draw(k),
        row_x=draw(p, n),
        row_y=draw(p, r),
        rhs=draw(p),
    )


def box_gpm(seed: int, n: int, r: int) -> gpm.GpMultifunction:
    """Multifunction whose sections lie in the box [-c, c]^r, cut by n + 1
    random rows that move with x.

    Sections are bounded, so Hausdorff distances between them are
    certified, and the cut rows keep projections off the box fast path.
    The cut rows' x-parts, 0.3 * [I; -1...1], span R^n positively, which
    bounds the domain and keeps the domain sampler's start point near it.
    """
    rng = SplitMix64(derive_seed(seed, 0xB0))
    cut_y = np.array([[rng.normal() for _ in range(r)] for _ in range(n + 1)])
    cut_x = 0.3 * np.vstack([np.eye(n), -np.ones((1, n))])
    cut_rhs = np.array([abs(rng.normal()) + 0.5 for _ in range(n + 1)])
    half_width = 1.0 + abs(rng.normal())
    return gpm.GpMultifunction(
        input_dim=n,
        output_dim=r,
        row_x=np.vstack([np.zeros((2 * r, n)), cut_x]),
        row_y=np.vstack([np.eye(r), -np.eye(r), cut_y]),
        rhs=np.concatenate([np.full(2 * r, half_width), cut_rhs]),
    )


class Multifunction:
    """Section-gap duality and the domain characterization at 10 probe
    points, plus the Hausdorff-Lipschitz modulus when sections are bounded.

    The pool is the five canned bounded multifunctions, 9 box-bounded ones
    with output dimension 2..4, and 26 random ones without the modulus.
    """

    name = "multifunction"
    pool_size = 40
    tail_percentile = halfway_percentile(pool_size, 5.5)
    num_pairs = 8
    num_boxes = 9

    def __init__(self):
        self.canned = [
            e.name
            for e in instgen.canned_suite()
            if e.kind == "gpm" and e.expectations.get("bounded_sections")
        ]

    def params(self, index: int) -> dict:
        if index < len(self.canned):
            return {"canned": self.canned[index]}
        j = index - len(self.canned)
        if j < self.num_boxes:
            return {"box": 4000 + j, "n": 2 + (j // 3) % 2, "r": 2 + j % 3}
        return {"random": 5000 + j}

    def build(self, index: int):
        params = self.params(index)
        if "canned" in params:
            return next(
                e.payload for e in instgen.canned_suite() if e.name == params["canned"]
            )
        if "box" in params:
            return box_gpm(params["box"], params["n"], params["r"])
        return random_gpm(params["random"])

    def run(self, index: int, f) -> dict:
        points = _probe_points(f.input_dim, 6000 + index)
        minimax = gpm.verify_minimax(f, points)
        domain = gpm.verify_domain_characterization(f, points)
        constant = None
        if "random" not in self.params(index):
            sampler = gpm.SectionSamplerConfig(num_pairs=self.num_pairs, master_seed=index)
            constant, _ = gpm.estimate_lipschitz_modulus(f, sampler)
        return {
            "invariants": minimax.passed and domain.passed,
            "constant": constant,
        }


WORKLOADS = {w.name: w for w in (Preimage(), ErrorBound(), SolverTail(), Multifunction())}

CONSTANT_REL_TOL = 1e-6
POINT_ABS_TOL = 1e-4


def check(outcome: dict, reference: dict) -> list:
    """Names of the outcome fields that disagree with the reference.

    `invariants` must hold outright; `constant` must match within 1e-6
    relative; `point` within 1e-4 in the Euclidean norm; every other field
    exactly.
    """
    problems = []
    if outcome.get("invariants") is False:
        problems.append("invariants")
    if set(outcome) != set(reference):
        problems.append("fields")
        return problems
    for key, want in reference.items():
        got = outcome[key]
        if key == "invariants":
            continue
        if key == "constant":
            ok = (got is None) == (want is None) and (
                got is None or abs(got - want) <= CONSTANT_REL_TOL * abs(want) + 1e-12
            )
        elif key == "point":
            ok = float(np.linalg.norm(np.subtract(got, want))) <= POINT_ABS_TOL
        else:
            ok = got == want
        if not ok:
            problems.append(key)
    return problems
