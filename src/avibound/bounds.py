"""Empirical verification of the residual error bound and of the upper
Lipschitz continuity of the inverse residual map.

Both checks sample deterministically (per-sample derived seeds) and hand
their distance ratios to `ratios.running_max`, which gives the constant, the
witness, the trace of the running maximum versus sample count and, for the
error bound, the stability verdict.  This module only draws and filters the
samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .avi import AviInstance, enumerate_solution_set, inverse_residual, residual
from .errors import DegenerateSampler, NoSolution
from .polyhedra import _dedup, distance, enumerate_vertices, union_distance
from .ratios import ZERO_OVER_ZERO_FLOOR, running_max
from .rng import SplitMix64, derive_seed
from .sets import _as_vector, nonnegative_orthant

DEFAULT_NOISE_SCALES = (0.01, 0.1, 1.0)
DEFAULT_RADIUS_LADDER = (0.05, 0.2, 0.8)
EPSILON_LADDER = tuple(2.0 ** (-k) for k in range(11))  # 1, 1/2, ..., 2^-10


class SolutionGeometry:
    """Distance oracle for the solution set plus anchor points for sampling.

    The default construction enumerates the polyhedral pieces of the
    solution set.  Separable instances (diagonal operator on the nonnegative
    orthant) get a product-form oracle instead, which keeps the truncation
    experiment tractable although all 2^n faces of the orthant are nonempty.
    """

    def __init__(self, distance_fn, anchors):
        self._distance_fn = distance_fn
        self.anchors = [np.asarray(a, dtype=float) for a in anchors]
        if not self.anchors:
            raise NoSolution("solution geometry needs at least one anchor point")

    def distance(self, x) -> float:
        return float(self._distance_fn(np.asarray(x, dtype=float)))

    @classmethod
    def from_pieces(cls, pieces, vertex_sets) -> "SolutionGeometry":
        """The union of `pieces`, anchored at their vertices; `vertex_sets`
        holds `enumerate_vertices` of each piece, in order."""
        if not pieces:
            raise NoSolution("empty solution set")
        anchors = [v for vs in vertex_sets for v in vs.vertices]
        return cls(distance_fn=lambda x: union_distance(pieces, x),
                   anchors=_dedup(anchors, relative=False))

    @classmethod
    def from_instance(cls, inst: AviInstance) -> "SolutionGeometry":
        pieces = enumerate_solution_set(inst)
        return cls.from_pieces(pieces, [enumerate_vertices(piece) for piece in pieces])

    @classmethod
    def separable_orthant(cls, diagonal, q) -> "SolutionGeometry":
        """Product geometry for M = diag(diagonal), C = orthant.

        Each coordinate is a scalar complementarity problem; the solution set
        is the product of the per-axis solution sets and distances add in
        squares.
        """
        diagonal = np.asarray(diagonal, dtype=float)
        q = np.asarray(q, dtype=float)
        axis_pieces = []
        anchor = np.zeros(diagonal.size)
        for i in range(diagonal.size):
            inst_1d = AviInstance(
                m_op=[[diagonal[i]]], q=[q[i]], c_set=nonnegative_orthant(1)
            )
            pieces = enumerate_solution_set(inst_1d)
            if not pieces:
                raise NoSolution(f"coordinate {i} has no solution")
            axis_pieces.append(pieces)
            anchor[i] = enumerate_vertices(pieces[0]).vertices[0][0]

        def dist(x):
            total = 0.0
            for i, pieces in enumerate(axis_pieces):
                di = union_distance(pieces, [x[i]])
                total += di * di
            return math.sqrt(total)

        return cls(distance_fn=dist, anchors=[anchor])


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one empirical bound check.

    `ratio_trace` holds (accepted sample count, running max ratio) pairs and
    `violations` is empty exactly when the verdict passes.
    """

    kind: str
    c_emp: float
    epsilon: float | None
    num_samples: int
    worst_ratio_witness: np.ndarray | None
    violations: list
    ratio_trace: list
    notes: dict = field(default_factory=dict)
    per_family: dict | None = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "c_emp": self.c_emp,
            "epsilon": self.epsilon,
            "num_samples": self.num_samples,
            "worst_ratio_witness": (
                [float(v) for v in self.worst_ratio_witness]
                if self.worst_ratio_witness is not None
                else None
            ),
            "violations": [str(v) for v in self.violations],
            "ratio_trace": [[int(c), float(v)] for c, v in self.ratio_trace],
            "notes": {k: _jsonable(v) for k, v in self.notes.items()},
            "per_family": (
                {str(k): float(v) for k, v in self.per_family.items()}
                if self.per_family is not None
                else None
            ),
            "passed": self.passed,
        }


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


@dataclass(frozen=True)
class ErrorBoundSample:
    point: np.ndarray
    residual_norm: float
    distance: float | None  # None where no residual filter can keep it


def _sample_error_bound_table(inst, geometry, num_samples, master_seed, top):
    """The seeded samples, each with its residual norm, and its distance to
    the solution set only where `_filter_error_bound` at some epsilon <= top
    (the largest the table is filtered at) can keep the sample: not below
    ZERO_OVER_ZERO_FLOOR and not above top.  No filter reads the others'."""
    anchors = geometry.anchors
    table = []
    for i in range(num_samples):
        stream = SplitMix64(derive_seed(master_seed, i))
        anchor = anchors[stream.randint(0, len(anchors) - 1)]
        scale = DEFAULT_NOISE_SCALES[stream.randint(0, len(DEFAULT_NOISE_SCALES) - 1)]
        x = anchor + scale * np.array(stream.normals(inst.dim))
        rnorm = residual(inst, x).norm
        kept = not (rnorm < ZERO_OVER_ZERO_FLOOR or rnorm > top)
        dist = geometry.distance(x) if kept else None
        table.append(ErrorBoundSample(point=x, residual_norm=rnorm, distance=dist))
    return table


def _filter_error_bound(table, epsilon):
    """The samples with residual norm in [ZERO_OVER_ZERO_FLOOR, epsilon], and
    the counts left out below the floor and above epsilon."""
    kept = []
    excluded_floor = 0
    filtered_eps = 0
    for sample in table:
        if sample.residual_norm < ZERO_OVER_ZERO_FLOOR:
            excluded_floor += 1
        elif sample.residual_norm > epsilon:
            filtered_eps += 1
        else:
            kept.append(sample)
    return kept, excluded_floor, filtered_eps


def _ratio_max(kept):
    return running_max([s.distance / s.residual_norm for s in kept])


def verify_error_bound(inst: AviInstance, epsilon: float,
                       num_samples: int = 400, master_seed: int = 0,
                       geometry: SolutionGeometry | None = None) -> BoundReport:
    """Estimate the constant in d(x, solutions) <= c ||R(x)|| near solutions.

    Samples are anchor points of the solution set plus Gaussian noise at the
    scales `DEFAULT_NOISE_SCALES`; only samples with residual norm in
    [ZERO_OVER_ZERO_FLOOR, epsilon] enter the ratio.  The verdict passes
    when the running maximum stabilized.  Raises ValueError unless epsilon
    is finite and positive, NoSolution when the solution set is empty and
    DegenerateSampler when no sample survives the residual filter.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    geometry = geometry or SolutionGeometry.from_instance(inst)
    table = _sample_error_bound_table(inst, geometry, num_samples, master_seed, epsilon)
    kept, excluded_floor, filtered_eps = _filter_error_bound(table, epsilon)
    if not kept:
        raise DegenerateSampler(
            f"no sample passed the residual filter (epsilon={epsilon})"
        )
    reduced = _ratio_max(kept)
    violations = []
    if not math.isfinite(reduced.c_emp):
        violations.append("ratio diverged")
    if not reduced.stable:
        violations.append(
            "ratio trace not stabilized over the final doubling of samples"
        )
    return BoundReport(
        kind="error_bound",
        c_emp=reduced.c_emp,
        epsilon=epsilon,
        num_samples=len(kept),
        worst_ratio_witness=None if reduced.witness is None else kept[reduced.witness].point,
        violations=violations,
        ratio_trace=reduced.trace,
        notes={
            "excluded_zero_residual": excluded_floor,
            "filtered_above_epsilon": filtered_eps,
            "noise_scales": list(DEFAULT_NOISE_SCALES),
            "master_seed": master_seed,
        },
    )


@dataclass(frozen=True)
class LipschitzCheckConfig:
    """Sampling plan around a base point for the inverse-residual check."""

    base_point: np.ndarray
    radius_ladder: tuple = DEFAULT_RADIUS_LADDER
    samples_per_radius: int = 12
    master_seed: int = 0

    def __post_init__(self):
        base = np.asarray(self.base_point, dtype=float)
        base.setflags(write=False)
        object.__setattr__(self, "base_point", base)
        radii = tuple(float(r) for r in self.radius_ladder)
        positive = all(math.isfinite(r) and r > 0 for r in radii)
        if not positive or list(radii) != sorted(radii):
            raise ValueError("radius ladder must be finite, positive and increasing")
        if not radii or self.samples_per_radius < 1:
            # a plan that draws no y would pass with num_samples 0
            raise ValueError("a sampling plan must draw at least one y: "
                             "a nonempty radius ladder and samples_per_radius >= 1")
        object.__setattr__(self, "radius_ladder", radii)


def verify_upper_lipschitz_inverse(inst: AviInstance, cfg: LipschitzCheckConfig) -> BoundReport:
    """Check R^{-1}(y) subset R^{-1}(y0) + c ||y - y0|| B on sampled y.

    Every vertex of every piece of the sampled preimage must sit within
    c * ||y - y0|| of the base preimage; c_emp is the largest observed
    distance ratio.  Per-active-pattern ratios are reported alongside, since
    the global modulus is the maximum of the per-pattern ones.

    A base point outside the domain of the inverse passes vacuously, with
    no ratio (c_emp 0, per_family None): the domain is closed, so a ball
    around y0 misses it, and the property is local.  The notes mark
    `empty_base_preimage`; `near_domain_hits` counts sampled y in the
    domain, which lie outside that ball and do not bear on the verdict.
    """
    y0 = _as_vector(cfg.base_point, inst.dim, "base_point")
    base_labelled = inverse_residual(inst, y0, keep_active=True)
    ratios = []
    vertices = []
    per_family: dict = {}
    outside_domain = 0
    near_domain_hits = 0
    family_mismatches = 0
    for r_index, radius in enumerate(cfg.radius_ladder):
        for j in range(cfg.samples_per_radius):
            stream = SplitMix64(derive_seed(cfg.master_seed, r_index, j))
            y = y0 + radius * np.array(stream.normals(inst.dim))
            labelled = inverse_residual(inst, y, keep_active=True)
            if not labelled:
                outside_domain += 1
                continue
            if not base_labelled:
                near_domain_hits += 1
                continue
            dy = float(np.linalg.norm(y - y0))
            if dy <= 1e-12:
                continue
            for active, piece in labelled:
                vs = enumerate_vertices(piece)
                for v in vs.vertices:
                    # one projection per base piece; each is nonempty, as
                    # inverse_residual kept only nonempty pieces
                    dists = {key: distance(base, v)[0] for key, base in base_labelled}
                    ratios.append(min(dists.values()) / dy)
                    vertices.append(v)
                    if active in dists:
                        per_family[active] = max(per_family.get(active, 0.0),
                                                 dists[active] / dy)
                    else:
                        family_mismatches += 1
    notes = {
        "base_point": y0,
        "radius_ladder": list(cfg.radius_ladder),
        "samples_per_radius": cfg.samples_per_radius,
        "master_seed": cfg.master_seed,
        "outside_domain": outside_domain,
        "family_mismatches": family_mismatches,
    }
    if not base_labelled:
        notes["empty_base_preimage"] = True
        notes["near_domain_hits"] = near_domain_hits
    elif not ratios:
        raise DegenerateSampler("all sampled y landed outside dom R^{-1}")
    reduced = running_max(ratios)
    return BoundReport(
        kind="upper_lipschitz_inverse",
        c_emp=reduced.c_emp,
        epsilon=None,
        num_samples=len(ratios),
        worst_ratio_witness=None if reduced.witness is None else vertices[reduced.witness],
        violations=[] if math.isfinite(reduced.c_emp) else ["ratio diverged"],
        ratio_trace=reduced.trace,
        notes=notes,
        per_family=per_family if base_labelled else None,
    )


@dataclass(frozen=True)
class LocalRadiusResult:
    epsilon: float
    c_emp: float
    stabilized: bool
    curve: list  # (epsilon, c_emp, samples kept, stabilized)


def find_local_radius(inst: AviInstance,
                      num_samples: int = 400, master_seed: int = 0,
                      geometry: SolutionGeometry | None = None) -> LocalRadiusResult:
    """Largest epsilon in the halving ladder with a stabilized ratio trace.

    One sample table is drawn and every epsilon filters it, so the curve is
    a monotone reduction of the same data rather than fresh noise per level.
    """
    geometry = geometry or SolutionGeometry.from_instance(inst)
    table = _sample_error_bound_table(inst, geometry, num_samples, master_seed,
                                      EPSILON_LADDER[0])
    curve = []
    chosen = None
    for eps in EPSILON_LADDER:
        kept, _, _ = _filter_error_bound(table, eps)
        reduced = _ratio_max(kept)
        curve.append((eps, reduced.c_emp, len(kept), reduced.stable))
        if reduced.stable and chosen is None:
            chosen = (eps, reduced.c_emp, True)
    if chosen is None:
        # no level stabilized: report the largest epsilon that kept samples
        # (the estimate itself, not the plateau verdict) rather than nothing
        populated = [row for row in curve if row[2] > 0]
        if not populated:
            raise DegenerateSampler("no sample passed any epsilon filter")
        eps, c_emp, _, _ = populated[0]
        chosen = (eps, c_emp, False)
    return LocalRadiusResult(
        epsilon=chosen[0], c_emp=chosen[1], stabilized=chosen[2], curve=curve
    )


@dataclass(frozen=True)
class TruncationRow:
    dim: int
    epsilon: float
    c_emp: float
    stabilized: bool


@dataclass(frozen=True)
class TruncationTable:
    spectrum: str
    rows: list

    def c_values(self) -> list:
        return [row.c_emp for row in self.rows]

    def to_json_dict(self) -> dict:
        return {
            "kind": "truncation_table",
            "spectrum": self.spectrum,
            "rows": [
                {
                    "dim": row.dim,
                    "epsilon": row.epsilon,
                    "c_emp": row.c_emp,
                    "stabilized": row.stabilized,
                }
                for row in self.rows
            ],
        }

    def to_csv(self) -> str:
        lines = ["dim,epsilon,c_emp,stabilized"]
        for row in self.rows:
            lines.append(f"{row.dim},{row.epsilon},{row.c_emp},{row.stabilized}")
        return "\n".join(lines) + "\n"


def truncation_study(family, dims, num_samples: int = 400,
                     master_seed: int = 0) -> TruncationTable:
    """Error-bound constants along a family of growing diagonal instances.

    `family` must provide `spectrum`, `instance(n)` and `diagonal(n)` /
    `shift(n)` (see instgen.TruncationFamily).  The product-form solution
    geometry keeps large dimensions tractable, where the face search would
    visit all 2^n nonempty faces of the orthant.
    """
    rows = []
    for index, n in enumerate(dims):
        inst = family.instance(n)
        geometry = SolutionGeometry.separable_orthant(family.diagonal(n), family.shift(n))
        result = find_local_radius(
            inst,
            num_samples=num_samples,
            master_seed=derive_seed(master_seed, index),
            geometry=geometry,
        )
        rows.append(
            TruncationRow(
                dim=n,
                epsilon=result.epsilon,
                c_emp=result.c_emp,
                stabilized=result.stabilized,
            )
        )
    return TruncationTable(spectrum=family.spectrum, rows=rows)
