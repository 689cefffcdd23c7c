"""Instance generation, the canned verification suite, and serialization.

Files carry an explicit schema_version and are written canonically
(sorted keys, fixed separators), so regenerating an instance from its
manifest reproduces the stored bytes exactly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .avi import AviInstance
from .errors import CapExceeded, SchemaError
from .gpm import GpMultifunction
from .polyhedra import PolyhedralSet, nonnegative_orthant
from .rng import SplitMix64, derive_seed

SCHEMA_VERSION = "1"
MONOTONICITY_CLASSES = ("strongly_monotone", "monotone_skew", "indefinite")
GENERATOR_DIM_CAP = 50
GENERATOR_ROW_CAP = 16


@dataclass(frozen=True)
class TruncationFamily:
    """Diagonal complementarity instances M = diag(mu), C = orthant.

    `harmonic` uses mu_i = 1/i, whose limit operator fails to have closed
    range; `constant` uses mu_i = 1.  The shift is q_i = -mu_i, placing the
    unique solution at the all-ones point for every dimension.
    """

    spectrum: str = "harmonic"

    def __post_init__(self):
        if self.spectrum not in ("harmonic", "constant"):
            raise ValueError(f"unknown spectrum {self.spectrum!r}")

    @property
    def spectrum_name(self) -> str:
        return self.spectrum

    def diagonal(self, n: int) -> np.ndarray:
        if self.spectrum == "harmonic":
            return 1.0 / np.arange(1, n + 1)
        return np.ones(n)

    def shift(self, n: int) -> np.ndarray:
        return -self.diagonal(n)

    def instance(self, n: int) -> AviInstance:
        if n > GENERATOR_DIM_CAP:
            raise CapExceeded(f"truncation dimension {n} exceeds {GENERATOR_DIM_CAP}")
        return AviInstance(
            m_op=np.diag(self.diagonal(n)),
            q=self.shift(n),
            c_set=nonnegative_orthant(n),
        )

    def to_json_dict(self) -> dict:
        return {"spectrum": self.spectrum}

    @classmethod
    def from_json_dict(cls, data: dict) -> "TruncationFamily":
        try:
            return cls(spectrum=data["spectrum"])
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed truncation family payload: {exc}") from exc


def generate_random_avi(n: int, m: int, monotonicity: str, seed: int) -> AviInstance:
    """Random instance of the requested monotonicity class.

    strongly_monotone: M = A^T A + I; monotone_skew: M = B - B^T with a
    bounded constraint set (skew problems on unbounded sets may have no
    solution), which needs m >= n + 1 rows; indefinite: plain Gaussian M.
    The constraint set always contains a strictly interior witness.
    """
    if n > GENERATOR_DIM_CAP:
        raise CapExceeded(f"n={n} exceeds generator cap {GENERATOR_DIM_CAP}")
    if m > GENERATOR_ROW_CAP:
        raise CapExceeded(f"m={m} exceeds generator cap {GENERATOR_ROW_CAP}")
    if monotonicity not in MONOTONICITY_CLASSES:
        raise ValueError(f"monotonicity must be one of {MONOTONICITY_CLASSES}")
    rng = SplitMix64(derive_seed(seed, 0x9A1))
    scale = 1.0 / np.sqrt(n)

    def matrix():
        return scale * np.array([[rng.normal() for _ in range(n)] for _ in range(n)])

    if monotonicity == "strongly_monotone":
        A = matrix()
        M = A.T @ A + np.eye(n)
    elif monotonicity == "monotone_skew":
        B = matrix()
        M = B - B.T
    else:
        M = matrix()
    q = np.array([rng.normal() for _ in range(n)])
    witness = np.array([rng.normal() for _ in range(n)])
    rows, rhs = [], []
    if monotonicity == "monotone_skew":
        if m < n + 1:
            raise ValueError("monotone_skew needs m >= n + 1 rows to bound C")
        spread = 2.0 + abs(rng.normal())
        for i in range(n):  # x_i >= witness_i - spread
            row = np.zeros(n)
            row[i] = -1.0
            rows.append(row)
            rhs.append(-(witness[i] - spread))
        rows.append(np.ones(n))  # sum x <= sum witness + spread
        rhs.append(float(np.sum(witness)) + spread)
    while len(rows) < m:
        a = np.array([rng.normal() for _ in range(n)])
        norm = np.linalg.norm(a)
        if norm < 1e-9:
            continue
        a = a / norm
        rows.append(a)
        rhs.append(float(a @ witness) + abs(rng.normal()) + 0.1)
    C = PolyhedralSet(n, ineq_lhs=np.array(rows), ineq_rhs=np.array(rhs))
    return AviInstance(m_op=M, q=q, c_set=C)


# --- canned suite -----------------------------------------------------------


@dataclass(frozen=True)
class SuiteEntry:
    name: str
    kind: str  # "avi" | "gpm" | "truncation"
    payload: object
    expectations: dict = field(default_factory=dict)


def _lcp_1d():
    return AviInstance(m_op=[[1.0]], q=[-1.0], c_set=nonnegative_orthant(1))


def _ray_2d():
    return AviInstance(
        m_op=[[0.0, 0.0], [0.0, 1.0]], q=[0.0, -1.0], c_set=nonnegative_orthant(2)
    )


def _zero_op_interval():
    C = PolyhedralSet(1, ineq_lhs=[[1.0], [-1.0]], ineq_rhs=[1.0, 0.0])
    return AviInstance(m_op=[[0.0]], q=[0.0], c_set=C)


def _zero_op_box2():
    C = PolyhedralSet(
        2,
        ineq_lhs=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        ineq_rhs=[1.0, 1.0, 0.0, 0.0],
    )
    return AviInstance(m_op=np.zeros((2, 2)), q=np.zeros(2), c_set=C)


def _identity_lcp_3():
    return AviInstance(m_op=np.eye(3), q=-np.ones(3), c_set=nonnegative_orthant(3))


def _skew_2d():
    return AviInstance(
        m_op=[[0.0, 1.0], [-1.0, 0.0]], q=[-1.0, 0.0], c_set=nonnegative_orthant(2)
    )


def _gpm_identity():
    return GpMultifunction(
        input_dim=2, output_dim=2, a1=-np.eye(2), a2=np.eye(2), z=np.zeros(2)
    )


def _gpm_abs_interval():
    return GpMultifunction(
        input_dim=1,
        output_dim=1,
        row_x=[[-1.0], [-1.0]],
        row_y=[[1.0], [-1.0]],
        rhs=[0.0, 0.0],
    )


def _gpm_scaled():
    return GpMultifunction(input_dim=1, output_dim=1, a1=[[-2.0]], a2=[[1.0]], z=[0.0])


def _gpm_box_sections():
    # F(x) = [0, x1] x [0, x2]; sections empty unless x >= 0
    return GpMultifunction(
        input_dim=2,
        output_dim=2,
        row_x=[[-1.0, 0.0], [0.0, -1.0], [0.0, 0.0], [0.0, 0.0]],
        row_y=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        rhs=[0.0, 0.0, 0.0, 0.0],
    )


def _gpm_affine_2d():
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    return GpMultifunction(
        input_dim=2, output_dim=2, a1=-A, a2=np.eye(2), z=np.array([0.5, -1.0])
    )


def canned_suite() -> list:
    """Worked instances with externally derivable expected properties."""
    return [
        SuiteEntry(
            name="lcp_1d",
            kind="avi",
            payload=_lcp_1d(),
            expectations={
                "solution_points": [[1.0]],
                "error_bound_c": [0.99, 1.01],
                "lipschitz_inverse_c": [1.0 - 1e-6, 1.0 + 1e-6],
                "monotone": True,
            },
        ),
        SuiteEntry(
            name="ray_2d",
            kind="avi",
            payload=_ray_2d(),
            expectations={
                "solution_samples": [[[0.0, 1.0], True], [[3.0, 1.0], True],
                                     [[0.0, 0.5], False], [[1.0, 1.5], False]],
                "error_bound_c": [0.99, 1.01],
                "monotone": True,
            },
        ),
        SuiteEntry(
            name="zero_op_interval",
            kind="avi",
            payload=_zero_op_interval(),
            expectations={
                "solution_samples": [[[0.5], True], [[1.5], False]],
                "error_bound_c": [0.99, 1.01],
                "monotone": True,
            },
        ),
        SuiteEntry(
            name="zero_op_box2",
            kind="avi",
            payload=_zero_op_box2(),
            expectations={
                "solution_samples": [[[0.5, 0.5], True], [[1.5, 0.5], False]],
                "error_bound_c": [0.99, 1.01],
                "monotone": True,
            },
        ),
        SuiteEntry(
            name="identity_lcp_3",
            kind="avi",
            payload=_identity_lcp_3(),
            expectations={
                "solution_points": [[1.0, 1.0, 1.0]],
                "error_bound_c": [0.99, 1.01],
                "monotone": True,
            },
        ),
        SuiteEntry(
            name="skew_2d",
            kind="avi",
            payload=_skew_2d(),
            expectations={
                "solution_samples": [[[0.0, 1.0], True], [[0.0, 2.0], True],
                                     [[0.0, 0.5], False]],
                "monotone": True,
            },
        ),
        SuiteEntry(
            name="gpm_identity",
            kind="gpm",
            payload=_gpm_identity(),
            expectations={"bounded_sections": True, "modulus": [0.999, 1.001]},
        ),
        SuiteEntry(
            name="gpm_abs_interval",
            kind="gpm",
            payload=_gpm_abs_interval(),
            expectations={"bounded_sections": True, "modulus": [0.999, 1.001]},
        ),
        SuiteEntry(
            name="gpm_scaled",
            kind="gpm",
            payload=_gpm_scaled(),
            expectations={"bounded_sections": True, "modulus": [1.999, 2.001]},
        ),
        SuiteEntry(
            name="gpm_box_sections",
            kind="gpm",
            payload=_gpm_box_sections(),
            expectations={"bounded_sections": True, "modulus": [0.9, 1.001]},
        ),
        SuiteEntry(
            name="gpm_affine_2d",
            kind="gpm",
            payload=_gpm_affine_2d(),
            expectations={
                "bounded_sections": True,
                "modulus_matrix": [[1.0, 2.0], [0.0, 1.0]],
            },
        ),
        SuiteEntry(
            name="trunc_harmonic",
            kind="truncation",
            payload=TruncationFamily("harmonic"),
            expectations={"growing": True},
        ),
        SuiteEntry(
            name="trunc_constant",
            kind="truncation",
            payload=TruncationFamily("constant"),
            expectations={"growing": False, "c_range": [0.9, 1.1]},
        ),
    ]


# --- serialization ----------------------------------------------------------

@dataclass(frozen=True)
class InstanceManifest:
    """Recipe from which a stored instance regenerates byte-for-byte."""

    name: str
    seed: int
    params: dict
    path: str

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "params": self.params,
            "path": self.path,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "InstanceManifest":
        try:
            return cls(
                name=data["name"],
                seed=int(data["seed"]),
                params=dict(data["params"]),
                path=data["path"],
            )
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed manifest payload: {exc}") from exc

    def regenerate(self) -> AviInstance:
        return generate_random_avi(seed=self.seed, **self.params)


_KINDS = {
    "avi": AviInstance,
    "gpm": GpMultifunction,
    "polyhedral_set": PolyhedralSet,
    "truncation_family": TruncationFamily,
    "manifest": InstanceManifest,
}


def _kind_of(obj) -> str:
    for kind, cls in _KINDS.items():
        if isinstance(obj, cls):
            return kind
    raise SchemaError(f"cannot serialize object of type {type(obj).__name__}")


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def save(obj, path: str) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": _kind_of(obj),
        **obj.to_json_dict(),
    }
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(payload))


def load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: top-level JSON must be an object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"{path}: schema_version {version!r} != {SCHEMA_VERSION!r}")
    kind = data.get("kind")
    cls = _KINDS.get(kind)
    if cls is None:
        raise SchemaError(f"{path}: unknown kind {kind!r}")
    return cls.from_json_dict(data)


def load_manifest(path: str) -> InstanceManifest:
    manifest = load(path)
    if not isinstance(manifest, InstanceManifest):
        raise SchemaError(f"{path}: not a manifest file")
    return manifest
