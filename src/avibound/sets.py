"""H-representation of polyhedral convex sets.

A set is ``{x : eq_lhs x = eq_rhs, ineq_lhs x <= ineq_rhs}``.  Equality rows
encode the affine-subspace part of a generalized polyhedral convex set and
are kept separate from inequalities on purpose: converting them to pairs of
inequalities destroys the conditioning of the active-set projection solver.
Instances are immutable after construction.

Rows are validated only here, by `_as_matrix` and `_as_vector`, which read
None or an empty array as a block with no rows: a zero-row array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, SchemaError


def _as_matrix(a, ncols: int, name: str) -> np.ndarray:
    arr = np.asarray([] if a is None else a, dtype=float)
    if arr.size == 0:
        return np.zeros((0, ncols))
    if arr.ndim != 2 or arr.shape[1] != ncols:
        raise DimensionMismatch(f"{name}: expected shape (*, {ncols}), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _as_vector(a, nrows: int, name: str) -> np.ndarray:
    arr = np.asarray([] if a is None else a, dtype=float).reshape(-1)
    if arr.shape != (nrows,):
        raise DimensionMismatch(f"{name}: expected length {nrows}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class PolyhedralSet:
    """Polyhedral convex set in inequality/equality form."""

    ambient_dim: int
    ineq_lhs: np.ndarray = field(default=None)
    ineq_rhs: np.ndarray = field(default=None)
    eq_lhs: np.ndarray = field(default=None)
    eq_rhs: np.ndarray = field(default=None)

    def __post_init__(self):
        n = int(self.ambient_dim)
        if n <= 0:
            raise DimensionMismatch("ambient_dim must be positive")
        object.__setattr__(self, "ambient_dim", n)
        A = _as_matrix(self.ineq_lhs, n, "ineq_lhs")
        b = _as_vector(self.ineq_rhs, A.shape[0], "ineq_rhs")
        E = _as_matrix(self.eq_lhs, n, "eq_lhs")
        d = _as_vector(self.eq_rhs, E.shape[0], "eq_rhs")
        for name, arr in (("ineq_lhs", A), ("ineq_rhs", b), ("eq_lhs", E), ("eq_rhs", d)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_cache", {})

    @property
    def num_ineq(self) -> int:
        return self.ineq_lhs.shape[0]

    @property
    def num_eq(self) -> int:
        return self.eq_lhs.shape[0]

    def contains(self, x, tol: float = 1e-9) -> bool:
        """Membership within slack `tol` on every row."""
        return _satisfies_rows(self, _as_vector(x, self.ambient_dim, "x"), tol)

    def violation(self, x) -> float:
        """Largest constraint violation at x (0 inside)."""
        x = _as_vector(x, self.ambient_dim, "x")
        worst = 0.0
        if self.num_eq:
            worst = max(worst, float(np.max(np.abs(self.eq_lhs @ x - self.eq_rhs))))
        if self.num_ineq:
            worst = max(worst, float(np.max(self.ineq_lhs @ x - self.ineq_rhs)))
        return worst

    def box_bounds(self):
        """(lo, hi) coordinate bounds when every row touches one coordinate.

        Returns None as soon as any row has two or more nonzero coefficients;
        callers use this as the fast path for orthants, boxes and intervals.
        """
        cached = self._cache.get("box")
        if cached is not None:
            return cached if cached != "none" else None
        n = self.ambient_dim
        lo = np.full(n, -np.inf)
        hi = np.full(n, np.inf)

        def single_coord(row):
            nz = np.nonzero(row)[0]
            return int(nz[0]) if nz.size == 1 else None

        ok = True
        for row, rhs in zip(self.ineq_lhs, self.ineq_rhs):
            j = single_coord(row)
            if j is None:
                ok = False
                break
            if row[j] > 0:
                hi[j] = min(hi[j], rhs / row[j])
            else:
                lo[j] = max(lo[j], rhs / row[j])
        if ok:
            for row, rhs in zip(self.eq_lhs, self.eq_rhs):
                j = single_coord(row)
                if j is None:
                    ok = False
                    break
                v = rhs / row[j]
                lo[j] = max(lo[j], v)
                hi[j] = min(hi[j], v)
        result = (lo, hi) if ok else None
        self._cache["box"] = result if result is not None else "none"
        return result

    def to_json_dict(self) -> dict:
        return {
            "n": self.ambient_dim,
            "ineq": [
                {"a": [float(v) for v in row], "b": float(rhs)}
                for row, rhs in zip(self.ineq_lhs, self.ineq_rhs)
            ],
            "eq": [
                {"a": [float(v) for v in row], "b": float(rhs)}
                for row, rhs in zip(self.eq_lhs, self.eq_rhs)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PolyhedralSet":
        try:
            n = int(data["n"])
            ineq = data.get("ineq", [])
            eq = data.get("eq", [])
            A = [row["a"] for row in ineq]
            b = [row["b"] for row in ineq]
            E = [row["a"] for row in eq]
            d = [row["b"] for row in eq]
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed polyhedral set payload: {exc}") from exc
        return cls(ambient_dim=n, ineq_lhs=A, ineq_rhs=b, eq_lhs=E, eq_rhs=d)

    def __repr__(self) -> str:  # keep array dumps out of test failure output
        return (
            f"PolyhedralSet(n={self.ambient_dim}, "
            f"ineq={self.num_ineq}, eq={self.num_eq})"
        )


def nonnegative_orthant(n: int) -> PolyhedralSet:
    return PolyhedralSet(n, ineq_lhs=-np.eye(n), ineq_rhs=np.zeros(n))


def _satisfies_rows(S: PolyhedralSet, x: np.ndarray, tol: float) -> bool:
    """Whether every row of S holds at x within slack `tol`.

    x must be a finite float vector of length `S.ambient_dim`, as
    `_as_vector` returns it: a NaN residual compares False against `tol`,
    so this test alone would accept a non-finite x.
    """
    if S.num_eq and np.abs(S.eq_lhs @ x - S.eq_rhs).max() > tol:
        return False
    if S.num_ineq and (S.ineq_lhs @ x - S.ineq_rhs).max() > tol:
        return False
    return True


def box(lo, hi) -> PolyhedralSet:
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = lo.size
    A = np.vstack([np.eye(n), -np.eye(n)])
    b = np.concatenate([hi, -lo])
    return PolyhedralSet(n, ineq_lhs=A, ineq_rhs=b)
