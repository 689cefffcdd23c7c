"""H-representation of polyhedral convex sets.

A set is ``{x : eq_lhs x = eq_rhs, ineq_lhs x <= ineq_rhs}``.  Equality rows
encode the affine-subspace part of a generalized polyhedral convex set and
are kept separate from inequalities on purpose: the projection's dual loop
takes every equality row into its working set first and never drops one,
while a pair of opposite inequalities is two dependent rows, of which its
working set can hold only one.
Instances are immutable after construction.

Arrays are validated once, where they enter the program, by `_as_matrix`
and `_as_vector` (None or an empty array is a zero-row block): in the public
constructors and each public function's own arguments.  Rows the program
computes from validated arrays build their set by `PolyhedralSet._computed`.
The projection's target and the residual's point, which callers compute
from validated arrays, are screened by `_screened` instead of scanned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, SchemaError


def _as_matrix(a, ncols: int, name: str) -> np.ndarray:
    arr = np.array([] if a is None else a, dtype=float)
    if arr.size == 0:
        return np.zeros((0, ncols))
    if arr.ndim != 2 or arr.shape[1] != ncols:
        raise DimensionMismatch(f"{name}: expected shape (*, {ncols}), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _as_vector(a, nrows: int, name: str) -> np.ndarray:
    arr = np.array([] if a is None else a, dtype=float).reshape(-1)
    if arr.shape != (nrows,):
        raise DimensionMismatch(f"{name}: expected length {nrows}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _screened(v, n: int, name: str):
    """(v, v.v) for a vector the hot path takes as handed: screened, not
    scanned.  A float ndarray of shape (n,) in C order with a finite v.v
    (which no v with an inf or NaN entry has) passes as it is; anything else
    goes through `_as_vector`, to convert, copy into C order or raise.  BLAS
    sums a strided vector's products in another order, so the copy keeps
    the bits of every later product independent of v's memory layout."""
    if (isinstance(v, np.ndarray) and v.dtype == float and v.shape == (n,)
            and v.flags.c_contiguous):
        dot = v.dot(v)
        if math.isfinite(dot):
            return v, dot
    v = _as_vector(v, n, name)
    return v, v.dot(v)


@dataclass(frozen=True)
class PolyhedralSet:
    """Polyhedral convex set in inequality/equality form.  The constructor
    keeps read-only copies of the blocks it validates, so the caller's arrays
    stay writable and no write to them reaches the set or its cache."""

    ambient_dim: int
    ineq_lhs: np.ndarray = field(default=None)
    ineq_rhs: np.ndarray = field(default=None)
    eq_lhs: np.ndarray = field(default=None)
    eq_rhs: np.ndarray = field(default=None)

    def __post_init__(self):
        n = int(self.ambient_dim)
        if n <= 0:
            raise DimensionMismatch("ambient_dim must be positive")
        A = _as_matrix(self.ineq_lhs, n, "ineq_lhs")
        b = _as_vector(self.ineq_rhs, A.shape[0], "ineq_rhs")
        E = _as_matrix(self.eq_lhs, n, "eq_lhs")
        self._keep(n, A, b, E, _as_vector(self.eq_rhs, E.shape[0], "eq_rhs"))

    def _keep(self, n, A, b, E, d):
        object.__setattr__(self, "ambient_dim", n)
        for name, arr in (("ineq_lhs", A), ("ineq_rhs", b), ("eq_lhs", E), ("eq_rhs", d)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_cache", {})
        return self

    @classmethod
    def _computed(cls, n: int, ineq_lhs=None, ineq_rhs=None, eq_lhs=None, eq_rhs=None):
        """The set of rows the program computed from validated arrays (None
        for no rows), kept read-only, with no copy and no scan.  A right-hand
        side that overflowed on a huge point fails a dot-product screen and
        goes through the constructor, which raises its error."""
        empty = np.zeros((0, n)), np.zeros(0)
        A, b = empty if ineq_lhs is None else (ineq_lhs, ineq_rhs)
        E, d = empty if eq_lhs is None else (eq_lhs, eq_rhs)
        if not math.isfinite(b @ b + d @ d):
            return cls(n, ineq_lhs=A, ineq_rhs=b, eq_lhs=E, eq_rhs=d)
        return object.__new__(cls)._keep(n, A, b, E, d)

    @property
    def num_ineq(self) -> int:
        return self.ineq_lhs.shape[0]

    @property
    def num_eq(self) -> int:
        return self.eq_lhs.shape[0]

    def contains(self, x, tol: float = 1e-9) -> bool:
        """Membership within slack `tol` on every row."""
        return _satisfies_rows(self, _as_vector(x, self.ambient_dim, "x"), tol)

    def box_bounds(self):
        """(lo, hi) coordinate bounds when every row has exactly one nonzero
        coefficient, else None (a zero row included); a set without rows is
        unbounded.  An inequality row bounds its coordinate from one side
        and an equality row from both, each bound the tightest of its rows'
        `rhs / coefficient`.  Computed once per set, with no loop over the
        rows, and kept in the set's cache; `optkernel` alone reads it, where
        `feasible_witness` decides a box's emptiness and point.
        """
        if "box" not in self._cache:
            rows = np.concatenate([self.ineq_lhs, self.eq_lhs])
            bounds = None
            # one nonzero coefficient per row: as many as there are rows,
            # and no row without one; a row's sum is that coefficient
            if np.count_nonzero(rows) == len(rows) and rows.any(axis=1).all():
                value = (np.concatenate([self.ineq_rhs, self.eq_rhs]) / rows.sum(axis=1))[:, None]
                both = (np.arange(len(rows)) >= self.num_ineq)[:, None] & (rows != 0)
                columns = np.arange(self.ambient_dim)
                bounds = []
                # each row's bound sits in its coordinate's column, +-inf
                # elsewhere; the first row of a column to attain its tightest
                # value sets the bound, so of 0.0 and -0.0 it keeps the sign
                # that a loop of max() or min() over the rows in order would
                for side, fill, first in (((rows < 0) | both, -np.inf, np.argmax),
                                          ((rows > 0) | both, np.inf, np.argmin)):
                    table = np.where(side, value, fill)
                    bounds.append(table[first(table, axis=0), columns] if len(rows)
                                  else np.full(columns.size, fill))
                bounds = tuple(bounds)
            self._cache["box"] = bounds
        return self._cache["box"]

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

    x must be a finite float vector of length `S.ambient_dim`, validated
    where it entered the program.  Finite rows and a finite x can still give
    non-finite residuals: a row whose products overflow has residual +inf or
    -inf, compared like any other, and one whose products overflow both ways
    has residual NaN, which counts as a violation.  The test compares Python
    floats, whose max and min skip a NaN that is not first, so each block is
    also tested by the sum of its residuals: that sum is NaN when one
    residual is, and otherwise only when it meets residuals of +-inf or
    near the float limit, of which a row fails anyway.
    """
    if S.num_eq:
        values = (S.eq_lhs.dot(x) - S.eq_rhs).tolist()
        if max(values) > tol or -min(values) > tol or math.isnan(sum(values)):
            return False
    if S.num_ineq:
        values = (S.ineq_lhs.dot(x) - S.ineq_rhs).tolist()
        if max(values) > tol or math.isnan(sum(values)):
            return False
    return True


def box(lo, hi) -> PolyhedralSet:
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = lo.size
    A = np.vstack([np.eye(n), -np.eye(n)])
    b = np.concatenate([hi, -lo])
    return PolyhedralSet(n, ineq_lhs=A, ineq_rhs=b)
