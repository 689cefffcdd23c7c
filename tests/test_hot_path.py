"""The projection's hot path against the forms it replaced.

`sets._satisfies_rows`, the screen and kept-cell lookup of
`optkernel.solve_projection_qp`, `avi.residual` and the loop of
`solvers.solve` run once per projection or once per iterate.  Their vector
products are `ndarray.dot` calls, and their row, multiplier and slack tests
compare Python floats.  The tests here hold them to the forms they replaced:

- every `_satisfies_rows` call and every lookup decision of one pass over
  each benchmark pool, and hand-built cases at the edges (products that
  overflow to +-inf or to NaN, empty row blocks, a residual or a margin met
  exactly, -0.0, a cell with no inequality row), give the verdicts of
  numpy's reductions (`reference_oracles.satisfies_rows_reduction` and
  `cell_lookup_reduction`), in which a NaN residual, multiplier or slack
  never passes, and a hit returns the oracle's bits;
- the projection neither returns its target nor a non-finite point where
  a row's products overflow;
- `ndarray.dot` gives the bits of `@` on the operand layouts the hot path
  uses, so a numpy or BLAS upgrade that breaks that fails here by name, not
  as a changed digest in `tests/data/projection_sha256.json`;
- the screens of the projection's target and of `residual`'s point, and
  the LP, copy a strided vector into C order, so that it gets the bits of
  the contiguous array.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from reference_oracles import cell_lookup_reduction, satisfies_rows_reduction

from avibound import (
    EmptySet,
    NumericalBreakdown,
    PolyhedralSet,
    avi,
    optkernel,
    polyhedra,
    sets,
    solvers,
)
from avibound.avi import residual
from avibound.instgen import generate_random_avi
from avibound.optkernel import FEAS_TOL

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

_POOLS = (workloads.Preimage, workloads.ErrorBound, workloads.SolverTail,
          workloads.Multifunction)


class _Record:
    """What `_recording` saw: `rows` holds (verdict, oracle's verdict) of
    every `_satisfies_rows` call; `lookups` holds (hit, oracle's hit) of
    every kept cell a projection tried, and `points` (result, oracle's
    point) of every hit."""

    def __init__(self):
        self.rows, self.lookups, self.points = [], [], []
        self.tried = self.loops = 0


def _recording(patch):
    """Patch the kernel so that every `_satisfies_rows` call and every
    projection's lookup is recorded with the oracle's verdict.  The lookup's
    decisions are read off the calls it makes: one potrs per kept cell it
    tries, and a hit on the last cell tried unless the dual loop then runs
    (its first step is a Gram solve)."""
    record = _Record()
    satisfies, potrs = sets._satisfies_rows, optkernel._potrs
    gram, project = optkernel._gram_solve, optkernel.solve_projection_qp

    def recording_rows(S, x, tol):
        verdict = satisfies(S, x, tol)
        record.rows.append((verdict, satisfies_rows_reduction(S, x, tol)))
        return verdict

    def counting_potrs(U, rhs):
        if sys._getframe(1).f_code.co_name == "solve_projection_qp":
            record.tried += 1
        return potrs(U, rhs)

    def counting_gram(G, rhs):
        record.loops += 1
        return gram(G, rhs)

    def recording_projection(S, u):
        cells = S._cache.get("cells", ())
        record.tried = record.loops = 0
        z = project(S, u)
        target = np.array(u, dtype=float).reshape(-1)
        hit = record.tried > 0 and record.loops == 0
        assert record.loops == 0 or record.tried == len(cells), "the loop ran before every cell failed"
        for rank in range(record.tried):
            w = cell_lookup_reduction(cells[rank], target, S.num_eq)
            record.lookups.append((hit and rank == record.tried - 1, w is not None))
            if hit and rank == record.tried - 1 and w is not None:
                record.points.append((z.tobytes(), w.tobytes()))
        return z

    for module in (sets, optkernel, avi):
        patch.setattr(module, "_satisfies_rows", recording_rows)
    patch.setattr(optkernel, "_potrs", counting_potrs)
    patch.setattr(optkernel, "_gram_solve", counting_gram)
    for module in (avi, optkernel, polyhedra, solvers):
        patch.setattr(module, "solve_projection_qp", recording_projection)
    return record


@pytest.mark.parametrize("pool", _POOLS, ids=lambda cls: cls.name)
def test_pool_verdicts_match_the_reductions(pool):
    # a pass makes 1,832 row tests on preimage (no lookup), and 4,328, 7,361
    # and 1,224 on error_bound, solver_tail and multifunction, whose
    # lookups try 1,779, 6,421 and 407 kept cells and hit 1,069, 5,985 and 97
    pool = pool()
    with pytest.MonkeyPatch.context() as patch:
        record = _recording(patch)
        for index in range(pool.pool_size):
            pool.run(index, pool.build(index))
    assert {new for new, _ in record.rows} == {True, False}
    assert [i for i, (new, old) in enumerate(record.rows) if new != old] == []
    assert [i for i, (new, old) in enumerate(record.lookups) if new != old] == []
    assert len(record.points) == sum(new for new, _ in record.lookups)
    assert all(z == w for z, w in record.points)
    if pool.name != "preimage":
        assert {new for new, _ in record.lookups} == {True, False}


_BIG = 1e300
# At X every product of a 1e300 overflows.  On _INF the sum is +inf (-inf at
# -X); on _NAN, BLAS sums the products in separate lanes, which overflow to
# +inf and -inf, and the residual is NaN.
_X = [1e10] * 4
_INF, _NAN, _ONE = [_BIG, 0.0, 0.0, 0.0], [_BIG, _BIG, -_BIG, 0.0], [1.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("rows, eq_rows, x, tol, expected", [
    # residuals of +inf fail, of -inf hold
    ([_INF], None, _X, 1e-9, False),
    ([_INF], None, [-1e10] * 4, 1e-9, True),
    # a NaN residual fails its block wherever it sits
    ([_ONE, _NAN], None, _X, 1e-9, False),
    ([_NAN, _ONE], None, _X, 1e-9, False),
    ([_ONE, _INF, _NAN], None, _X, 1e-9, False),
    # ... and whichever block it is in
    ([_ONE], [_NAN, _ONE], _X, 1e-9, False),
    ([_NAN, _ONE], [_ONE], _X, 1e-9, False),
    # equality rows: +-inf and NaN fail
    (None, [_INF], [-1e10] * 4, 1e-9, False),
    (None, [_ONE, _NAN], _X, 1e-9, False),
    (None, [_NAN, _ONE], _X, 1e-9, False),
    # empty row blocks
    (None, None, [5.0, -5.0, 0.0, 0.0], 0.0, True),
    ([_ONE], None, [0.5, 0.0, 0.0, 0.0], 1.0, True),
    (None, [_ONE], [-1.5, 0.0, 0.0, 0.0], 1.0, False),
    # residuals exactly at tol hold, the next float beyond fails
    ([_ONE], None, [0.25, 0.0, 0.0, 0.0], 0.25, True),
    ([_ONE], None, [math.nextafter(0.25, 1.0), 0.0, 0.0, 0.0], 0.25, False),
    (None, [_ONE], [-0.25, 0.0, 0.0, 0.0], 0.25, True),
    (None, [_ONE], [math.nextafter(-0.25, -1.0), 0.0, 0.0, 0.0], 0.25, False),
    # -0.0 entries and residuals, at a zero tol and at -0.0
    ([[-0.0, 1.0, 0.0, -0.0]], [[1.0, -0.0, 0.0, 0.0]], [-0.0] * 4, 0.0, True),
    ([_ONE], [_ONE], [-0.0, 0.0, 0.0, 0.0], -0.0, True),
    (None, [[-1.0, 0.0, 0.0, 0.0]], [-0.0, 0.0, 0.0, 0.0], -1e-300, False),
])
def test_row_test_edges(rows, eq_rows, x, tol, expected):
    S = PolyhedralSet(4, ineq_lhs=rows, ineq_rhs=None if rows is None else [0.0] * len(rows),
                      eq_lhs=eq_rows, eq_rhs=None if eq_rows is None else [0.0] * len(eq_rows))
    x = np.array(x)
    with np.errstate(over="ignore", invalid="ignore"):
        assert satisfies_rows_reduction(S, x, tol) is expected
        assert sets._satisfies_rows(S, x, tol) is expected


def test_row_test_matches_the_reduction_on_overflowing_draws():
    # rows and points drawn from values whose products overflow, vanish or
    # cancel, so residuals of +-inf and NaN land at every position
    rng = np.random.default_rng(43)
    entries = np.array([0.0, -0.0, 1.0, -1.0, 3.0, _BIG, -_BIG, 1e-300])
    coordinates = np.array([0.0, -0.0, 1.0, -2.0, 1e10, -1e10])
    verdicts, nan_blocks = set(), 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3000):
            n, k, l = rng.integers(1, 7), rng.integers(0, 5), rng.integers(0, 3)
            S = PolyhedralSet(n, ineq_lhs=rng.choice(entries, (k, n)),
                              ineq_rhs=rng.choice([0.0, 1.0, -1.0], k),
                              eq_lhs=rng.choice(entries, (l, n)), eq_rhs=rng.choice([0.0, 1.0], l))
            x = rng.choice(coordinates, n)
            nan_blocks += bool(np.isnan(S.ineq_lhs.dot(x)).any())
            for tol in (0.0, 1e-9, 1.0):
                verdict = sets._satisfies_rows(S, x, tol)
                assert verdict == satisfies_rows_reduction(S, x, tol), (S, x, tol)
                verdicts.add(verdict)
    assert verdicts == {True, False}
    assert nan_blocks >= 50


def _lookup(cell, *, with_eq=False):
    """(hit, oracle's hit) of one projection of the target 0 onto a set in
    R^4 whose only kept cell is `cell` (a tuple of `optkernel._cell`'s
    fields): 0 lies outside the set, which is not a box, so the lookup runs.
    With `with_eq` the set has one equality row, and `cell`'s working set
    holds it."""
    S = PolyhedralSet(4, ineq_lhs=[[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 0.0, 0.0]],
                      ineq_rhs=[-1.0, 5.0], eq_lhs=[[1.0, 2.0, 0.0, 0.0]] if with_eq else None,
                      eq_rhs=[-1.0] if with_eq else None)
    S._cache["cells"] = (cell,)
    with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore", invalid="ignore"):
        record = _recording(patch)
        optkernel.solve_projection_qp(S, np.zeros(4))
    assert len(record.lookups) == 1
    assert all(z == w for z, w in record.points)
    return record.lookups[0]


def _cell(h, G=(_ONE,), floor=1.0, outside=([0.0] * 4,), room=(1.0,), longest=1.0):
    """A hand-built kept cell with the identity as its Cholesky factor, so
    that at the target 0 its multipliers are nu = -h and its point -nu G."""
    G = np.array(G)
    return (b"hand-built", G, np.array(h, dtype=float), np.eye(G.shape[0]), floor,
            np.array(outside, dtype=float).reshape(-1, 4), np.array(room, dtype=float), longest)


_TWO_ROWS = (_ONE, [0.0, 1.0, 0.0, 0.0])
_ZERO_ROWS = ([0.0] * 4, [0.0] * 4)
_EQ_ROW = ([1.0, 2.0, 0.0, 0.0],)
_MARGIN = FEAS_TOL + 1.0 * math.sqrt(FEAS_TOL * 2.0)  # the margin of multipliers summing to 2


@pytest.mark.parametrize("cell, with_eq, expected", [
    (_cell([-2.0]), False, True),
    # a multiplier exactly at the floor fails, the next float above passes
    (_cell([-2.0], floor=2.0), False, False),
    (_cell([-2.0], floor=math.nextafter(2.0, 0.0)), False, True),
    (_cell([0.0], floor=0.0), False, False),
    (_cell([0.0], floor=-0.0), False, False),
    # two multipliers, one below the floor, at either place
    (_cell([-2.0, -0.5], G=_TWO_ROWS), False, False),
    (_cell([-0.5, -2.0], G=_TWO_ROWS), False, False),
    # NaN and infinite multipliers (potrs spreads a NaN to every entry)
    (_cell([np.nan]), False, False),
    (_cell([-2.0, np.nan], G=_TWO_ROWS, outside=(), room=()), False, False),
    (_cell([-np.inf], outside=(), room=()), False, True),
    (_cell([-np.inf]), False, False),
    (_cell([-2.0, -np.inf], G=_TWO_ROWS, outside=(), room=()), False, False),
    # slack exactly at the margin fails, the next float above passes
    (_cell([-2.0], room=(_MARGIN,)), False, False),
    (_cell([-2.0], room=(math.nextafter(_MARGIN, 1.0),)), False, True),
    (_cell([-2.0], outside=_ZERO_ROWS, room=(5.0, -0.0)), False, False),
    # a NaN slack fails the cell wherever it sits
    (_cell([-2.0], outside=_ZERO_ROWS, room=(5.0, np.nan)), False, False),
    (_cell([-2.0], outside=_ZERO_ROWS, room=(np.nan, 5.0)), False, False),
    # at the point -1e10 (1, 0, 0, 0), products of 1e300s overflow: slack
    # +inf passes, -inf fails, and NaN fails in either place
    (_cell([-1e10], outside=(_INF,), room=(0.0,)), False, True),
    (_cell([-1e10], outside=([-_BIG, 0.0, 0.0, 0.0],), room=(0.0,)), False, False),
    (_cell([-1e10], G=([1.0] * 4,), outside=([0.0] * 4, _NAN), room=(5.0, 5.0)), False, False),
    (_cell([-1e10], G=([1.0] * 4,), outside=(_NAN, [0.0] * 4), room=(5.0, 5.0)), False, False),
    (_cell([-1e10], outside=([0.0] * 4, _INF), room=(5.0, 5.0)), False, True),
    # no row outside the working set
    (_cell([-2.0], outside=(), room=()), False, True),
    # the working set holds only the equality row: no multiplier to test
    (_cell([1.0], G=_EQ_ROW), True, True),
    (_cell([1.0], G=_EQ_ROW, floor=np.nan, outside=(), room=()), True, True),
    (_cell([1.0], G=_EQ_ROW, outside=(), room=(), longest=np.inf), True, True),
    (_cell([1.0], G=_EQ_ROW, longest=np.inf), True, False),
    (_cell([1.0], G=_EQ_ROW, room=(FEAS_TOL,)), True, False),
    (_cell([1.0], G=_EQ_ROW, room=(math.nextafter(FEAS_TOL, 1.0),)), True, True),
])
def test_lookup_edges(cell, with_eq, expected):
    assert _lookup(cell, with_eq=with_eq) == (expected, expected)


def test_lookup_matches_the_reduction_on_overflowing_draws():
    rng = np.random.default_rng(4343)
    values = np.array([0.0, -0.0, 1.0, -1.0, -2.0, 1e-300, -1e10, _BIG, -_BIG,
                       np.inf, -np.inf, np.nan])
    outcomes = set()
    for _ in range(400):
        k, outside = rng.integers(1, 3), rng.integers(0, 4)
        cell = _cell(rng.choice(values, k), G=rng.choice(values[:9], (k, 4)),
                     floor=rng.choice([0.0, 1e-3, 1.0, np.inf, np.nan]),
                     outside=rng.choice(values[:9], (outside, 4)), room=rng.choice(values, outside),
                     longest=rng.choice([1.0, _BIG, np.inf]))
        new, old = _lookup(cell, with_eq=k == 1 and bool(rng.integers(0, 2)))
        assert new == old, cell
        outcomes.add(new)
    assert outcomes == {True, False}


def _operands(rng):
    """Operands of the hot path's products, at one size and scale: a C-contiguous
    block of rows, a target, a multiplier vector, and row slices of a larger
    read-only block."""
    k, n = rng.integers(1, 13), rng.integers(1, 13)
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    rows = rng.standard_normal((k + 2, n)) * scale
    rows.setflags(write=False)
    return rows[1:-1].copy(), rng.standard_normal(n) * scale, rng.standard_normal(k) * scale, rows


def test_dot_gives_the_bits_of_matmul():
    rng = np.random.default_rng(20431)
    for trial in range(3000):
        G, u, nu, block = _operands(rng)
        pairs = {
            "G.dot(u), G @ u (C-contiguous rows)": (G.dot(u), G @ u),
            "nu.dot(G), G.T @ nu": (nu.dot(G), G.T @ nu),
            "u.dot(u), u @ u": (u.dot(u), u @ u),
            "a row slice": (block[1:-1].dot(u), block[1:-1] @ u),
            "one row": (block[0].dot(u), block[0] @ u),
            "read-only rows": (block.dot(u), block @ u),
            "read-only rows, nu.dot": (nu.dot(block[1:-1]), block[1:-1].T @ nu),
        }
        for form, (dot, matmul) in pairs.items():
            assert np.asarray(dot).tobytes() == np.asarray(matmul).tobytes(), (
                f"ndarray.dot and @ differ on {form} (trial {trial}, shape {G.shape}, numpy "
                f"{np.__version__}): the projection's pinned bits assume they agree")


def test_residual_screens_its_point():
    # a strided x, a list or a row fails the screen and is copied into C
    # order by `_as_vector`: each gets the bits of the contiguous x
    inst = generate_random_avi(n=9, m=7, monotonicity="indefinite", seed=43)
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.standard_normal(9) * 10.0 ** rng.uniform(-3.0, 3.0)
        stored = np.zeros(18)
        stored[::2] = x
        want = residual(inst, x)
        for same in (stored[::2], list(x), x.reshape(1, 9)):
            got = residual(inst, same)
            assert got.r.tobytes() == want.r.tobytes()
            assert got.projected_point.tobytes() == want.projected_point.tobytes()
            assert got.norm == want.norm
    for bad in ([1.0, np.nan] + [0.0] * 7, [1e200, 1e200, np.inf] + [0.0] * 6):
        with pytest.raises(ValueError, match="x contains non-finite entries"), \
                np.errstate(over="ignore"):
            residual(inst, np.array(bad))


@pytest.mark.parametrize("rows", [[_ONE, _NAN], [_NAN, _ONE], [_NAN]],
                         ids=["one-then-nan", "nan-then-one", "nan-alone"])
def test_overflowing_rows_never_pass_for_the_projection(rows):
    # at X the row _ONE is violated by 1e10 and the products of _NAN
    # overflow: to NaN beside _ONE, and to +inf alone with this BLAS.  The
    # target lies outside the set, and the loop's arithmetic on these rows
    # is not finite, so the projection raises: it returns neither the
    # target nor a NaN point
    S = PolyhedralSet(4, ineq_lhs=rows, ineq_rhs=[0.0] * len(rows))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises((NumericalBreakdown, EmptySet)):
        optkernel.solve_projection_qp(S, np.array(_X))


def _strided(x):
    """x stored at every other entry of a larger array: a view that is not
    C-contiguous."""
    stored = np.zeros(2 * x.size)
    stored[::2] = x
    return stored[::2]


def test_a_vectors_memory_layout_keeps_its_bits():
    # 300 random 3-row sets in R^4-R^8 (two copies of each, so that neither
    # projection sees the other's cells), 5 targets each, projected as a
    # strided view and as its contiguous copy: 240 of the 1,500 differed
    # while the screen passed a strided target uncopied
    rng = np.random.default_rng(167)
    for _ in range(300):
        n = int(rng.integers(4, 9))
        rows, rhs = rng.standard_normal((3, n)), rng.uniform(0.1, 1.0, 3)
        S, twin = (PolyhedralSet(n, ineq_lhs=rows, ineq_rhs=rhs) for _ in range(2))
        for _ in range(5):
            u = _strided(rng.standard_normal(n) * 10.0 ** rng.uniform(-1.0, 3.0))
            assert not u.flags.c_contiguous
            z = optkernel.solve_projection_qp(S, u)
            assert z.tobytes() == optkernel.solve_projection_qp(twin, u.copy()).tobytes()
    # an LP over a generated C, whose value differed on the 14th objective
    # while the LP passed a strided objective uncopied (`residual`'s strided
    # point is `test_residual_screens_its_point`'s)
    C = generate_random_avi(n=4, m=5, monotonicity="indefinite", seed=0).c_set
    rng = np.random.default_rng(0)
    for _ in range(20):
        c = _strided(rng.standard_normal(4) * 10.0 ** rng.uniform(-1.0, 3.0))
        assert _outcome(optkernel.solve_lp(C, c)) == _outcome(optkernel.solve_lp(C, c.copy()))


def _outcome(status):
    """An LP's status and value, and the bytes of its point and dual."""
    arrays = (status.point, status.dual)
    return status.status, status.value, [None if a is None else a.tobytes() for a in arrays]
