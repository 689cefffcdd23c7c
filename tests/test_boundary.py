"""Arrays are validated once, where they enter the program.

Every public entry that takes a vector or rows raises, for a non-finite
entry, a wrong length, a wrong shape or a finite point whose products
overflow, the error class and message it raised when each construction
validated its arrays again (`QpProjectionProblem` around every projection
target, and every set the program built).  `RECORDED` is that code's
outcome for each case, None where it raised nothing: a column of the right
length is flattened.
"""

import math

import numpy as np
import pytest

from avibound import gpm, solvers
from avibound.avi import AviInstance, inverse_residual, is_solution, residual
from avibound.optkernel import solve_lp, solve_projection_qp
from avibound.polyhedra import PolyhedralSet, cone_generators, distance


def _triangle():
    # {x1 + x2 <= 1, x >= 0}, a fresh set each time: not a box, so the
    # projection runs its active-set loop, and no cell is kept yet
    return PolyhedralSet(2, ineq_lhs=[[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                         ineq_rhs=[1.0, 0.0, 0.0])


def _instance():
    return AviInstance(m_op=[[2.0, 0.5], [-0.5, 1.0]], q=[-1.0, 0.25], c_set=_triangle())


def _multifunction():
    return gpm.GpMultifunction(input_dim=2, output_dim=2, a1=[[1.0, 0.0]], a2=[[0.0, 1.0]],
                               z=[0.5], row_x=[[1.0, 1.0]], row_y=[[1.0, -1.0]], rhs=[2.0])


VECTOR_ENTRIES = {
    "solve_projection_qp target": lambda v: solve_projection_qp(_triangle(), v),
    "residual": lambda v: residual(_instance(), v),
    "is_solution": lambda v: is_solution(_instance(), v),
    "inverse_residual": lambda v: inverse_residual(_instance(), v),
    "distance": lambda v: distance(_triangle(), v),
    "solvers.solve x0": lambda v: solvers.solve(_instance(), solvers.SolverConfig(x0=v)),
    "solve_lp objective": lambda v: solve_lp(_triangle(), v),
    "gpm.evaluate": lambda v: gpm.evaluate(_multifunction(), v),
    "gpm.gap_primal": lambda v: gpm.gap_primal(_multifunction(), v),
    "gpm.gap_dual": lambda v: gpm.gap_dual(_multifunction(), v),
}

VECTORS = {
    "nan": [0.25, math.nan],
    "inf": [0.25, math.inf],
    "-inf": [-math.inf, 0.25],
    "length": [0.1, 0.2, 0.3],
    "shape": [[0.1, 0.2], [0.3, 0.4]],
    "column": [[0.1], [0.2]],
    "huge": [1.5e308, 1.5e308],
}

ROWS = {
    "ineq_lhs nan": dict(ineq_lhs=[[1.0, math.nan]], ineq_rhs=[1.0]),
    "ineq_rhs inf": dict(ineq_lhs=[[1.0, 0.0]], ineq_rhs=[math.inf]),
    "eq_lhs -inf": dict(eq_lhs=[[-math.inf, 1.0]], eq_rhs=[0.0]),
    "eq_rhs nan": dict(eq_lhs=[[1.0, 1.0]], eq_rhs=[math.nan]),
    "ineq_rhs length": dict(ineq_lhs=[[1.0, 0.0]], ineq_rhs=[1.0, 2.0]),
    "eq_rhs length": dict(eq_lhs=[[1.0, 0.0], [0.0, 1.0]], eq_rhs=[1.0]),
    "ineq_lhs columns": dict(ineq_lhs=[[1.0, 0.0, 0.0]], ineq_rhs=[1.0]),
    "eq_lhs shape": dict(eq_lhs=[[[1.0, 0.0]]], eq_rhs=[1.0]),
    "ineq_lhs vector": dict(ineq_lhs=[1.0, 0.0], ineq_rhs=[1.0]),
}

_NON_FINITE = {
    "solve_projection_qp target": "target",
    "residual": "x", "is_solution": "x", "inverse_residual": "y", "distance": "target",
    "solvers.solve x0": "x0", "solve_lp objective": "objective", "gpm.evaluate": "x",
    "gpm.gap_primal": "x", "gpm.gap_dual": "x",
}

# A finite point whose products overflow: an entry raises where an array it
# computes from the point is no longer finite, and otherwise computes on
HUGE = {
    "residual": ("ValueError", "target contains non-finite entries"),
    "solvers.solve x0": ("ValueError", "target contains non-finite entries"),
    "is_solution": ("ValueError", "objective contains non-finite entries"),
    "inverse_residual": ("ValueError", "eq_rhs contains non-finite entries"),
    "gpm.evaluate": ("ValueError", "ineq_rhs contains non-finite entries"),
    "gpm.gap_primal": ("ValueError", "ineq_rhs contains non-finite entries"),
}

RECORDED = {}
for _entry, _name in _NON_FINITE.items():
    RECORDED.update({
        (_entry, "nan"): ("ValueError", f"{_name} contains non-finite entries"),
        (_entry, "inf"): ("ValueError", f"{_name} contains non-finite entries"),
        (_entry, "-inf"): ("ValueError", f"{_name} contains non-finite entries"),
        (_entry, "length"): ("DimensionMismatch", f"{_name}: expected length 2, got (3,)"),
        (_entry, "shape"): ("DimensionMismatch", f"{_name}: expected length 2, got (4,)"),
        (_entry, "column"): None,
        (_entry, "huge"): HUGE.get(_entry),
    })
RECORDED.update({
    ("PolyhedralSet", "ineq_lhs nan"): ("ValueError", "ineq_lhs contains non-finite entries"),
    ("PolyhedralSet", "ineq_rhs inf"): ("ValueError", "ineq_rhs contains non-finite entries"),
    ("PolyhedralSet", "eq_lhs -inf"): ("ValueError", "eq_lhs contains non-finite entries"),
    ("PolyhedralSet", "eq_rhs nan"): ("ValueError", "eq_rhs contains non-finite entries"),
    ("PolyhedralSet", "ineq_rhs length"):
        ("DimensionMismatch", "ineq_rhs: expected length 1, got (2,)"),
    ("PolyhedralSet", "eq_rhs length"):
        ("DimensionMismatch", "eq_rhs: expected length 2, got (1,)"),
    ("PolyhedralSet", "ineq_lhs columns"):
        ("DimensionMismatch", "ineq_lhs: expected shape (*, 2), got (1, 3)"),
    ("PolyhedralSet", "eq_lhs shape"):
        ("DimensionMismatch", "eq_lhs: expected shape (*, 2), got (1, 1, 2)"),
    ("PolyhedralSet", "ineq_lhs vector"):
        ("DimensionMismatch", "ineq_lhs: expected shape (*, 2), got (2,)"),
})


def outcome(entry, case):
    """(error class name, message) that the entry raises on the case, or
    None when it raises nothing."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if entry == "PolyhedralSet":
                PolyhedralSet(2, **ROWS[case])
            else:
                VECTOR_ENTRIES[entry](np.array(VECTORS[case]))
    except Exception as exc:  # the class itself is what the test compares
        return type(exc).__name__, str(exc)
    return None


def test_every_entry_and_case_is_recorded():
    cases = {(entry, case) for entry in VECTOR_ENTRIES for case in VECTORS}
    cases |= {("PolyhedralSet", case) for case in ROWS}
    assert cases == set(RECORDED)


@pytest.mark.parametrize("entry,case", sorted(RECORDED), ids=lambda v: str(v))
def test_entry_raises_the_recorded_error(entry, case):
    assert outcome(entry, case) == RECORDED[(entry, case)]


def test_a_list_target_is_converted():
    # the projection and the LP take float arrays, and convert what is not
    # one
    S = _triangle()
    z = solve_projection_qp(S, [2.0, 2.0])
    assert z.tobytes() == solve_projection_qp(_triangle(), np.array([2.0, 2.0])).tobytes()
    assert solve_projection_qp(S, [0, 0]).dtype == float
    lp = solve_lp(S, [1, 2])
    same = solve_lp(_triangle(), np.array([1.0, 2.0]))
    assert (lp.value, lp.point.tobytes()) == (same.value, same.point.tobytes())


def test_cells_that_overflow_raise_the_recorded_error():
    # subnormal data pass the boundary, and the pseudo-inverse of a cell's
    # K overflows; the stacked cells then go through the validating
    # constructor, which raised this when every cell was validated
    tiny = 1e-310
    inst = AviInstance(m_op=[[tiny]], q=[0.0],
                       c_set=PolyhedralSet(1, ineq_lhs=[[-tiny]], ineq_rhs=[0.0]))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with pytest.raises(ValueError, match="^ineq_lhs contains non-finite entries$"):
            inverse_residual(inst, [0.5])


# `cone_generators` validates its rows where they enter, as a matrix.
# Unlike the cases above these are not the old code's outcomes: it raised
# an untyped IndexError for a vector and read a stack of matrices as one.
CONE_ROWS = {
    "vector": ([1.0, 2.0], ("DimensionMismatch", "rows: expected shape (*, 2), got (2,)")),
    "stack": ([[[1.0]]], ("DimensionMismatch", "rows: expected shape (*, 1), got (1, 1, 1)")),
    "nan": ([[1.0, math.nan]], ("ValueError", "rows contains non-finite entries")),
    "inf": ([[math.inf, 0.0], [0.0, 1.0]], ("ValueError", "rows contains non-finite entries")),
    "list": ([[1.0, 0.0], [0.0, 1.0]], None),
}


@pytest.mark.parametrize("case", sorted(CONE_ROWS))
def test_cone_generators_take_a_matrix(case):
    rows, expected = CONE_ROWS[case]
    try:
        cone_generators(rows)
    except Exception as exc:  # the class itself is what the test compares
        assert (type(exc).__name__, str(exc)) == expected
    else:
        assert expected is None
