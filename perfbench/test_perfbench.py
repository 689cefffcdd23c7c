"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import pace
import run
import tracing
import workloads

with open(os.path.join(run.HERE, "reference.json"), encoding="utf-8") as _handle:
    REFERENCE = json.load(_handle)["workloads"]
with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)

# One small pool task per workload, and the per-layer metrics that must be
# nonzero (or zero) when only that task runs.
SMALL_TASK = {"preimage": 0, "error_bound": 8, "solver_tail": 0, "multifunction": 5}
WORKING = {
    "preimage": [
        "optkernel.solve_feasibility.calls", "optkernel.lu_factor.calls",
        "polyhedra.is_nonempty.calls", "polyhedra.enumerate_vertices.calls",
        "polyhedra.cone_generators.calls", "avi.inverse_residual.calls",
        "avi.patterns_examined", "avi.pieces_kept",
        "bounds.verify_upper_lipschitz_inverse.self_s", "instgen.generate_random_avi.s",
    ],
    "error_bound": [
        "optkernel.solve_feasibility.calls", "optkernel.solve_projection_qp.calls",
        "optkernel.lu_factor.calls", "polyhedra.is_nonempty.calls",
        "polyhedra.distance.calls", "avi.inverse_residual.calls", "avi.residual.calls",
        "avi.is_solution.calls", "bounds.verify_error_bound.self_s",
        "bounds.samples_per_s", "bounds.geometry_s", "instgen.generate_random_avi.s",
    ],
    "solver_tail": [
        "optkernel.solve_feasibility.calls", "optkernel.solve_projection_qp.calls",
        "optkernel.lu_factor.calls", "avi.residual.calls", "solvers.solve.calls",
        "solvers.iterations", "instgen.generate_random_avi.s",
    ],
    "multifunction": [
        "optkernel.solve_lp.calls", "optkernel.solve_feasibility.calls",
        "optkernel.solve_projection_qp.calls", "optkernel.lu_factor.calls",
        "polyhedra.enumerate_vertices.calls", "polyhedra.hausdorff.calls",
        "polyhedra.distance.calls", "gpm.gap_primal.calls", "gpm.gap_dual.calls",
        "gpm.domain_contains.calls", "gpm.estimate_lipschitz_modulus.self_s",
        "gpm.pairs_used_frac",
    ],
}
IDLE = {
    "preimage": ["optkernel.solve_lp.calls", "solvers.solve.calls", "gpm.gap_primal.calls"],
    "error_bound": ["solvers.solve.calls", "gpm.gap_primal.calls"],
    "solver_tail": ["optkernel.solve_lp.calls", "avi.inverse_residual.calls"],
    "multifunction": ["avi.inverse_residual.calls", "avi.residual.calls",
                      "avi.is_solution.calls", "solvers.solve.calls"],
}
DETERMINISTIC = ("avi.patterns_examined", "avi.pieces_kept", "solvers.iterations")


def traced(name, indices):
    workload = workloads.WORKLOADS[name]
    latencies, failures, metrics, _, _ = run.measure_traced(
        workload, list(indices), REFERENCE[name]
    )
    assert failures == []
    assert len(latencies) == 2 * len(indices)
    return {key: value for key, (value, _) in metrics.items()}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_task_reaches_every_working_layer(name):
    metrics = traced(name, [SMALL_TASK[name]])
    assert [key for key in WORKING[name] if not metrics[key] > 0] == []
    assert [key for key in IDLE[name] if metrics[key] != 0] == []


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_counts_repeat_for_one_seed(name):
    indices = workloads.sequence(workloads.WORKLOADS[name].pool_size, 7, 2)
    first, second = traced(name, indices), traced(name, indices)
    keys = [k for k in first if k.endswith(".calls") or k in DETERMINISTIC]
    assert {k: first[k] for k in keys} == {k: second[k] for k in keys}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_seed_chooses_the_inputs(name):
    workload = workloads.WORKLOADS[name]
    longest = run.MAX_PASSES * workload.pool_size
    assert workloads.sequence(workload.pool_size, 3, longest) == \
        workloads.sequence(workload.pool_size, 3, longest)
    for length in (workload.pool_size, longest):
        assert workloads.sequence(workload.pool_size, 3, length) != \
            workloads.sequence(workload.pool_size, 4, length)


def test_tracer_restores_every_binding():
    modules = [m for k, m in sys.modules.items() if k.startswith("avibound.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    geometry = vars(sys.modules["avibound.bounds"].SolutionGeometry)["from_instance"]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert sys.modules["avibound.gpm"].solve_lp is not before[("avibound.gpm", "solve_lp")]
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after == before
    assert vars(sys.modules["avibound.bounds"].SolutionGeometry)["from_instance"] is geometry


def test_reference_covers_every_pool_task_without_errors():
    for name, workload in workloads.WORKLOADS.items():
        outcomes = REFERENCE[name]
        assert sorted(outcomes, key=int) == [str(i) for i in range(workload.pool_size)]
        assert not [i for i, o in outcomes.items() if "raised" in o or o.get("invariants") is False]


def test_check_flags_each_kind_of_mismatch():
    ref = {"verdict": True, "constant": 2.0, "point": [1.0, 0.0]}
    assert workloads.check(dict(ref), ref) == []
    assert workloads.check({**ref, "constant": 2.0 * (1 + 1e-7)}, ref) == []
    assert workloads.check({**ref, "constant": 2.0 * (1 + 1e-5)}, ref) == ["constant"]
    assert workloads.check({**ref, "constant": None}, ref) == ["constant"]
    assert workloads.check({**ref, "verdict": False}, ref) == ["verdict"]
    assert workloads.check({**ref, "point": [1.0, 1e-3]}, ref) == ["point"]
    assert workloads.check({"invariants": False}, {"invariants": True}) == ["invariants"]
    assert workloads.check({"verdict": True}, ref) == ["fields"]


def test_pace_kernel_solves_its_programs():
    from scipy.optimize import linprog

    for a, b, c in pace._LPS:
        assert pace._simplex(a, b, c) == pytest.approx(linprog(c, A_eq=a, b_eq=b).fun)


def test_pace_rescales_to_reference_speed():
    ref = pace.REFERENCE_S
    assert pace.scaled(2.0, ref, ref) == pytest.approx(2.0)
    assert pace.scaled(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert pace.scaled(2.0, 0.5 * ref, 1.5 * ref) == pytest.approx(2.0)
    assert pace.measure() > 0


def test_metric_names_match_benchmark_json():
    workload = workloads.WORKLOADS["multifunction"]
    indices = workloads.sequence(workload.pool_size, 1, workload.pool_size)
    _, _, end_to_end, _ = run.measure(workload, indices, 1e-3, REFERENCE["multifunction"])
    assert list(end_to_end) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert [u for _, u in end_to_end.values()] == [m["unit"] for m in BENCHMARK["end_to_end"]]
    per_layer = traced("multifunction", [SMALL_TASK["multifunction"]])
    assert list(per_layer) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert sorted(BENCHMARK["paths"]) == ["perfbench"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "preimage", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
