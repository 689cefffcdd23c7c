"""End-to-end benchmark of the avibound verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nowhere else.  The load is a closed loop: one
caller in one process runs the tasks of the workload serially, with every
library and BLAS thread count at 1.

With ``--trace 0`` the tasks run untraced for S seconds and the end-to-end
metrics are reported, in seconds at the reference speed of ``pace.py``.  With
``--trace 1`` one pass of the pool runs, each task once untraced and once
traced, and the per-layer metrics are reported; the spans are written to
``perfbench/out/``.  See ``perfbench/NOTES.md``.  Either way every task output
is checked against ``perfbench/reference.json``, and the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("preimage", "error_bound", "solver_tail", "multifunction")
SETUP_REPEATS = 5
WARMUP_PACES = 3
MAX_PASSES = 8

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, SRC)

try:
    import numpy
    import scipy

    import avibound
    import pace
    import tracing
    import workloads
    from avibound.errors import AviboundError
except ImportError as exc:
    IMPORT_ERROR = exc
else:
    IMPORT_ERROR = None

# Imports this process makes, timed in a fresh interpreter.
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); "
    "import numpy, scipy, avibound, pace, tracing, workloads; "
    "print(time.perf_counter() - start)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def build_all(workload, indices):
    return [workload.build(index) for index in indices]


def import_seconds() -> float:
    """Median time of SETUP_REPEATS imports of the program and the
    benchmark, each in a fresh interpreter.

    Wall time: importing is mostly file and loader work, which the machine's
    speed phases barely move, and the reference kernel run in this process
    does not see the speed of the CPU the fresh interpreter runs on.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(probe.stdout))
    return statistics.median(times)


def timed_setup(workload, indices):
    """Build the instances SETUP_REPEATS times; keep the last set.

    Returns (objects, median build seconds at reference speed).  The earlier
    sets are thrown away, so no object is ever shared between two runs of a
    task.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        before = pace.measure()
        start = time.perf_counter()
        objects = build_all(workload, indices)
        wall = time.perf_counter() - start
        times.append(pace.scaled(wall, before, pace.measure()))
    return objects, statistics.median(times)


def run_task(workload, index, obj, reference):
    """(latency seconds, problem or None) for one task."""
    start = time.perf_counter()
    try:
        outcome = workload.run(index, obj)
    except AviboundError as exc:
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    problems = workloads.check(outcome, reference[str(index)])
    return latency, (", ".join(problems) if problems else None)


def run_tasks(workload, indices, objects, reference, deadline):
    """Run tasks in order until done or past the deadline.

    Each object is dropped after its task, so caches filled by one task are
    freed before the next.  The reference kernel runs before the first task
    and after every task.  Returns (latencies, kernel times, end times,
    failures); task k ran between kernel times k and k + 1.
    """
    latencies, paces, ends, failures = [], [pace.measure()], [], []
    for slot, index in enumerate(indices):
        obj, objects[slot] = objects[slot], None
        latency, problem = run_task(workload, index, obj, reference)
        ends.append(time.perf_counter())
        paces.append(pace.measure())
        latencies.append(latency)
        if problem is not None:
            failures.append((index, problem))
        if ends[-1] >= deadline:
            break
    return latencies, paces, ends, failures


def nearest_rank(sorted_values, percentile):
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values) - 1e-9))
    return sorted_values[rank - 1], len(sorted_values) - rank


def environment():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure(workload, indices, seconds, reference):
    """Run the tasks untraced for `seconds`; end-to-end metrics."""
    import_s = import_seconds()
    objects, build_s = timed_setup(workload, indices)
    for _ in range(WARMUP_PACES):
        pace.measure()
    start = time.perf_counter()
    latencies, paces, ends, failures = run_tasks(
        workload, indices, objects, reference, deadline=start + seconds
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scaled = [pace.scaled(latency, paces[k], paces[k + 1])
              for k, latency in enumerate(latencies)]
    # Report whole passes over the pool, so that every run measures the same
    # task mix; the tasks of the last, partial pass are still checked.
    counted = len(latencies) // workload.pool_size * workload.pool_size or len(latencies)
    ordered = sorted(scaled[:counted])
    tail, beyond = nearest_rank(ordered, workload.tail_percentile)
    metrics = {
        "tasks_per_s": (counted / sum(ordered), "1/s"),
        "task_p50_s": (statistics.median(ordered), "s"),
        "task_tail_s": (tail, "s"),
        "setup_s": (import_s + build_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {
        "timed_s": ends[-1] - start,
        "wall_tasks_per_s": counted / sum(latencies[:counted]),
        "wall_task_p50_s": statistics.median(latencies[:counted]),
        "pace_median_s": statistics.median(paces),
        "pace_reference_s": pace.REFERENCE_S,
        "passes": len(latencies) / workload.pool_size,
        "tasks_counted": counted,
        "import_s": import_s,
        "build_s": build_s,
        "task_tail_percentile": workload.tail_percentile,
        "tasks_beyond_tail": beyond,
        "pool_exhausted": len(latencies) == len(indices),
    }
    return latencies, failures, metrics, info


def measure_traced(workload, indices, reference):
    """Run the given pool tasks twice each, untraced and traced.

    The two runs of a task alternate, and each is rescaled to reference
    speed by the kernel runs beside it; the untraced runs give the base of
    `trace.overhead_frac`.
    """
    plain = build_all(workload, indices)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span("setup"):
        traced = build_all(workload, indices)
    latencies, failures = [], []

    def run_one(objects, slot):
        obj, objects[slot] = objects[slot], None
        latency, problem = run_task(workload, indices[slot], obj, reference)
        latencies.append(latency)
        if problem is not None:
            failures.append((indices[slot], problem))
        return latency

    untraced_s = traced_s = scaled_untraced_s = scaled_traced_s = 0.0
    before = pace.measure()
    for slot in range(len(indices)):
        latency = run_one(plain, slot)
        between = pace.measure()
        untraced_s += latency
        scaled_untraced_s += pace.scaled(latency, before, between)
        tracer.task = slot
        with tracer.installed(), tracer.span("task"):
            latency = run_one(traced, slot)
        before = pace.measure()
        traced_s += latency
        scaled_traced_s += pace.scaled(latency, between, before)

    overhead_frac = 1.0 - scaled_untraced_s / scaled_traced_s
    metrics = tracing.layer_metrics(tracer, traced_s, overhead_frac)
    info = {"untraced_s": untraced_s, "traced_s": traced_s, "spans": len(tracer.names)}
    return latencies, failures, metrics, info, tracer


def write_spans(tracer, name):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tracer.to_json(), handle)
    return os.path.relpath(path, ROOT)


def main(argv=None) -> int:
    args = parse_args(argv)
    if IMPORT_ERROR is not None:
        print(f"perfbench: cannot import the program from {SRC}: {IMPORT_ERROR}",
              file=sys.stderr)
        return 2
    if not os.path.realpath(avibound.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"perfbench: avibound was imported from {avibound.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)["workloads"][args.workload]
    workload = workloads.WORKLOADS[args.workload]

    if args.trace:
        indices = workloads.sequence(workload.pool_size, args.seed, workload.pool_size)
        latencies, failures, metrics, info, tracer = measure_traced(
            workload, indices, reference
        )
        info["spans_file"] = write_spans(tracer, f"trace-{workload.name}-seed{args.seed}.json")
    else:
        indices = workloads.sequence(
            workload.pool_size, args.seed, MAX_PASSES * workload.pool_size
        )
        latencies, failures, metrics, info = measure(
            workload, indices, args.seconds, reference
        )
    for index, problem in failures:
        print(f"perfbench: {workload.name} task {index}: {problem}", file=sys.stderr)
    attempted = len(latencies)
    info.update(
        workload=workload.name,
        seed=args.seed,
        trace=args.trace,
        attempted=attempted,
        failed_frac=len(failures) / attempted,
        **environment(),
    )
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
