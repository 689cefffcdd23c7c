#!/usr/bin/env python3
"""Kernel timing: the Bland simplex of `optkernel.solve_lp` against HiGHS.

Solves the same seeded LPs with `optkernel.solve_lp` and with
`scipy.optimize.linprog(method="highs")` and prints, per size, the median
milliseconds per LP of each and the largest objective gap between them.
An LP of size (n, rows) is min c.x over rows - 2n random rows that a
random point of the box satisfies with slack, plus the box |x_i| <= 10,
so every LP is feasible and bounded.  One BLAS thread, serial, one LP at a
time; the first LP of each size is a warm-up and is not timed.

Usage: python scripts/kernel_timing.py [--count N] [--seed N]
"""

import argparse
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
from scipy.optimize import linprog  # noqa: E402

from avibound.optkernel import LinearProgram, solve_lp  # noqa: E402
from avibound.rng import SplitMix64, derive_seed  # noqa: E402

SIZES = ((3, 12), (6, 24), (10, 44))
BOX = 10.0


def random_lp(seed, n, rows):
    rng = SplitMix64(seed)
    k = rows - 2 * n
    witness = np.array([rng.uniform_in(-BOX / 2, BOX / 2) for _ in range(n)])
    A = np.array([rng.normals(n) for _ in range(k)])
    b = A @ witness + np.array([abs(rng.normal()) + 0.1 for _ in range(k)])
    A = np.vstack([A, np.eye(n), -np.eye(n)])
    b = np.concatenate([b, np.full(2 * n, BOX)])
    return np.array(rng.normals(n)), A, b


def time_size(n, rows, count, seed):
    bland_ms, highs_ms, gap = [], [], 0.0
    for k in range(count + 1):
        c, A, b = random_lp(derive_seed(seed, n, k), n, rows)
        start = time.perf_counter()
        res = solve_lp(LinearProgram(objective=c, ineq_lhs=A, ineq_rhs=b))
        mid = time.perf_counter()
        ref = linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * n, method="highs")
        end = time.perf_counter()
        if not (res.is_optimal and ref.status == 0):
            raise SystemExit(f"n={n} LP {k}: Bland {res.status}, HiGHS status {ref.status}")
        if k == 0:
            continue
        bland_ms.append(1e3 * (mid - start))
        highs_ms.append(1e3 * (end - mid))
        gap = max(gap, abs(res.value - ref.fun))
    return statistics.median(bland_ms), statistics.median(highs_ms), gap


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    print(f"{args.count} LPs per size, seed {args.seed}")
    print("| size            | Bland simplex | HiGHS    | max objective gap |")
    print("|-----------------|---------------|----------|-------------------|")
    for n, rows in SIZES:
        bland, highs, gap = time_size(n, rows, args.count, args.seed)
        size = f"n = {n}, {rows} rows"
        print(f"| {size:<15} | {bland:>10.2f} ms | {highs:>5.2f} ms | {gap:>17.1e} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
