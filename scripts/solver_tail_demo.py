#!/usr/bin/env python3
"""Solver tail demo: residual as a computable proxy for the distance to the
solution set.

Generates a strongly monotone instance, estimates (epsilon, c) empirically,
runs the extragradient method, and prints the per-iterate ratio
d(x_k, solutions) / ||R(x_k)|| over the tail where the bound applies.

Usage: python scripts/solver_tail_demo.py [--seed N] [--n N] [--m M] [--out DIR]
"""

import argparse
import os
import sys

import numpy as np

from avibound.bounds import find_local_radius
from avibound.instgen import generate_random_avi
from avibound.solvers import SolverConfig, annotate_distances, check_tail_bound, solve


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--m", type=int, default=6)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    inst = generate_random_avi(
        n=args.n, m=args.m, monotonicity="strongly_monotone", seed=args.seed
    )
    radius = find_local_radius(inst, num_samples=300, master_seed=args.seed)
    print(f"empirical bound: epsilon={radius.epsilon:g} c={radius.c_emp:.4g} "
          f"(stabilized={radius.stabilized})")
    trace = solve(inst, SolverConfig(stop_residual=1e-8, x0=np.zeros(args.n)))
    trace = annotate_distances(inst, trace)
    print(f"extragradient: converged={trace.converged} iters={trace.iterations}")
    shown = 0
    for rec in trace.records:
        if rec.residual_norm <= radius.epsilon and rec.residual_norm > 1e-5:
            ratio = rec.distance_to_solutions / rec.residual_norm
            if shown % max(1, trace.iterations // 12) == 0:
                print(f"  iter {rec.iteration:>5d}  residual {rec.residual_norm:.3e}  "
                      f"distance {rec.distance_to_solutions:.3e}  ratio {ratio:.4f}")
            shown += 1
    tail = check_tail_bound(trace, radius.c_emp, radius.epsilon)
    print(f"tail bound (slack 1.05): checked={tail.num_checked} "
          f"violations={len(tail.violations)} -> {'pass' if tail.passed else 'FAIL'}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"tail_seed{args.seed}.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(trace.to_csv())
        print(f"wrote {path}")
    return 0 if (trace.converged and tail.passed) else 1


if __name__ == "__main__":
    sys.exit(main())
