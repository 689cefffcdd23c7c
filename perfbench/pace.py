"""Machine speed, read from a fixed reference kernel run next to each task.

The small shared virtual machines this benchmark runs on change speed by
up to 2x in phases of seconds to minutes, and a whole run can sit in one
phase.  Wall times of one program then spread past any useful bound.  So
each task and each build of a run's instances is bracketed by two runs of
a fixed kernel, and its wall time is rescaled to the speed at which that
kernel takes `REFERENCE_S`:

    scaled = wall * REFERENCE_S / mean(kernel time before, kernel time after)

The kernel belongs to the benchmark, not to the program: a dense simplex
(Bland's rule, phase one then phase two, one LU factorization per pivot) on
two fixed 6 x 12 LPs.  That is the same mix of small numpy/scipy calls and
Python loops the program's own solvers spend their time in, so it slows
down with the machine as they do; a short pure-Python or pure-LU loop
tracks the program's speed far less closely.  A change to the program
changes the wall times and not the kernel, so it shows in full.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.linalg import lu_factor, lu_solve

# The kernel's usual time on the 2-vCPU VM the benchmark was tuned on
# (Python 3.11.7, numpy 2.4.6, scipy 1.17.1): scaled times are seconds at
# that speed.
REFERENCE_S = 3.5e-3

_ROWS, _COLS = 6, 12


def _programs() -> list:
    """Two fixed feasible, bounded LPs min c.v s.t. Av = b, v >= 0 (c > 0)."""
    rng = np.random.default_rng(1)
    lps = []
    for _ in range(2):
        a = rng.normal(size=(_ROWS, _COLS))
        b = a @ rng.random(_COLS)
        lps.append((a, b, rng.random(_COLS) + 0.1))
    return lps


_LPS = _programs()


def _simplex(a, b, c) -> float:
    """Optimal value of min c.v s.t. av = b, v >= 0, by a two-phase
    revised simplex with Bland's rule."""
    m, n = a.shape
    signs = np.where(b < 0, -1.0, 1.0)
    a, b = a * signs[:, None], b * signs
    cols = np.hstack([a, np.eye(m)])
    cost = np.concatenate([np.zeros(n), np.ones(m)])
    basis = list(range(n, n + m))
    for phase in (1, 2):
        if phase == 2:
            cols, cost = cols[:, :n], c
        for _ in range(50 * (m + n)):
            lu = lu_factor(cols[:, basis])
            x_b = lu_solve(lu, b)
            y = lu_solve(lu, cost[basis], trans=1)
            reduced = cost - cols.T @ y
            in_basis = np.zeros(cols.shape[1], dtype=bool)
            in_basis[basis] = True
            entering = next(
                (j for j in range(n) if not in_basis[j] and reduced[j] < -1e-9), -1
            )
            if entering < 0:
                break
            direction = lu_solve(lu, cols[:, entering])
            best, leave = math.inf, -1
            for i in range(m):
                if direction[i] > 1e-12:
                    ratio = max(x_b[i], 0.0) / direction[i]
                    if ratio < best:
                        best, leave = ratio, i
            basis[leave] = entering
    return float(cost[basis] @ x_b)


def measure() -> float:
    """Wall seconds of one run of the reference kernel."""
    start = time.perf_counter()
    for lp in _LPS:
        _simplex(*lp)
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` of wall time rescaled to reference speed, given the kernel
    times measured just before and just after it."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
