"""The shift identity of the natural residual, and the global bound it gives.

With R(x) = x - P_C(x - (M x + q)), R(x) = y holds iff w = x - y solves
AVI(C, M, q + (M - I) y), because

    x - y = P_C(x - M x - q) = P_C(w - (M w + q + (M - I) y)).

So R^{-1}(y) = y + SOL(C, M, q + (M - I) y).  The tests here use it twice.

- As an oracle: `inverse_residual(inst, y)` and the solution set of the
  shifted instance, both from the face search, must agree up to the shift
  by y.  A fault common to every template cannot show, but how y enters
  the cells, the particular point x0 + X1 y and the polar rows' right-hand
  sides does.
- As a bound that can fail.  Where M is strongly monotone, with
  mu = lambda_min((M + M^T)/2) > 0, SOL(C, M, q') is one point and
  1/mu-Lipschitz in q' (add the two variational inequalities of q'_1 and
  q'_2), so R^{-1} is single-valued and Lipschitz on all of R^n with

      c_glob = 1 + ||M - I||_2 / mu.

  Then d(x, SOL) <= c_glob ||R(x)|| for every x, with no radius, and every
  ratio the verifier samples on such an instance (the error-bound curve,
  the upper-Lipschitz ratios and a solver's tail) must stay at or below
  c_glob: a verdict that a fault in the sampling, the solution geometry or
  the decomposition can break, where the verifier's own verdicts pass on
  any finite ratio.
"""

import math
import os
import sys

import numpy as np
from test_acceptance import _avi_corpus

from avibound.avi import AviInstance, enumerate_solution_set, inverse_residual
from avibound.bounds import LipschitzCheckConfig, find_local_radius, verify_upper_lipschitz_inverse
from avibound.instgen import canned_suite
from avibound.polyhedra import enumerate_vertices, union_distance
from avibound.ratios import CMP_TOL
from avibound.rng import SplitMix64, derive_seed
from avibound.solvers import SolverConfig, annotate_distances, check_tail_bound, solve

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import workloads  # noqa: E402


def _strongly_monotone_instances():
    """(name, instance, mu) of every instance with mu > 0 among the canned
    AVIs and the generated instances of the benchmark's `preimage`,
    `error_bound` and `solver_tail` pools (`error_bound`'s canned entries
    are the canned AVIs, so each instance comes once)."""
    named = [(entry.name, entry.payload) for entry in canned_suite() if entry.kind == "avi"]
    for pool in (workloads.Preimage(), workloads.ErrorBound(), workloads.SolverTail()):
        named += [
            (f"{pool.name} #{index}", pool.build(index))
            for index in range(pool.pool_size)
            if "canned" not in pool.params(index)
        ]
    found = []
    for name, inst in named:
        M = inst.m_op
        mu = float(np.linalg.eigvalsh((M + M.T) / 2.0).min())
        if mu > 0.0:
            found.append((name, inst, mu))
    return found


def test_strongly_monotone_ratios_stay_below_c_glob():
    instances = _strongly_monotone_instances()
    assert len(instances) == 61
    failures = []
    for index, (name, inst, mu) in enumerate(instances):
        c_glob = 1.0 + np.linalg.norm(inst.m_op - np.eye(inst.dim), 2) / mu
        # the error-bound curve: one sample table filtered at every epsilon
        radius = find_local_radius(inst, num_samples=100, master_seed=index)
        failures += [(name, "error bound", eps, c_emp, c_glob)
                     for eps, c_emp, _, _ in radius.curve if not c_emp <= c_glob + CMP_TOL]
        # the upper-Lipschitz ratios around y0 = 0, out to radius 25
        report = verify_upper_lipschitz_inverse(inst, LipschitzCheckConfig(
            base_point=np.zeros(inst.dim), radius_ladder=(0.05, 0.8, 5.0, 25.0),
            samples_per_radius=4, master_seed=index,
        ))
        if not report.c_emp <= c_glob + CMP_TOL:
            failures.append((name, "upper Lipschitz", None, report.c_emp, c_glob))
        # every iterate of an extragradient run, at no epsilon filter
        trace = solve(inst, SolverConfig(stop_residual=1e-8))
        assert trace.converged, name
        tail = check_tail_bound(annotate_distances(inst, trace), c_glob,
                                epsilon=math.inf, slack=1.0)
        failures += [(name, "solver tail", it, distance / res, c_glob)
                     for it, res, distance in tail.violations]
    assert not failures, failures


def test_inverse_residual_is_the_shifted_solution_set():
    corpus = [entry.payload for entry in canned_suite() if entry.kind == "avi"]
    corpus += [inst for _, _, inst in _avi_corpus()]
    assert len(corpus) == 56
    levels = checks = 0
    worst = 0.0
    for index, inst in enumerate(corpus):
        M = inst.m_op
        for k in range(3):
            y = 0.5 * np.array(SplitMix64(derive_seed(index, k)).normals(inst.dim))
            shifted = AviInstance(m_op=M, q=inst.q + (M - np.eye(inst.dim)) @ y,
                                  c_set=inst.c_set)
            preimage = inverse_residual(inst, y)
            solutions = enumerate_solution_set(shifted)
            assert bool(preimage) == bool(solutions), (index, k)
            levels += bool(preimage)
            # every vertex of one side, shifted by -y or +y, lies in the
            # other side's union
            for pieces, others, shift in ((preimage, solutions, -y), (solutions, preimage, y)):
                for piece in pieces:
                    for v in enumerate_vertices(piece).vertices:
                        gap = union_distance(others, v + shift)
                        worst = max(worst, gap / (1.0 + np.linalg.norm(v)))
                        checks += 1
    assert worst <= 1e-7
    assert (levels, checks) == (157, 394)
