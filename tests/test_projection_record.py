"""Projection regression over the benchmark's pools.

Every `solve_projection_qp` call of one pass over the pool of each of the
four benchmark workloads (`perfbench/workloads.py`), in call order, is
hashed as its target's bytes and its result's bytes, and the number of
calls and the digest per workload are recorded in
tests/data/projection_sha256.json.  Both headline quantities, the residual
R(x) = x - P_C(x - Mx - q) and the distance d(x, SOL), are built from
these projections, so any change to a projection's bits, to which targets
are projected or to their order changes a digest.  Regenerate the file only
for an intended change of the projections:
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_projection_record.py
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from avibound import avi, optkernel, polyhedra, solvers

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

_RECORD = Path(__file__).parent / "data" / "projection_sha256.json"
_POOLS = (workloads.Preimage, workloads.ErrorBound, workloads.SolverTail,
          workloads.Multifunction)


def _pool_projections(pool):
    """(calls, sha256) of the projections of one pass over `pool`."""
    digest = hashlib.sha256()
    calls = [0]
    original = optkernel.solve_projection_qp

    def recording(S, u):
        z = original(S, u)
        digest.update(np.asarray(u, dtype=float).tobytes() + b";" + z.tobytes() + b",")
        calls[0] += 1
        return z

    with pytest.MonkeyPatch.context() as patch:
        for module in (avi, optkernel, polyhedra, solvers):
            patch.setattr(module, "solve_projection_qp", recording)
        for index in range(pool.pool_size):
            pool.run(index, pool.build(index))
    return {"calls": calls[0], "sha256": digest.hexdigest()}


def _run_pools():
    return {pool.name: _pool_projections(pool) for pool in (cls() for cls in _POOLS)}


def test_pool_projections_are_unchanged():
    assert _run_pools() == json.loads(_RECORD.read_text())


if __name__ == "__main__":
    _RECORD.write_text(json.dumps(_run_pools(), indent=1) + "\n")
