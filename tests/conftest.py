"""Test-session setup: BLAS runs one thread.

OpenBLAS reads its thread count once, when numpy loads it, and the suite's
factorizations are small (k x k bases, n x n Gram systems), where a second
thread only spins: with another busy process on a 2-CPU machine, double
description's solves took about 5 ms a call at the default thread count and
well under 1 ms at one.  So the counts are set here, before any test module
imports numpy, as `perfbench/run.py` sets them for the benchmark.  Reports
are byte-identical at either thread count.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before tests/conftest.py, so BLAS keeps its default "
        "thread count; run the suite with `python -m pytest`"
    )
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
