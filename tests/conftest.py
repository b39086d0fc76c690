"""Pin BLAS to one thread for the test run, before numpy is first imported.

OpenBLAS reads its thread count once, when numpy loads it.  With its default
of one thread per core, the small products of the pipeline stall on a busy
host: on a shared 2-core machine ``tests/test_kernel_chain.py`` took twice as
long.  The benchmark (``perfbench/run.py``) and the CI workflow pin the same
three variables.
pytest imports this file before any test module, and none of the installed
plugins (hypothesis, pytest-benchmark) imports numpy before it.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
