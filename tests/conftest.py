"""Tier-1 runs with one BLAS thread, as ``bench/common.py`` and
``tests/digest.py`` pin it: the matrices are small, and on a busy 2-vCPU
host a second OpenBLAS thread that contends for a core slowed the suite
several times over. pytest imports this file before any test module, so
the pin is set before numpy is imported."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
