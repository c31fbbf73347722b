"""Run the suite at one BLAS thread, as the CLI does, unless OPENBLAS_NUM_THREADS is set."""

import os

from incoproj.linalg import set_blas_threads

if "OPENBLAS_NUM_THREADS" not in os.environ:
    set_blas_threads(1)
