"""Session set-up for the test suite: BLAS and OpenMP run on one thread.

The suite's arrays are small, so a second BLAS thread mostly spins; on two
cores it costs CPU time and no wall time.  The variables are read when numpy
first loads, which happens after this file (no plugin imports numpy first).
Results do not depend on the thread count:
``test_run_directory_bitwise_equal_on_one_and_two_blas_threads`` pins that.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
