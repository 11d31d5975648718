"""Process entry of the command line.

``python -m priorsolve`` and the ``priorsolve`` console script both run
:func:`entry`: it pins OpenBLAS, OpenMP and MKL to one thread before numpy
loads, so BLAS rounds alike in every environment and ``compare`` forks a
one-thread process; then :func:`priorsolve.cli.main`, then ``gc.freeze()``,
so the final collection at exit skips the objects numpy and priorsolve
allocate at import.  Files and streams are still closed and flushed.
``main()`` called from Python keeps the host's threads and garbage
collection; an uncaught exception tears down unfrozen.
"""

import gc
import os
import sys


def entry():
    """Run the command line in this process and return its exit code."""
    os.environ.update(dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    from .cli import main
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
