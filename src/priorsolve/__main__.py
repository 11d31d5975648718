"""Process entry of the command line.

``python -m priorsolve`` and the ``priorsolve`` console script both run
:func:`entry`: it pins OpenBLAS, OpenMP and MKL to one thread before numpy
loads, so BLAS rounds alike in every environment and ``compare`` forks a
one-thread process.  It pauses the garbage collector while numpy and the
CLI import, then freezes the heap they allocated, so no collection in the
process or in ``compare``'s forked workers walks those objects or dirties
their pages.  Once :func:`priorsolve.cli.main` returns and standard output
and error are flushed, the process leaves through ``os._exit`` and skips
interpreter teardown; every file the CLI writes is closed before then.
Callers in Python should use ``main()``: it keeps the host's threads,
garbage collection and teardown.
"""

import gc
import os
import sys


def entry():
    """Run the command line in this process and leave it with main()'s exit
    code, without interpreter teardown.  Returns that code only when
    flushing standard output or error fails, so the interpreter's own exit
    reports the failure and sets the exit code, as it does for any script;
    an uncaught exception also tears down as usual."""
    os.environ.update(dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    gc.disable()  # importing numpy and the CLI would run ~35 collections
    try:
        from .cli import main
    finally:
        gc.freeze()
        gc.enable()
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor was closed
                stream.flush()
    except OSError:
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(entry())
