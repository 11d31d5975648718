"""Process entry of the command line.

``python -m priorsolve`` and the ``priorsolve`` console script both run
:func:`entry`: :func:`priorsolve.cli.main`, then ``gc.freeze()``, so the
interpreter's final collection at exit skips the tens of thousands of
objects numpy and priorsolve allocate at import.  Files and streams are
still closed and flushed.  ``main()`` called from Python does not freeze,
so a host process keeps its garbage collection; an uncaught exception
tears down unfrozen.
"""

import gc
import sys

from .cli import main


def entry():
    """Run the command line in this process and return its exit code."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
