"""Process entry point: ``python3 -m magsense`` and the ``magsense`` script.

``main`` runs numpy's OpenBLAS on one thread unless ``OPENBLAS_NUM_THREADS``
is set: magsense's largest BLAS operand, a 64 x 64 mat-vec, gains nothing
from a second thread, whose worker would busy-wait in every command. It then
freezes the about 22 000 objects that importing numpy and magsense leaves,
so no collection during the command or at exit traces them again; objects
the command creates stay collectable. Importing this module, or calling
``cli.main`` in-process, does neither.
"""

import gc
import os
import sys


def main() -> int:
    """Run one command from ``sys.argv`` on one BLAS thread, module state frozen."""
    # OpenBLAS reads the variable once, when numpy loads
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import cli

    gc.freeze()
    return cli.main()


if __name__ == "__main__":
    sys.exit(main())
