"""Process entry point: ``python3 -m magsense`` and the ``magsense`` script.

Importing numpy and magsense leaves about 22 000 objects that live as long
as the process. ``main`` moves them to the collector's permanent generation
before the command runs, so neither a full collection during the command nor
the final collection at exit traces them again. Objects the command creates
stay collectable, so a file left in a reference cycle is still finalized at
exit. ``cli.main`` called in-process freezes nothing.
"""

import gc
import sys

from . import cli


def main() -> int:
    """Run one command from ``sys.argv`` with the imported module state frozen."""
    gc.freeze()
    return cli.main()


if __name__ == "__main__":
    sys.exit(main())
