"""``python -m pweil``: run the command line and exit with its code.

Everything alive when ``main`` returns (the modules and pweil's tables and
caches) lives until the process ends, yet the interpreter's final cyclic
collection would still walk all of it.  ``gc.freeze()`` moves those objects
to the permanent generation, which no collection visits, so a short run
does not pay that walk at exit; stdout, stderr and the exit code are those
of ``main``.
"""

import gc
import sys

from .cli import main

if __name__ == "__main__":
    code = main()
    gc.freeze()
    sys.exit(code)
