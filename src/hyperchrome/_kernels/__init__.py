"""The two exact search kernels, ``kcolor_search`` and ``mis_search``.

They live in ``pure``.  Callers reach them through this package's
attributes, so that a tracer or a test can substitute them in one place.
"""

from . import pure
from .pure import EXHAUSTED, FOUND, NONE, kcolor_search, mis_search

# read only by perfbench/; goes at its next declared change (ROADMAP item 1)
_native = None


# read only by perfbench/; goes at its next declared change (ROADMAP item 1)
def backend_name(n=0):
    return "pure"
