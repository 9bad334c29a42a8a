"""Kernel backend selection.

Two search kernels, ``kcolor_search`` and ``mis_search``, exist twice: the
compiled extension ``_native`` (built from ``_native.pyx`` when Cython is
present at build time) and the pure-Python twins in ``pure``.  The extension
runs when it is built and the instance fits its 64-bit bitsets (n <= 64);
otherwise the pure twin runs.  Both return identical results.
"""

from . import pure
from .pure import FOUND, NONE, EXHAUSTED

try:
    from . import _native
except ImportError:
    _native = None

_NATIVE_MAX_N = 64


def _mod(n):
    return _native if _native is not None and n <= _NATIVE_MAX_N else pure


def backend_name(n=0):
    return "pure" if _mod(n) is pure else "native"


def kcolor_search(n, edges, k, order, max_nodes=0, deadline=0.0):
    return _mod(n).kcolor_search(n, list(edges), k, list(order), max_nodes, deadline)


def mis_search(n, edges, max_nodes=0, deadline=0.0):
    return _mod(n).mis_search(n, list(edges), max_nodes, deadline)
