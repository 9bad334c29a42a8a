"""Exact chromatic number, colorability and independence number.

These exhaustive searches are the ground-truth oracles for everything else.
A search either completes (definitive answer) or reports EXHAUSTED when the
budget runs out; exhaustion is a result, never an exception.
"""

from dataclasses import dataclass
from time import monotonic

from . import _kernels
from .core import EXHAUSTED, degree_order


@dataclass(frozen=True)
class SearchBudget:
    """Caps for exhaustive searches; 0 means unlimited."""

    max_nodes: int = 0
    max_millis: int = 0

    def __post_init__(self):
        if self.max_nodes < 0 or self.max_millis < 0:
            raise ValueError("budget caps must be nonnegative")

    def deadline(self):
        return monotonic() + self.max_millis / 1000.0 if self.max_millis else 0.0


UNLIMITED = SearchBudget()


def k_colorable(G, k, budget=UNLIMITED, _deadline=None):
    """A proper k-coloring if one exists, None if definitively not, or EXHAUSTED.

    Backtracks over vertices in descending-degree order, trying colors in
    increasing order.  First-use symmetry breaking: a vertex takes only
    colors 0..min(used, k-1), where used is the number of colors already in
    use.  An edge with two vertices of one color forbids that color on the
    third, and forward checking keeps those bans per uncolored vertex, so no
    branch is entered that leaves an uncolored vertex with all k colors
    banned.  The coloring returned is the lexicographically least along the
    order.  The node cap counts entered branches; _deadline, when given,
    replaces the budget's wall-clock cap with a deadline shared by a larger
    computation.
    """
    if k < 1:
        raise ValueError("palette must be at least 1")
    if G.k != 3:
        raise ValueError("k_colorable handles 3-graphs")
    deadline = budget.deadline() if _deadline is None else _deadline
    return _kernels.kcolor_search(
        G.n, G.edges, k, degree_order(G), budget.max_nodes, deadline)


def chromatic_coloring(G, budget=UNLIMITED, _deadline=None):
    """A proper coloring with the least palette, trying k = 1, 2, ..., or
    EXHAUSTED.

    The node cap applies per colorability call; the wall-clock cap spans the
    whole computation, and no new k is started once it has passed.  Any
    3-graph is n-colorable, so this terminates.  _deadline is as in
    k_colorable.
    """
    deadline = budget.deadline() if _deadline is None else _deadline
    k = 1
    while True:
        res = k_colorable(G, k, budget, _deadline=deadline)
        if res is not None:
            return res
        if deadline and monotonic() > deadline:
            return EXHAUSTED
        k += 1


def chromatic_number(G, budget=UNLIMITED, _deadline=None):
    """Least k admitting a proper k-coloring, or EXHAUSTED."""
    res = chromatic_coloring(G, budget, _deadline)
    return res if res is EXHAUSTED else res.palette


def max_independent_set(G, budget=UNLIMITED, _deadline=None):
    """A maximum vertex set containing no full edge, or EXHAUSTED.

    Branch and bound on include/exclude, include first, in vertex order.
    The bound is |current| + |remaining vertices not dead|, where a dead
    vertex is one that some edge rules out because its other vertices are
    all chosen.  _deadline is as in k_colorable.
    """
    deadline = budget.deadline() if _deadline is None else _deadline
    return _kernels.mis_search(G.n, G.edges, budget.max_nodes, deadline)


def independence_number(G, budget=UNLIMITED, _deadline=None):
    res = max_independent_set(G, budget, _deadline)
    return res if res is EXHAUSTED else len(res)
