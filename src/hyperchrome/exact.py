"""Exact chromatic number, colorability and independence number.

These exhaustive searches are the ground-truth oracles for everything else.
A search either completes (definitive answer) or reports EXHAUSTED when the
budget runs out; exhaustion is a result, never an exception.
"""

from collections import namedtuple
from time import monotonic

from . import _kernels
from .core import EXHAUSTED, degree_order


class SearchBudget(namedtuple("SearchBudget", "max_nodes max_millis")):
    """Caps for exhaustive searches; 0 means unlimited."""

    __slots__ = ()

    def __new__(cls, max_nodes=0, max_millis=0):
        if max_nodes < 0 or max_millis < 0:
            raise ValueError("budget caps must be nonnegative")
        return super().__new__(cls, max_nodes, max_millis)

    def deadline(self):
        return monotonic() + self.max_millis / 1000.0 if self.max_millis else 0.0


UNLIMITED = SearchBudget()


def k_colorable(G, k, budget=UNLIMITED, _deadline=None):
    """A proper k-coloring if one exists, None if definitively not, or EXHAUSTED.

    Every color class is independent, so the answer is None unless the
    greedy pass in index order or else _kernels.mis_search finds an
    independent set of ceil(n/k) vertices; a search cut short decides
    nothing.  Then _kernels.kcolor_search returns the lexicographically
    least coloring along the descending-degree order.  Each search gets the
    budget's node cap; _deadline, when given, replaces the budget's
    wall-clock cap with a deadline shared by a larger computation.
    """
    if k < 1:
        raise ValueError("palette must be at least 1")
    if G.k != 3:
        raise ValueError("k_colorable handles 3-graphs")
    deadline = budget.deadline() if _deadline is None else _deadline
    s = -(-G.n // k)
    if not _greedy_reaches(G, s, deadline) and _kernels.mis_search(
            G.n, G.edges, budget.max_nodes, deadline, at_least=s) is None:
        return None
    return _kernels.kcolor_search(
        G.n, G.edges, k, degree_order(G), budget.max_nodes, deadline)


def _greedy_reaches(G, s, deadline):
    # whether taking each vertex in index order that closes no edge with
    # those taken before it (mis_search's first leaf) takes s vertices;
    # also True once the deadline has passed, so that no search starts
    taken = [False] * G.n
    for v, at in enumerate(G.at):
        if s <= 0 or deadline and not v & 63 and monotonic() > deadline:
            return True
        taken[v] = all(taken[a] + taken[b] + taken[c] < 2 for a, b, c in at)
        s -= taken[v]
    return s <= 0


def chromatic_coloring(G, budget=UNLIMITED, _deadline=None):
    """A proper coloring with the least palette, trying k = 1, 2, ..., or
    EXHAUSTED.

    Each k is one _kernels.kcolor_search along one order, with no
    independent-set test: on the graphs measured, refuting a small k costs
    less.  The node cap applies per k; the wall-clock cap spans the whole
    computation, and no new k is started once it has passed.  Any 3-graph
    is n-colorable, so this terminates.  _deadline is as in k_colorable.
    """
    if G.k != 3:
        raise ValueError("chromatic_coloring handles 3-graphs")
    deadline = budget.deadline() if _deadline is None else _deadline
    order = degree_order(G)
    k = 1
    while True:
        res = _kernels.kcolor_search(
            G.n, G.edges, k, order, budget.max_nodes, deadline)
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
    all chosen, less a packing (_kernels.mis_search).  _deadline is as in
    k_colorable.
    """
    deadline = budget.deadline() if _deadline is None else _deadline
    return _kernels.mis_search(G.n, G.edges, budget.max_nodes, deadline)


def independence_number(G, budget=UNLIMITED, _deadline=None):
    res = max_independent_set(G, budget, _deadline)
    return res if res is EXHAUSTED else len(res)
