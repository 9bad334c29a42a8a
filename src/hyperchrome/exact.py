"""Exact chromatic number, colorability and independence number.

These exhaustive searches are the ground-truth oracles for everything else.
A search either completes (definitive answer) or reports EXHAUSTED when the
budget runs out; exhaustion is a result, never an exception.  All the
searches of one call spend one core.Meter.
"""

from . import _kernels
# SearchBudget is re-exported: hyperchrome.exact.SearchBudget is its old home
from .core import (EXHAUSTED, UNLIMITED, Coloring, SearchBudget,
                   degree_order)


def k_colorable(G, k, budget=UNLIMITED):
    """A proper k-coloring if one exists, None if definitively not, or EXHAUSTED.

    Every color class is independent, so the answer is None unless the
    greedy pass in index order or else _kernels.mis_search finds an
    independent set of ceil(n/k) vertices; a search cut short decides
    nothing.  Then _kernels.kcolor_search returns the lexicographically
    least coloring along the descending-degree order.
    """
    if k < 1:
        raise ValueError("palette must be at least 1")
    if G.k != 3:
        raise ValueError("k_colorable handles 3-graphs")
    meter = budget.start()
    if not G.edges:
        return _edgeless(G, k, meter)
    s = -(-G.n // k)
    if not _greedy_reaches(G, s, meter) and _kernels.mis_search(
            G.n, G.edges, meter, at_least=s) is None:
        return None
    return _kernels.kcolor_search(G.n, G.edges, k, degree_order(G), meter)


def _greedy_reaches(G, s, meter):
    # whether taking each vertex in index order that closes no edge with
    # those taken before it (mis_search's first leaf) takes s vertices;
    # also True once the deadline has passed, so that no search starts
    taken = [False] * G.n
    for v, at in enumerate(G.at):
        if s <= 0 or not v & 63 and meter.late():
            return True
        taken[v] = all(taken[a] + taken[b] + taken[c] < 2 for a, b, c in at)
        s -= taken[v]
    return s <= 0


def _edgeless(G, k, meter):
    # kcolor_search's answer on a graph with no edge, without building
    # G.at or the degree order, which take ~0.4 s at 10**6 vertices
    return EXHAUSTED if meter.full() else Coloring((0,) * G.n, k)


def chromatic_coloring(G, budget=UNLIMITED):
    """A proper coloring with the least palette, or EXHAUSTED.

    One _kernels.kcolor_search along one order tries k = 1, 2, ... on one
    table, with no independent-set test: on the graphs measured, refuting a
    small k costs less.  No new k is started once the deadline has passed.
    Any 3-graph is n-colorable, so this terminates.
    """
    if G.k != 3:
        raise ValueError("chromatic_coloring handles 3-graphs")
    if not G.edges:
        return _edgeless(G, 1, budget.start())
    return _kernels.kcolor_search(G.n, G.edges, 1, degree_order(G), budget,
                                  least=True)


def chromatic_number(G, budget=UNLIMITED):
    """Least k admitting a proper k-coloring, or EXHAUSTED."""
    res = chromatic_coloring(G, budget)
    return res if res is EXHAUSTED else res.palette


def max_independent_set(G, budget=UNLIMITED):
    """A maximum vertex set containing no full edge, or EXHAUSTED.

    Branch and bound on include/exclude, include first, in vertex order.
    The bound is |current| + |remaining vertices not dead|, where a dead
    vertex is one that some edge rules out because its other vertices are
    all chosen, less a packing (_kernels.mis_search).
    """
    return _kernels.mis_search(G.n, G.edges, budget)


def independence_number(G, budget=UNLIMITED):
    res = max_independent_set(G, budget)
    return res if res is EXHAUSTED else len(res)
