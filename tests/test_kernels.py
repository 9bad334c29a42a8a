"""The kernels against the plain backtracking references.

The pruned kernels search a subset of the references' trees in the same
order, so they return exactly the references' results, also under every node
cap under which a reference finishes.  The coloring kernel also searches
exactly the tree of the propagating reference, so both finish under the
same least node cap, and that cap is never above the forward-checking
pair-scan reference's.
"""

import math
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperchrome import _kernels, core, exact
from hyperchrome import constructions as cons
from hyperchrome.core import EXHAUSTED, Coloring, degree_order, new_hypergraph

from oracles import (reference_first_independent_set, reference_kcolor_search,
                     reference_mis_search, reference_pair_scan_kcolor_search,
                     reference_propagating_kcolor_search)


def random_instance(seed):
    """n <= 14 vertices, m <= 60 edges and a shuffled vertex order."""
    rng = random.Random(seed)
    n = rng.randrange(1, 15)
    m_max = math.comb(n, 3) if n >= 3 else 0
    m = rng.randrange(0, min(m_max, 60) + 1)
    G = cons.random_3graph(n, m, seed) if n >= 3 else None
    edges = list(G.edges) if G else []
    perm = list(range(n))
    rng.shuffle(perm)
    return n, edges, perm


def dense_instance(seed, by_degree):
    """3 <= n <= 12 vertices, 0 <= m <= C(n, 3) edges, and the degree order
    or a shuffled one."""
    rng = random.Random(seed)
    n = rng.randrange(3, 13)
    G = cons.random_3graph(n, rng.randrange(0, math.comb(n, 3) + 1), seed)
    order = list(range(n))
    rng.shuffle(order)
    return n, list(G.edges), degree_order(G) if by_degree else order


def least_finishing_cap(search, limit=300):
    """The least node cap in 1..limit under which search(cap) does not report
    EXHAUSTED, or None.  A search under cap c visits the first c nodes of its
    unbudgeted run, so it finishes, with the unbudgeted result, under every
    cap from that one on."""
    lo, hi = 1, limit + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if search(mid) is EXHAUSTED:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo <= limit else None


class TestAgainstReference:
    @given(st.integers(0, 10_000), st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_kcolor(self, seed, k):
        n, edges, order = random_instance(seed)
        want = reference_kcolor_search(n, edges, k, order)
        assert _kernels.kcolor_search(n, edges, k, order) == want
        first = least_finishing_cap(
            lambda cap: reference_kcolor_search(n, edges, k, order, cap))
        if first is not None:
            for cap in range(first, 301):
                assert _kernels.kcolor_search(n, edges, k, order, cap) == want

    @given(st.integers(0, 10_000), st.integers(1, 6), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_kcolor_same_tree_as_propagating(self, seed, k, by_degree):
        n, edges, order = dense_instance(seed, by_degree)
        want = reference_pair_scan_kcolor_search(n, edges, k, order)
        assert _kernels.kcolor_search(n, edges, k, order) == want
        # the least finishing cap of a search that finishes within 30000
        # nodes, checked on the propagating reference at that cap and one
        # below it, and on the pair scan one below it
        first = least_finishing_cap(
            lambda cap: _kernels.kcolor_search(n, edges, k, order, cap),
            limit=30_000)
        if first is None:
            assert reference_propagating_kcolor_search(
                n, edges, k, order, 30_000) is EXHAUSTED
            return
        assert reference_propagating_kcolor_search(
            n, edges, k, order, first) == want
        if first > 1:
            assert reference_propagating_kcolor_search(
                n, edges, k, order, first - 1) is EXHAUSTED
            assert reference_pair_scan_kcolor_search(
                n, edges, k, order, first - 1) is EXHAUSTED

    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_mis(self, seed):
        n, edges, _ = random_instance(seed)
        want = reference_mis_search(n, edges)
        assert _kernels.mis_search(n, edges) == want
        first = least_finishing_cap(
            lambda cap: reference_mis_search(n, edges, cap))
        if first is not None:
            for cap in range(first, 301):
                assert _kernels.mis_search(n, edges, cap) == want

    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_mis_tree_no_larger(self, seed):
        n, edges, _ = random_instance(seed)
        limit = 100_000
        pruned = least_finishing_cap(
            lambda cap: _kernels.mis_search(n, edges, cap), limit)
        plain = least_finishing_cap(
            lambda cap: reference_mis_search(n, edges, cap), limit)
        assert pruned is not None and plain is not None and pruned <= plain

    @given(st.integers(0, 10_000), st.integers(0, 15))
    @settings(max_examples=150, deadline=None)
    def test_mis_at_least(self, seed, s):
        n, edges, _ = random_instance(seed)
        got = _kernels.mis_search(n, edges, at_least=s)
        assert got == reference_first_independent_set(n, edges, s)
        assert (got is not None) == (len(reference_mis_search(n, edges)) >= s)

    @given(st.integers(0, 10_000), st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_k_colorable(self, seed, k):
        n, edges, _ = random_instance(seed)
        G = new_hypergraph(n, 3, edges)
        assert exact.k_colorable(G, k) == reference_kcolor_search(
            n, edges, k, degree_order(G))

    def test_first_use_coloring_on_k7(self):
        # the least coloring along the order: pairs of vertices per color
        assert _kernels.kcolor_search(7, list(combinations(range(7), 3)), 4,
                                      list(range(7))) == \
            Coloring((0, 0, 1, 1, 2, 2, 3), 4)


class TestPruning:
    # the least node cap under which each search finishes, pruned kernel
    # against reference: pins the node-counting rule and the pruning itself
    @pytest.mark.parametrize("n, k, pruned, plain",
                             [(7, 3, 14, 56), (9, 4, 88, 535)])
    def test_kcolor_complete(self, n, k, pruned, plain):
        edges, order = list(combinations(range(n), 3)), list(range(n))
        assert least_finishing_cap(
            lambda cap: _kernels.kcolor_search(n, edges, k, order, cap),
            limit=1000) == pruned
        assert least_finishing_cap(
            lambda cap: reference_kcolor_search(n, edges, k, order, cap),
            limit=1000) == plain

    # the least node cap under which each search finishes, measured on the
    # propagating kernel: pins that its tree is kept
    @pytest.mark.parametrize("G, k, order, pruned", [
        (cons.complete(11), 5, list(range(11)), 749),
        (cons.complete(13), 6, list(range(13)), 8016),
        (cons.partition_example(5, 4), 4,
         degree_order(cons.partition_example(5, 4)), 115),
    ], ids=["K11-k5", "K13-k6", "part(5,4)-k4-degree"])
    def test_kcolor_unsatisfiable(self, G, k, order, pruned):
        search = lambda cap: _kernels.kcolor_search(G.n, G.edges, k, order, cap)
        assert search(0) is None
        assert least_finishing_cap(search, limit=30_000) == pruned

    @pytest.mark.parametrize("name, G, pruned, plain", [
        ("K9", cons.complete(9), 62, 155),
        ("fano", cons.named("fano"), 14, 57),
    ])
    def test_mis(self, name, G, pruned, plain):
        edges = list(G.edges)
        assert least_finishing_cap(
            lambda cap: _kernels.mis_search(G.n, edges, cap)) == pruned
        assert least_finishing_cap(
            lambda cap: reference_mis_search(G.n, edges, cap)) == plain


class TestKernelAgainstRichPaths:
    def test_dispatch_large_n_uses_pure(self):
        assert _kernels.backend_name(500) == "pure"
        best = _kernels.mis_search(100, [(0, 1, 2)])
        assert len(best) == 99



def test_vertices_in_no_edge_are_set_aside():
    # a million vertices in no edge take color 0 without a search
    started = time.monotonic()
    got = _kernels.kcolor_search(10**6, [], 1, range(10**6))
    assert time.monotonic() - started < 0.5
    assert got == Coloring((0,) * 10**6, 1)


def test_sparse_tries_read_only_their_edges():
    # a perfect matching in index order, 2 colors: every third vertex closes
    # its edge.  A try that walked the whole class of color 0 would read
    # ~10^8 entries over the search; one that reads only the vertex's own
    # edges reads ~10^4.
    n = 18_000
    edges = [(v, v + 1, v + 2) for v in range(0, n, 3)]
    started = time.monotonic()
    got = _kernels.kcolor_search(n, edges, 2, list(range(n)))
    assert time.monotonic() - started < 1.0
    assert got == Coloring((0, 0, 1) * (n // 3), 2)


# both enter more than 4096 nodes on fewer than 4096 edges, so the clock is
# not read while the tables are built, and the first read is mid-search
K13, SPARSE40 = cons.complete(13), cons.random_3graph(40, 150, 1)


@pytest.mark.parametrize("search", [
    lambda *caps: _kernels.kcolor_search(13, K13.edges, 6, list(range(13)),
                                         *caps),
    lambda *caps: _kernels.mis_search(40, SPARSE40.edges, *caps),
], ids=["kcolor-K13-k6", "mis-random-40"])
def test_fake_clock_past_the_deadline_mid_search(search, monkeypatch):
    assert search(4096) is EXHAUSTED
    reads = []
    monkeypatch.setattr(core, "monotonic", lambda: reads.append(1) or 2.0)
    assert search(0, 1.0) is EXHAUSTED
    assert len(reads) == 1
