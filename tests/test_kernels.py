"""The kernels against the plain backtracking references.

The pruned kernels search a subset of the references' trees in the same
order, so they return exactly the references' results, also under every node
cap under which a reference finishes.
"""

import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperchrome import _kernels
from hyperchrome import constructions as cons
from hyperchrome.core import EXHAUSTED, Coloring

from oracles import reference_kcolor_search, reference_mis_search


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

    def test_first_use_coloring_on_k7(self):
        # the least coloring along the order: pairs of vertices per color
        assert _kernels.kcolor_search(7, list(combinations(range(7), 3)), 4,
                                      list(range(7))) == \
            Coloring((0, 0, 1, 1, 2, 2, 3), 4)


class TestPruning:
    # the least node cap under which each search finishes, pruned kernel
    # against reference: pins the node-counting rule and the pruning itself
    @pytest.mark.parametrize("n, k, pruned, plain",
                             [(7, 3, 32, 56), (9, 4, 208, 535)])
    def test_kcolor_complete(self, n, k, pruned, plain):
        edges, order = list(combinations(range(n), 3)), list(range(n))
        assert least_finishing_cap(
            lambda cap: _kernels.kcolor_search(n, edges, k, order, cap),
            limit=1000) == pruned
        assert least_finishing_cap(
            lambda cap: reference_kcolor_search(n, edges, k, order, cap),
            limit=1000) == plain

    @pytest.mark.parametrize("name, G, pruned, plain", [
        ("K9", cons.complete(9), 78, 155),
        ("fano", cons.named("fano"), 36, 57),
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



# both enter more than 4096 nodes on fewer than 4096 edges, so the first
# clock read of a search with a deadline is the one at node 4096
K13, SPARSE30 = cons.complete(13), cons.random_3graph(30, 100, 1)


@pytest.mark.parametrize("search", [
    lambda *caps: _kernels.kcolor_search(13, K13.edges, 6, list(range(13)),
                                         *caps),
    lambda *caps: _kernels.mis_search(30, SPARSE30.edges, *caps),
], ids=["kcolor-K13-k6", "mis-random-30"])
def test_fake_clock_past_the_deadline_mid_search(search, monkeypatch):
    assert search(4096) is EXHAUSTED
    reads = []
    monkeypatch.setattr(_kernels, "monotonic", lambda: reads.append(1) or 2.0)
    assert search(0, 1.0) is EXHAUSTED
    assert len(reads) == 1
