"""The kernels against the plain backtracking references, pure vs native
equivalence, the twins' shared surface, and the dispatch.

The pruned kernels search a subset of the references' trees in the same
order, so they return exactly the references' results, also under every node
cap under which a reference finishes.  The two backends implement the same
algorithms step for step, so everything they return (including tie-breaking
and exhaustion-by-node-count) must be bit-identical.  The surface test reads
``_native.pyx`` as text, so it runs without Cython or a C compiler.
"""

import ast
import inspect
import math
import random
import re
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperchrome import _kernels
from hyperchrome._kernels import pure
from hyperchrome import constructions as cons

from oracles import reference_kcolor_search, reference_mis_search

try:
    from hyperchrome._kernels import _native
except ImportError:
    _native = None

needs_native = pytest.mark.skipif(_native is None,
                                  reason="native kernel not built")

PYX = Path(inspect.getfile(pure)).with_name("_native.pyx")


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
        if search(mid)[0] == pure.EXHAUSTED:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo <= limit else None


def pyx_signatures():
    """name -> ((param, default), ...) of every top-level def in _native.pyx."""
    out = {}
    for name, params in re.findall(r"^def (\w+)\((.*?)\):", PYX.read_text(),
                                   re.M | re.S):
        out[name] = tuple(
            (decl.split()[-1], ast.literal_eval(default) if eq else None)
            for decl, eq, default in (p.strip().partition("=")
                                      for p in params.split(",")))
    return out


def pure_signatures():
    return {name: tuple((p.name, None if p.default is p.empty else p.default)
                        for p in inspect.signature(fn).parameters.values())
            for name, fn in vars(pure).items()
            if inspect.isfunction(fn) and fn.__module__ == pure.__name__
            and not name.startswith("_")}


class TestTwinSurface:
    def test_pyx_defines_exactly_the_pure_kernels(self):
        assert sorted(pure_signatures()) == ["kcolor_search", "mis_search"]
        assert pyx_signatures() == pure_signatures()

    def test_pyx_statuses_match_pure(self):
        consts = dict(re.findall(r"^(FOUND|NONE|EXHAUSTED) = (\d+)$",
                                 PYX.read_text(), re.M))
        assert {k: int(v) for k, v in consts.items()} == \
            {"FOUND": pure.FOUND, "NONE": pure.NONE,
             "EXHAUSTED": pure.EXHAUSTED}


class TestAgainstReference:
    @given(st.integers(0, 10_000), st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_kcolor(self, seed, k):
        n, edges, order = random_instance(seed)
        want = reference_kcolor_search(n, edges, k, order)
        assert pure.kcolor_search(n, edges, k, order) == want
        first = least_finishing_cap(
            lambda cap: reference_kcolor_search(n, edges, k, order, cap))
        if first is not None:
            for cap in range(first, 301):
                assert pure.kcolor_search(n, edges, k, order, cap) == want

    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_mis(self, seed):
        n, edges, _ = random_instance(seed)
        want = reference_mis_search(n, edges)
        assert pure.mis_search(n, edges) == want
        first = least_finishing_cap(
            lambda cap: reference_mis_search(n, edges, cap))
        if first is not None:
            for cap in range(first, 301):
                assert pure.mis_search(n, edges, cap) == want

    def test_first_use_coloring_on_k7(self):
        # the least coloring along the order: pairs of vertices per color
        assert pure.kcolor_search(7, list(combinations(range(7), 3)), 4,
                                  list(range(7))) == \
            (pure.FOUND, [0, 0, 1, 1, 2, 2, 3])


class TestPruning:
    # the least node cap under which each search finishes, pruned kernel
    # against reference: pins the node-counting rule and the pruning itself
    @pytest.mark.parametrize("n, k, pruned, plain",
                             [(7, 3, 32, 56), (9, 4, 208, 535)])
    def test_kcolor_complete(self, n, k, pruned, plain):
        edges, order = list(combinations(range(n), 3)), list(range(n))
        assert least_finishing_cap(
            lambda cap: pure.kcolor_search(n, edges, k, order, cap),
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
            lambda cap: pure.mis_search(G.n, edges, cap)) == pruned
        assert least_finishing_cap(
            lambda cap: reference_mis_search(G.n, edges, cap)) == plain


@needs_native
class TestBackendEquivalence:
    @given(st.integers(0, 10_000), st.integers(1, 6), st.integers(0, 300))
    @settings(max_examples=200, deadline=None)
    def test_kcolor(self, seed, k, cap):
        n, edges, order = random_instance(seed)
        assert pure.kcolor_search(n, edges, k, order, max_nodes=cap) == \
            _native.kcolor_search(n, edges, k, order, max_nodes=cap)

    @given(st.integers(0, 10_000), st.integers(0, 300))
    @settings(max_examples=200, deadline=None)
    def test_mis(self, seed, cap):
        n, edges, _ = random_instance(seed)
        assert pure.mis_search(n, edges, max_nodes=cap) == \
            _native.mis_search(n, edges, max_nodes=cap)

    @given(st.integers(0, 5_000), st.integers(1, 6), st.integers(1, 2_000))
    @settings(max_examples=60, deadline=None)
    def test_budget_exhaustion_identical(self, seed, k, cap):
        # up to the 64-vertex limit of the native bitsets
        rng = random.Random(seed)
        n = rng.choice([15, 40, 63, 64])
        G = cons.random_3graph(n, rng.randrange(0, 3 * n), seed)
        edges, order = list(G.edges), rng.sample(range(n), n)
        assert pure.kcolor_search(n, edges, k, order, max_nodes=cap) == \
            _native.kcolor_search(n, edges, k, order, max_nodes=cap)
        assert pure.mis_search(n, edges, max_nodes=cap) == \
            _native.mis_search(n, edges, max_nodes=cap)


class TestKernelAgainstRichPaths:
    def test_dispatch_large_n_uses_pure(self):
        assert _kernels.backend_name(500) == "pure"
        status, best = _kernels.mis_search(100, [(0, 1, 2)])
        assert status == _kernels.FOUND and len(best) == 99
