"""Pure vs native kernel equivalence, the twins' shared surface, and the
dispatch.

The two backends implement the same algorithms step for step, so everything
they return (including tie-breaking and exhaustion-by-node-count) must be
bit-identical.  The surface test reads ``_native.pyx`` as text, so it runs
without Cython or a C compiler.
"""

import ast
import inspect
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperchrome import _kernels
from hyperchrome._kernels import pure
from hyperchrome import constructions as cons

try:
    from hyperchrome._kernels import _native
except ImportError:
    _native = None

needs_native = pytest.mark.skipif(_native is None,
                                  reason="native kernel not built")

PYX = Path(inspect.getfile(pure)).with_name("_native.pyx")


def random_instance(seed, n_max=10):
    rng = random.Random(seed)
    n = rng.randrange(1, n_max + 1)
    m_max = math.comb(n, 3) if n >= 3 else 0
    m = rng.randrange(0, min(m_max, 20) + 1)
    G = cons.random_3graph(n, m, seed) if n >= 3 else None
    edges = list(G.edges) if G else []
    perm = list(range(n))
    rng.shuffle(perm)
    return n, edges, perm


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


@needs_native
class TestBackendEquivalence:
    @given(st.integers(0, 10_000), st.integers(1, 4))
    @settings(max_examples=120, deadline=None)
    def test_kcolor(self, seed, k):
        n, edges, order = random_instance(seed)
        assert pure.kcolor_search(n, edges, k, order) == \
            _native.kcolor_search(n, edges, k, order)

    @given(st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_mis(self, seed):
        n, edges, _ = random_instance(seed)
        assert pure.mis_search(n, edges) == _native.mis_search(n, edges)

    @given(st.integers(0, 5_000), st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_budget_exhaustion_identical(self, seed, cap):
        n, edges, order = random_instance(seed)
        assert pure.kcolor_search(n, edges, 2, order, max_nodes=cap) == \
            _native.kcolor_search(n, edges, 2, order, max_nodes=cap)
        assert pure.mis_search(n, edges, max_nodes=cap) == \
            _native.mis_search(n, edges, max_nodes=cap)


class TestKernelAgainstRichPaths:
    def test_dispatch_large_n_uses_pure(self):
        assert _kernels.backend_name(500) == "pure"
        status, best = _kernels.mis_search(100, [(0, 1, 2)])
        assert status == _kernels.FOUND and len(best) == 99
