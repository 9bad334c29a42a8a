import copy
import math
import pickle
import random
import time

import pytest

import hyperchrome
from hyperchrome import _kernels, core, exact
from hyperchrome import constructions as cons
from hyperchrome.core import Hypergraph, is_proper, new_hypergraph
from hyperchrome.exact import (EXHAUSTED, SearchBudget, chromatic_number,
                               independence_number, k_colorable,
                               max_independent_set)

from oracles import brute_alpha, brute_chromatic


class TestKColorable:
    def test_complete5(self):
        assert k_colorable(cons.complete(5), 2) is None
        res = k_colorable(cons.complete(5), 3)
        assert res is not None and is_proper(cons.complete(5), res)[0]

    def test_fano_needs_three(self):
        assert k_colorable(cons.named("fano"), 2) is None

    def test_loose_cycle_two_colorable(self):
        res = k_colorable(cons.loose_cycle(3), 2)
        assert res is not None and is_proper(cons.loose_cycle(3), res)[0]

    def test_bad_palette(self):
        with pytest.raises(ValueError):
            k_colorable(cons.complete(4), 0)


class TestChromaticNumber:
    def test_complete_odd(self):
        for r in (1, 2, 3):
            assert chromatic_number(cons.complete(2 * r + 1)) == r + 1

    def test_fano(self):
        assert chromatic_number(cons.named("fano")) == 3

    def test_empty_graph(self):
        assert chromatic_number(new_hypergraph(4, 3, [])) == 1

    def test_matches_bruteforce(self):
        for seed in range(30):
            rng = random.Random(seed)
            n = rng.randrange(3, 7)
            m = rng.randrange(0, math.comb(n, 3) + 1)
            G = cons.random_3graph(n, m, seed)
            assert chromatic_number(G) == brute_chromatic(G)


class TestMaxIndependentSet:
    def test_complete(self):
        for n in (4, 6, 9):
            assert independence_number(cons.complete(n)) == 2

    def test_loose_cycle(self):
        G = cons.loose_cycle(3)
        assert independence_number(G) == brute_alpha(G) == 4

    def test_fano(self):
        G = cons.named("fano")
        assert independence_number(G) == brute_alpha(G) == 4

    def test_output_is_independent_and_maximum(self):
        for seed in range(30):
            rng = random.Random(100 + seed)
            n = rng.randrange(3, 8)
            m = rng.randrange(0, math.comb(n, 3) + 1)
            G = cons.random_3graph(n, m, 100 + seed)
            res = max_independent_set(G)
            assert not any(set(e) <= res for e in G.edges)
            assert len(res) == brute_alpha(G)


class TestInvariants:
    def test_chi_alpha_bound(self):
        # chi >= ceil(covered / alpha), the bound the removal argument uses
        for seed in range(25):
            rng = random.Random(200 + seed)
            n = rng.randrange(3, 7)
            m = rng.randrange(1, math.comb(n, 3) + 1)
            G = cons.random_3graph(n, m, 200 + seed)
            covered = {v for e in G.edges for v in e}
            alpha = independence_number(G)
            assert chromatic_number(G) >= math.ceil(len(covered) / alpha)

    def test_edge_deletion_monotone(self):
        for seed in range(20):
            rng = random.Random(300 + seed)
            n = rng.randrange(4, 7)
            m = rng.randrange(1, math.comb(n, 3) + 1)
            G = cons.random_3graph(n, m, 300 + seed)
            smaller = Hypergraph(G.n, 3, G.edges[1:])
            assert chromatic_number(smaller) <= chromatic_number(G)
            assert independence_number(smaller) >= independence_number(G)


class TestBudget:
    def test_one_exhausted_sentinel(self):
        assert EXHAUSTED is core.EXHAUSTED is hyperchrome.EXHAUSTED
        assert pickle.loads(pickle.dumps(EXHAUSTED)) is EXHAUSTED
        assert copy.deepcopy(EXHAUSTED) is EXHAUSTED
        assert repr(EXHAUSTED) == "EXHAUSTED"

    def test_kcolor_exhaustion(self):
        assert k_colorable(cons.complete(9), 4,
                           SearchBudget(max_nodes=3)) is EXHAUSTED

    def test_chromatic_exhaustion(self):
        assert chromatic_number(cons.complete(9),
                                SearchBudget(max_nodes=3)) is EXHAUSTED

    def test_mis_exhaustion_returns_sentinel(self):
        assert max_independent_set(cons.complete(9),
                                   SearchBudget(max_nodes=2)) is EXHAUSTED

    def test_time_budget(self):
        # 1 ms is far too little for K_13 at k = 6
        res = chromatic_number(cons.complete(13), SearchBudget(max_millis=1))
        assert res is EXHAUSTED or res == 7

    def test_no_new_k_after_deadline(self, monkeypatch):
        # every k takes a second on a fake clock, so the 1 ms deadline has
        # passed once k = 1 is refuted; k = 2 and 3 must not be started
        now = [0.0]
        monkeypatch.setattr(exact, "monotonic", lambda: now[0])
        real = _kernels.kcolor_search
        tried = []

        def slow(n, edges, k, order, max_nodes=0, deadline=0.0):
            tried.append(k)
            now[0] += 1.0
            return real(n, edges, k, order, max_nodes)

        monkeypatch.setattr(_kernels, "kcolor_search", slow)
        res = chromatic_number(cons.complete(5), SearchBudget(max_millis=1))
        assert res is EXHAUSTED and tried == [1]
        now[0], tried[:] = 0.0, []
        assert chromatic_number(cons.complete(5)) == 3 and tried == [1, 2, 3]

    def test_table_build_honours_deadline(self):
        # the kernels' tables for 3e5 edges take ~0.3 s to build; the clock
        # is read while they are built, so a 1 ms budget stops it early
        G = cons.random_3graph(3000, 300_000, 1)
        G.at  # built before the clock starts
        for solve in (chromatic_number, independence_number):
            started = time.monotonic()
            assert solve(G, SearchBudget(max_millis=1)) is EXHAUSTED
            assert time.monotonic() - started < 0.15, solve.__name__

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            SearchBudget(max_nodes=-1)
