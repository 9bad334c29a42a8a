import copy
import itertools
import math
import pickle
import random
import time
from operator import attrgetter

import pytest

import hyperchrome
from hyperchrome import _kernels, containment, core, extremal
from hyperchrome import constructions as cons
from hyperchrome.core import Hypergraph, Meter, is_proper, new_hypergraph
from hyperchrome.exact import (EXHAUSTED, SearchBudget, chromatic_coloring,
                               chromatic_number, independence_number,
                               k_colorable, max_independent_set)

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

    def test_no_independent_set_no_coloring(self, monkeypatch):
        # K13 has no independent 3-set, so no 6-coloring is searched for
        monkeypatch.setattr(_kernels, "kcolor_search", None)
        assert k_colorable(cons.complete(13), 6) is None

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


EMPTY, FANO = Hypergraph(0, 3, ()), cons.named("fano")
LP = cons.named("linear_pair")
EDGELESS2, EDGELESS3 = Hypergraph(2, 3, ()), Hypergraph(3, 3, ())


def two_colorable(G, budget):
    return k_colorable(G, 2, budget)


# (search on a meter, what it must give once that meter is spent)
SPENT_METER = {
    "kcolor_search-empty": (lambda m: _kernels.kcolor_search(
        0, (), 1, [], m), EXHAUSTED),
    "kcolor_search-fano": (lambda m: _kernels.kcolor_search(
        7, FANO.edges, 3, range(7), m), EXHAUSTED),
    "mis_search-empty": (lambda m: _kernels.mis_search(0, (), m), EXHAUSTED),
    "mis_search-fano": (lambda m: _kernels.mis_search(7, FANO.edges, m),
                        EXHAUSTED),
    **{f"{f.__name__}-{name}": (lambda m, f=f, G=G: f(G, m), EXHAUSTED)
       for f in (chromatic_coloring, chromatic_number, independence_number,
                 two_colorable)
       for name, G in (("empty", EMPTY), ("fano", FANO))},
    "contains": (lambda m: containment.contains(FANO, LP, m), EXHAUSTED),
    "is_free": (lambda m: containment.is_free(FANO, LP, m), EXHAUSTED),
    # the trivial answers wait for the meter too: an edgeless H, and an H
    # with more vertices than G
    "contains-edgeless": (lambda m: containment.contains(FANO, EDGELESS3, m),
                          EXHAUSTED),
    "is_free-edgeless": (lambda m: containment.is_free(FANO, EDGELESS3, m),
                         EXHAUSTED),
    "contains-larger": (lambda m: containment.contains(EDGELESS2, FANO, m),
                        EXHAUSTED),
    "is_free-larger": (lambda m: containment.is_free(EDGELESS2, FANO, m),
                       EXHAUSTED),
    "turan_ex": (lambda m: extremal.turan_ex(6, LP, m).status,
                 "lower_bound"),
    "ramsey": (lambda m: extremal.ramsey(LP, 4, 7, m).status, "lower_bound"),
    "verify_witness": (lambda m: extremal.verify_witness(FANO, LP, 2,
                                                         m).status,
                       "exhausted"),
    "verify_witness-larger": (lambda m: attrgetter("h_free", "status")(
        extremal.verify_witness(EDGELESS2, FANO, 1, m)), (None, "exhausted")),
}


@pytest.mark.parametrize("name", SPENT_METER)
def test_spent_meter_stops_every_search_alike(name):
    # a meter at its cap, also on the empty graph: no search enters a node
    search, expected = SPENT_METER[name]
    meter = Meter(max_nodes=3)
    meter.nodes = 3
    assert search(meter) == expected
    assert meter.nodes == 3


class TestBudget:
    def test_one_exhausted_sentinel(self):
        assert EXHAUSTED is core.EXHAUSTED is hyperchrome.EXHAUSTED
        assert pickle.loads(pickle.dumps(EXHAUSTED)) is EXHAUSTED
        assert copy.deepcopy(EXHAUSTED) is EXHAUSTED
        assert repr(EXHAUSTED) == "EXHAUSTED"
        assert str(EXHAUSTED) == "EXHAUSTED"

    def test_kcolor_exhaustion(self):
        assert k_colorable(cons.complete(9), 4,
                           SearchBudget(max_nodes=3)) is EXHAUSTED

    def test_chromatic_exhaustion(self):
        assert chromatic_number(cons.complete(9),
                                SearchBudget(max_nodes=3)) is EXHAUSTED

    def test_one_node_cap_for_every_k(self):
        # K11 needs 2 + 3 + 14 + 88 + 749 + 12 = 868 kernel nodes over
        # k = 1..6, the most for one k 749
        G, meter = cons.complete(11), SearchBudget(max_nodes=800).start()
        assert chromatic_number(G, meter) is EXHAUSTED
        assert meter.nodes == 801
        meter = SearchBudget(max_nodes=868).start()
        assert chromatic_number(G, meter) == 6 and meter.nodes == 868

    def test_mis_exhaustion_returns_sentinel(self):
        assert max_independent_set(cons.complete(9),
                                   SearchBudget(max_nodes=2)) is EXHAUSTED

    def test_time_budget(self):
        # 1 ms is far too little for K_13 at k = 6
        res = chromatic_number(cons.complete(13), SearchBudget(max_millis=1))
        assert res is EXHAUSTED or res == 7

    def test_no_new_k_after_deadline(self, monkeypatch):
        # each clock read moves the fake clock a second on, so the 1 ms
        # deadline has passed once k = 1 is refuted in 2 nodes; k = 2 and 3
        # must not be started
        ticks = itertools.count()
        monkeypatch.setattr(core, "monotonic", lambda: float(next(ticks)))
        meter = SearchBudget(max_millis=1).start()
        assert chromatic_number(cons.complete(5), meter) is EXHAUSTED
        assert meter.nodes == 2

    def test_one_kernel_call_per_climb(self, monkeypatch):
        calls = []

        def recording(*args, real=_kernels.kcolor_search, **kw):
            calls.append(args[2])
            return real(*args, **kw)

        monkeypatch.setattr(_kernels, "kcolor_search", recording)
        assert chromatic_number(cons.complete(5)) == 3 and calls == [1]

    def test_table_build_honours_deadline(self):
        # the kernels' tables for 3e5 edges take ~0.3 s to build, and
        # k_colorable's greedy pass ~0.1 s; the clock is read during both,
        # so a 1 ms budget stops them early
        G = cons.random_3graph(3000, 300_000, 1)
        G.at  # built before the clock starts

        def two_colorable(G, budget):
            return k_colorable(G, 2, budget)

        for solve in (chromatic_number, independence_number, two_colorable):
            started = time.monotonic()
            assert solve(G, SearchBudget(max_millis=1)) is EXHAUSTED
            assert time.monotonic() - started < 0.15, solve.__name__

    def test_vertices_in_no_edge_build_no_table(self):
        started = time.monotonic()
        assert independence_number(Hypergraph(10**6, 3, ()),
                                   SearchBudget(max_millis=200)) == 10**6
        assert time.monotonic() - started < 0.4

    @pytest.mark.parametrize("solve", [
        lambda G, b: k_colorable(G, 1, b), chromatic_coloring,
    ], ids=["k_colorable", "chromatic_coloring"])
    def test_edgeless_colouring_builds_no_index(self, solve):
        # G.at and the degree order of 10**6 vertices take ~0.4 s
        G = Hypergraph(10**6, 3, ())
        started = time.monotonic()
        got = solve(G, SearchBudget(max_millis=200))
        assert time.monotonic() - started < 0.2
        assert (got.palette, set(got.colors), len(got.colors)) == (1, {0}, G.n)
        assert "at" not in G.__dict__

    def test_packing_reads_the_clock(self):
        # each packing scans all 30000 edges, and the deadline is read at
        # every one, not only at every 4096th node
        G = cons.random_3graph(600, 30_000, 1)
        started = time.monotonic()
        assert independence_number(G, SearchBudget(max_millis=200)) is EXHAUSTED
        assert time.monotonic() - started < 0.4

    def test_alpha_test_shares_the_deadline(self, monkeypatch):
        calls = []
        for name in ("mis_search", "kcolor_search"):
            def recording(*args, real=getattr(_kernels, name), **kw):
                calls.append((real.__name__, args[-1]))
                return real(*args, **kw)
            monkeypatch.setattr(_kernels, name, recording)
        # the greedy pass takes only 0 and 1, so k = 2 asks the kernel for
        # an independent 3-set; it finds one, and the coloring search runs
        G = new_hypergraph(6, 3, [(0, 1, v) for v in range(2, 6)])
        assert is_proper(G, k_colorable(G, 2, SearchBudget(max_millis=60_000)))[0]
        assert [name for name, _ in calls] == ["mis_search", "kcolor_search"]
        assert calls[0][1].deadline > 0 and calls[0][1] is calls[1][1]

    def test_no_alpha_search_after_the_deadline(self, monkeypatch):
        # the greedy pass finds no independent 3-set, but the deadline has
        # passed, so the coloring search runs without the alpha search
        monkeypatch.setattr(core, "monotonic", lambda: 2.0)
        monkeypatch.setattr(_kernels, "mis_search", None)
        G = new_hypergraph(6, 3, [(0, 1, v) for v in range(2, 6)])
        assert is_proper(G, k_colorable(G, 2, Meter(deadline=1.0)))[0]

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            SearchBudget(max_nodes=-1)
