import math
import random
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperchrome import _kernels
from hyperchrome import coloring as col
from hyperchrome import constructions as cons
from hyperchrome import containment, core, extremal
from hyperchrome.core import (Coloring, Hypergraph, VertexOrder,
                              is_ordered_chain, is_proper, new_hypergraph)
from hyperchrome.exact import SearchBudget

from oracles import (reference_dyadic_classes, reference_greedy_pluhar,
                     reference_independent_removal_color, reference_induced,
                     reference_peel_layers, rescan_lll_color)


def matching(edges=5):
    return new_hypergraph(3 * edges, 3,
                          [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(edges)])


def small_3graphs(n_max=14, m_max=40):
    """Random 3-graphs on at most n_max vertices and m_max edges."""
    def on(n):
        pool = list(combinations(range(n), 3))
        if not pool:
            return st.just(Hypergraph(n, 3, ()))
        return st.lists(st.sampled_from(pool), unique=True,
                        max_size=m_max).map(
            lambda edges: new_hypergraph(n, 3, edges))
    return st.integers(0, n_max).flatmap(on)


def random_order(n, seed):
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return VertexOrder(tuple(perm))


class TestGreedy:
    def test_complete5_identity(self):
        tr = col.greedy_pluhar(cons.complete(5), VertexOrder.identity(5))
        assert tr.coloring.colors == (0, 0, 1, 1, 2)

    def test_single_edge(self):
        tr = col.greedy_pluhar(new_hypergraph(3, 3, [(0, 1, 2)]),
                               VertexOrder.identity(3))
        assert tr.coloring.colors == (0, 0, 1)
        assert tr.coloring.used() == 2

    def test_empty_graph(self):
        tr = col.greedy_pluhar(new_hypergraph(4, 3, []), VertexOrder.identity(4))
        assert tr.coloring.used() == 1

    def test_always_proper_and_minimal(self):
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randrange(3, 9)
            m = rng.randrange(0, math.comb(n, 3) + 1)
            G = cons.random_3graph(n, m, seed)
            ordv = random_order(n, seed)
            tr = col.greedy_pluhar(G, ordv)
            assert is_proper(G, tr.coloring)[0]
            # witness structure proves minimality color by color
            pos = ordv.position
            for v in range(n):
                cv = tr.coloring.colors[v]
                assert len(tr.witness[v]) == cv
                for c, e in enumerate(tr.witness[v]):
                    assert v in e
                    others = [u for u in e if u != v]
                    assert all(pos[u] < pos[v] for u in others)
                    assert all(tr.coloring.colors[u] == c for u in others)

    def test_palette_cap_failure(self):
        res = col.greedy_pluhar(cons.complete(5), VertexOrder.identity(5),
                                palette_cap=2)
        assert isinstance(res, col.GreedyFailure)
        assert res.vertex == 4 and len(res.witnesses) == 2

    @given(small_3graphs(), st.integers(0, 2 ** 32),
           st.sampled_from([None, 2, 3]))
    @settings(max_examples=300, deadline=None)
    def test_matches_pair_list_reference(self, G, seed, cap):
        ordv = random_order(G.n, seed)
        assert col.greedy_pluhar(G, ordv, palette_cap=cap) == \
            reference_greedy_pluhar(G, ordv, palette_cap=cap)


class TestExtractChain:
    def test_complete5(self):
        ordv = VertexOrder.identity(5)
        tr = col.greedy_pluhar(cons.complete(5), ordv)
        chain = col.extract_chain(cons.complete(5), ordv, tr)
        assert len(chain) == 2
        assert is_ordered_chain(cons.complete(5), chain, ordv)

    def test_two_colors_single_edge_chain(self):
        G = new_hypergraph(3, 3, [(0, 1, 2)])
        ordv = VertexOrder.identity(3)
        chain = col.extract_chain(G, ordv, col.greedy_pluhar(G, ordv))
        assert len(chain) == 1

    def test_needs_two_colors(self):
        G = new_hypergraph(4, 3, [])
        ordv = VertexOrder.identity(4)
        with pytest.raises(ValueError):
            col.extract_chain(G, ordv, col.greedy_pluhar(G, ordv))

    def test_witness_edge_not_in_graph(self):
        G = new_hypergraph(4, 3, [(0, 1, 2)])
        ordv = VertexOrder.identity(4)
        tr = col.greedy_pluhar(G, ordv)
        forged = tr._replace(witness=((), (), ((0, 1, 3),), ()))
        with pytest.raises(ValueError, match="witness edge not in graph"):
            col.extract_chain(G, ordv, forged)

    def test_trace_mismatch(self):
        ordv = VertexOrder.identity(5)
        tr = col.greedy_pluhar(cons.complete(5), ordv)
        with pytest.raises(ValueError):
            col.extract_chain(cons.loose_cycle(3),
                              VertexOrder.identity(6), tr)

    def test_random_sweep_chain_always_valid(self):
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randrange(3, 8)
            m = rng.randrange(1, math.comb(n, 3) + 1)
            G = cons.random_3graph(n, m, 1000 + seed)
            ordv = random_order(n, seed)
            tr = col.greedy_pluhar(G, ordv)
            used = tr.coloring.used()
            if used < 2:
                continue
            chain = col.extract_chain(G, ordv, tr)
            assert len(chain) == used - 1
            assert is_ordered_chain(G, chain, ordv)


class TestHypertreeEmbedding:
    def test_greedy_colors_force_hypertrees(self):
        # C greedy colors guarantee a copy of every hypertree with C-1 edges
        from hyperchrome.containment import contains
        for seed in range(15):
            rng = random.Random(seed)
            n = rng.randrange(5, 11)
            m = rng.randrange(1, min(30, math.comb(n, 3)) + 1)
            G = cons.random_3graph(n, m, 1000 + seed)
            ordv = random_order(n, seed)
            used = col.greedy_pluhar(G, ordv).coloring.used()
            if used < 2:
                continue
            for j in range(20):
                T = cons.random_hypertree(used - 1, 5000 + seed * 20 + j)
                assert contains(G, T) is not None


class TestChainOrIndependent:
    def test_empty_graph_gives_independent(self):
        G = new_hypergraph(5, 3, [])
        out = col.chain_or_independent(G, VertexOrder.identity(5), 2, 3)
        assert isinstance(out, frozenset) and len(out) >= 3

    def test_complete5_gives_chain(self):
        G = cons.complete(5)
        out = col.chain_or_independent(G, VertexOrder.identity(5), 2, 3)
        assert hasattr(out, "chain") and len(out) == 2
        assert is_ordered_chain(G, out, VertexOrder.identity(5))

    def test_partition_plus_isolated(self):
        base = cons.partition_example(2, 3)
        G = Hypergraph(5, 3, base.edges)  # one extra isolated vertex
        ordv = VertexOrder.identity(5)
        out = col.chain_or_independent(G, ordv, 2, 3)
        if isinstance(out, frozenset):
            assert len(out) >= 3
            assert not any(set(e) <= out for e in G.edges)
        else:
            assert len(out) == 2 and is_ordered_chain(G, out, ordv)

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            col.chain_or_independent(cons.complete(4),
                                     VertexOrder.identity(4), 2, 3)


class TestLllCheck:
    def test_matching_r3(self):
        rep = col.lll_check(matching(5), 3)
        assert rep.ok and rep.max_degree == 1

    def test_complete7_r3(self):
        rep = col.lll_check(cons.complete(7), 3)
        assert not rep.ok and rep.max_degree == 15

    def test_inverted_bound_always_passes(self):
        for seed in range(20):
            G = cons.random_3graph(8, 2 * seed % 40, seed)
            delta = G.max_degree()
            r = math.isqrt(math.ceil(3 * math.e * delta)) + 1
            while r * r < 3 * math.e * delta:
                r += 1
            assert col.lll_check(G, max(r, 1)).ok

    def test_report_fields(self):
        rep = col.lll_check(matching(4), 2)
        assert rep.p == Fraction(1, 4)
        assert rep.d == 3 * (1 - 1) + 1
        assert rep.ep_bound == pytest.approx(math.e * (1 / 4) * (rep.d + 1),
                                             rel=1e-9)


class TestLllColor:
    def test_matching(self):
        G = matching(5)
        res = col.lll_color(G, 3, seed=11)
        assert is_proper(G, res)[0]

    def test_empty_graph_r1(self):
        G = new_hypergraph(4, 3, [])
        res = col.lll_color(G, 1, seed=0)
        assert res.colors == (0, 0, 0, 0)

    def test_single_edge(self):
        # the degree bound does not hold here, so this goes through the
        # override; resampling still converges fast
        G = new_hypergraph(3, 3, [(0, 1, 2)])
        res = col.lll_color(G, 2, seed=5, check=False)
        assert is_proper(G, res)[0]

    def test_deterministic(self):
        G = matching(4)
        assert col.lll_color(G, 3, seed=9).colors == \
            col.lll_color(G, 3, seed=9).colors

    def test_check_enforced(self):
        with pytest.raises(ValueError):
            col.lll_color(cons.complete(7), 3, seed=0)

    def test_override_and_resample_cap(self):
        G = new_hypergraph(3, 3, [(0, 1, 2)])
        res = col.lll_color(G, 1, seed=0, max_resamples=5, check=False)
        assert isinstance(res, col.ColoringFailure)
        assert res.stage == "resample-cap"

    @pytest.mark.parametrize("check", [True, False])
    def test_rejects_2_uniform(self, check):
        G = new_hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="lll_color handles 3-graphs"):
            col.lll_color(G, 3, seed=0, check=check)

    @pytest.mark.parametrize("check", [True, False])
    def test_rejects_4_uniform(self, check):
        # judging an edge by its first three vertices would be wrong here
        G = new_hypergraph(4, 4, [(0, 1, 2, 3)])
        with pytest.raises(ValueError, match="lll_color handles 3-graphs"):
            col.lll_color(G, 3, seed=0, check=check)

    def test_layered_rejects_2_uniform(self):
        G = new_hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="lll_color handles 3-graphs"):
            col.layered_color(G, 5, 3, seed=0, check=False)

    @given(small_3graphs(), st.integers(1, 4), st.integers(0, 2 ** 32),
           st.sampled_from([0, 1, 5, None]))
    @settings(max_examples=300, deadline=None)
    def test_matches_rescan(self, G, r, seed, cap):
        assert col.lll_color(G, r, seed, max_resamples=cap, check=False) == \
            rescan_lll_color(G, r, seed, max_resamples=cap)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_rescan_medium(self, seed):
        G = cons.random_3graph(2000, 20_000, seed)
        r = 1
        while not col.lll_check(G, r).ok:
            r += 1
        res = col.lll_color(G, r, seed)
        assert isinstance(res, Coloring) and is_proper(G, res)[0]
        assert res == rescan_lll_color(G, r, seed)

    @given(small_3graphs(), st.integers(1, 4), st.integers(0, 2 ** 32))
    @settings(max_examples=200, deadline=None)
    def test_same_on_fresh_and_indexed_graph(self, G, r, seed):
        col.lll_color(G, r, seed + 1, check=False)  # builds G's index
        fresh = Hypergraph(G.n, G.k, G.edges)
        assert "at" in vars(G) and "at" not in vars(fresh)
        assert col.lll_color(fresh, r, seed, check=False) == \
            col.lll_color(G, r, seed, check=False)


class TestOneIndexPerGraph:
    def test_incidence_built_once(self, monkeypatch):
        # every module that holds core.incidence counts, wherever it is called
        real, calls = core.incidence, []

        def counting(n, edges):
            calls.append(n)
            return real(n, edges)

        for mod in (core, col, cons, containment, extremal):
            if getattr(mod, "incidence", None) is real:
                monkeypatch.setattr(mod, "incidence", counting)
        G = cons.random_3graph(60, 300, 7)
        assert col.lll_check(G, 20).ok
        for seed in range(3):
            assert is_proper(G, col.lll_color(G, 20, seed))[0]
        col.greedy_pluhar(G, VertexOrder.identity(G.n))
        assert calls == [60]


class TestSmallBigSplit:
    def test_complete7_r10_all_big(self):
        small, big = col.small_big_split(cons.complete(7), 10)
        assert small == () and len(big) == 7

    def test_matching_r10_all_small(self):
        small, big = col.small_big_split(matching(3), 10)
        assert big == () and len(small) == 9

    def test_threshold_covers_max_degree(self):
        G = cons.complete(5)
        r = 50  # c*r^2 = 2500/(12e) ~ 76 >= 6
        _, big = col.small_big_split(G, r)
        assert big == ()

    def test_vsmall_contract(self):
        # lll_check(G[V_small], ceil(r/2)) always passes
        from hyperchrome.core import induced
        for seed in range(25):
            rng = random.Random(seed)
            n = rng.randrange(4, 14)
            m = rng.randrange(0, min(40, math.comb(n, 3)) + 1)
            G = cons.random_3graph(n, m, 400 + seed)
            for r in (6, 10):
                small, _ = col.small_big_split(G, r)
                sub, _ = induced(G, small)
                assert col.lll_check(sub, math.ceil(r / 2)).ok


class TestPeelLayers:
    def test_matching_single_layer(self):
        dec = col.peel_layers(matching(4), 2)
        assert len(dec.layers) == 1 and not dec.core

    def test_complete5_theta7_single_layer(self):
        dec = col.peel_layers(cons.complete(5), 7)
        assert len(dec.layers) == 1 and dec.layers[0] == frozenset(range(5))

    def test_complete5_theta6_core(self):
        dec = col.peel_layers(cons.complete(5), 6)
        assert dec.core == frozenset(range(5)) and dec.layers == ()

    def test_partition_of_vertices(self):
        for seed in range(20):
            rng = random.Random(seed)
            n = rng.randrange(3, 10)
            m = rng.randrange(0, math.comb(n, 3) + 1)
            G = cons.random_3graph(n, m, 500 + seed)
            theta = rng.randrange(1, 5)
            dec = col.peel_layers(G, theta)
            pieces = list(dec.layers) + ([dec.core] if dec.core else [])
            union = set()
            for p in pieces:
                assert not (union & p)
                union |= p
            assert union == set(range(n))
            # every layer vertex had degree < theta inside its V_i
            from hyperchrome.core import induced
            current = set(range(n))
            for layer in dec.layers:
                sub, verts = induced(G, current)
                degs = sub.degrees()
                for i, v in enumerate(verts):
                    if v in layer:
                        assert degs[i] < theta
                current -= layer

    def test_bad_theta(self):
        with pytest.raises(ValueError):
            col.peel_layers(matching(2), 0)


def two_layer_instance(seed):
    """Sparse layer A over a matching layer B: every B vertex gets two cross
    edges into fresh A vertices, so deg_G(B) = 3 while G[B] stays a matching."""
    rng = random.Random(seed)
    m_b = rng.randrange(2, 5)
    m_a = rng.randrange(1, 4)
    edges = []
    nxt = 0
    b_verts = []
    for _ in range(m_b):
        edges.append((nxt, nxt + 1, nxt + 2))
        b_verts.extend((nxt, nxt + 1, nxt + 2))
        nxt += 3
    for b in b_verts:
        for _ in range(2):
            edges.append(tuple(sorted((b, nxt, nxt + 1))))
            nxt += 2
    for _ in range(m_a):
        edges.append((nxt, nxt + 1, nxt + 2))
        nxt += 3
    return new_hypergraph(nxt, 3, edges), frozenset(b_verts)


class TestLayeredColor:
    def test_matching_check_blocks_small_palette(self):
        # a matching has max degree 1 > 2^2/(3e), so per-layer lll_check fails
        res = col.layered_color(matching(4), 2, 2, seed=0)
        assert isinstance(res, col.ColoringFailure)
        assert res.stage == "layer-lll-check"

    def test_matching_override_still_colors(self):
        G = matching(4)
        res = col.layered_color(G, 2, 2, seed=0, check=False)
        assert is_proper(G, res)[0]
        assert res.used() <= 2

    def test_residual_core_reported(self):
        res = col.layered_color(cons.complete(5), 6, 3, seed=0)
        assert isinstance(res, col.ColoringFailure)
        assert res.stage == "residual-core"

    def test_two_layer_instances(self):
        for seed in range(20):
            G, B = two_layer_instance(seed)
            dec = col.peel_layers(G, 3)
            assert not dec.core and len(dec.layers) == 2
            assert dec.layers[1] == B
            res = col.layered_color(G, 3, 3, seed=seed)
            assert is_proper(G, res)[0]
            assert res.used() <= 2 * 3
            # cross-layer edges land in different palette blocks
            for e in G.edges:
                blocks = {res.colors[v] // 3 for v in e}
                layers = {0 if v not in B else 1 for v in e}
                if len(layers) > 1:
                    assert len(blocks) > 1

    def test_single_vertex_per_layer_palette(self):
        G = new_hypergraph(3, 3, [])
        res = col.layered_color(G, 1, 1, seed=0)
        assert res.used() == 1

    def test_resample_cap_names_its_layer(self):
        # one color cannot make the edge proper: 1000 resamples, then failure
        G = new_hypergraph(3, 3, [(0, 1, 2)])
        res = col.layered_color(G, 2, 1, seed=0, check=False)
        assert res == col.ColoringFailure(
            "resample-cap", {"layer": 0, "resamples": 1000, "edge": (0, 1, 2)})


class TestDyadicClasses:
    def test_matching_r2(self):
        dc = col.dyadic_classes(matching(3), 2)
        assert [k for k, _ in dc.classes] == [3]
        assert dc.classes[0][1] == frozenset(range(9))

    def test_empty_graph(self):
        assert col.dyadic_classes(new_hypergraph(5, 3, []), 3).classes == ()

    def test_compares_no_fractions(self, monkeypatch):
        # the threshold is rational, the degrees are integers: each test is
        # made on integers, so no Fraction comparison runs per vertex
        calls = []
        for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
            real = getattr(Fraction, name)
            monkeypatch.setattr(
                Fraction, name,
                lambda a, b, real=real: calls.append(1) or real(a, b))
        G = cons.random_3graph(40, 400, 5)
        dc = col.dyadic_classes(G, 3)
        monkeypatch.undo()
        assert dc == reference_dyadic_classes(G, 3) and dc.classes
        assert calls == []

    def test_partition_and_band_membership(self):
        for seed in range(20):
            rng = random.Random(seed)
            n = rng.randrange(4, 10)
            m = rng.randrange(0, math.comb(n, 3) + 1)
            G = cons.random_3graph(n, m, 600 + seed)
            r = rng.randrange(1, 6)
            dc = col.dyadic_classes(G, r)
            _, big = col.small_big_split(G, r)
            union = set()
            degs = G.degrees()
            base = dc.base_threshold
            for k, members in dc.classes:
                assert not (union & members)
                union |= members
                for v in members:
                    assert (2 ** k) * base <= degs[v] < (2 ** (k + 1)) * base
            assert union == set(big)


class TestIndependentRemoval:
    def test_matching_r4(self):
        G = matching(4)
        res = col.independent_removal_color(G, 4, seed=1)
        assert is_proper(G, res)[0]
        assert res.palette == 4

    def test_complete5_r3(self):
        G = cons.complete(5)
        res = col.independent_removal_color(G, 3, seed=1)
        assert is_proper(G, res)[0]

    def test_complete5_r2_palette_exhausted(self):
        res = col.independent_removal_color(cons.complete(5), 2, seed=1)
        assert isinstance(res, col.ColoringFailure)
        assert res.stage == "palette-exhausted"

    def test_greedy_fallback_on_large_class(self):
        # 30 disjoint edges at r = 1: the only dyadic class holds 90 vertices
        G = matching(30)
        res = col.independent_removal_color(G, 3, seed=2)
        assert is_proper(G, res)[0]

    def test_exact_searches_share_one_deadline(self, monkeypatch):
        # K5 at r = 3 runs two exact independent-set searches; both must
        # spend the meter of the call, not a fresh max_millis window each
        real = _kernels.mis_search
        meters = []

        def recording(n, edges, budget):
            meters.append(budget)
            return real(n, edges, budget)

        monkeypatch.setattr(_kernels, "mis_search", recording)
        G, budget = cons.complete(5), SearchBudget(max_millis=60_000)
        res = col.independent_removal_color(G, 3, seed=1, budget=budget)
        assert is_proper(G, res)[0]
        assert len(meters) == 2 and meters[0] is meters[1]
        assert meters[0].deadline > 0

    def test_budget_exhausted(self, monkeypatch):
        # the clock reads 0.0 when the budget starts, infinity after
        reads = iter([0.0])
        monkeypatch.setattr(core, "monotonic",
                            lambda: next(reads, float("inf")))
        res = col.independent_removal_color(cons.complete(5), 3, seed=1,
                                            budget=SearchBudget(max_millis=1))
        assert res == col.ColoringFailure("budget-exhausted",
                                          {"stage": "removal"})

    def test_deadline_checked_after_the_last_color(self, monkeypatch):
        # K5 at r = 2 runs out of colors; a deadline that passes during the
        # second round is seen before the palette is found exhausted
        reads = []

        def clock():  # read first as the budget starts; past it from the 4th
            reads.append(1)
            return float("inf") if len(reads) > 3 else 0.0

        monkeypatch.setattr(core, "monotonic", clock)
        res = col.independent_removal_color(cons.complete(5), 2, seed=1,
                                            budget=SearchBudget(max_millis=1))
        assert res.stage == "budget-exhausted" and len(reads) == 4
        res = col.independent_removal_color(cons.complete(5), 2, seed=1)
        assert res == col.ColoringFailure("palette-exhausted",
                                          {"remaining_vertices": 1})


class TestDeletionReadsTheIndex:
    """Vertex deletion reads G.at: peel_layers builds no graph, and the
    removal rounds induce from G itself.  The results equal those of the
    bodies that induced a relabelled graph every round (tests/oracles.py)."""

    def test_peel_layers_induces_nothing(self, monkeypatch):
        def refuse(G, S):
            raise AssertionError("peel_layers built an induced graph")

        monkeypatch.setattr(col, "induced", refuse)
        G = cons.random_3graph(60, 600, 3)
        dec = col.peel_layers(G, 30)
        assert len(dec.layers) > 1
        assert dec == reference_peel_layers(G, 30)

    def test_removal_induces_from_g_only(self, monkeypatch):
        real, sources = col.induced, []

        def recording(G, S):
            sources.append(G)
            return real(G, S)

        monkeypatch.setattr(col, "induced", recording)
        G = cons.complete(5)
        res = col.independent_removal_color(G, 3, seed=1)
        assert is_proper(G, res)[0]
        # two removal rounds (remainder and class), then the remainder
        assert len(sources) == 5 and all(g is G for g in sources)

    @given(G=small_3graphs(), theta=st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_peel_layers_matches_reference(self, G, theta):
        assert col.peel_layers(G, theta) == reference_peel_layers(G, theta)

    @given(G=small_3graphs(), theta=st.integers(1, 6),
           per_layer=st.integers(2, 5), seed=st.integers(0, 2 ** 32),
           check=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_layered_color_matches_reference(self, G, theta, per_layer,
                                             seed, check):
        got = col.layered_color(G, theta, per_layer, seed, check)
        with mock.patch.object(col, "peel_layers", reference_peel_layers), \
                mock.patch.object(col, "induced", reference_induced):
            want = col.layered_color(G, theta, per_layer, seed, check)
        assert got == want

    @given(G=small_3graphs(), r=st.integers(0, 8),
           seed=st.integers(0, 2 ** 32))
    @settings(max_examples=150, deadline=None)
    def test_removal_matches_reference(self, G, r, seed):
        assert col.independent_removal_color(G, r, seed) == \
            reference_independent_removal_color(G, r, seed)

    @pytest.mark.parametrize("seed", range(12))
    def test_removal_matches_reference_medium(self, seed):
        # 20-80 vertices at up to 8 edges per vertex: several removal
        # rounds, greedy classes above 24 vertices, and palette failures
        rng = random.Random(seed)
        n = rng.randrange(20, 81)
        G = cons.random_3graph(n, rng.randrange(n, 8 * n), 700 + seed)
        for r in (3, 6, 10, 16):
            assert col.independent_removal_color(G, r, seed) == \
                reference_independent_removal_color(G, r, seed)

    @given(G=small_3graphs(m_max=120), r=st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_dyadic_classes_match_reference(self, G, r):
        assert col.dyadic_classes(G, r) == reference_dyadic_classes(G, r)


class TestE288Extract:
    def test_partition33(self):
        G = cons.partition_example(3, 3)  # = K_6, vacuously sunflower-free
        out = col.e288_extract(G, VertexOrder.identity(6), 2)
        if isinstance(out, frozenset):
            assert len(out) == 2
            assert not any(set(e) <= out for e in G.edges)
        else:
            assert is_proper(G, out)[0]

    def test_empty_graph_colors(self):
        G = new_hypergraph(3, 3, [])
        out = col.e288_extract(G, VertexOrder.identity(3), 1)
        assert hasattr(out, "colors") and out.used() == 1

    def test_violation_detected_on_k7(self):
        # K_7 contains sunflower7, and any 3 picked vertices form an edge
        with pytest.raises(col.SunflowerViolation):
            col.e288_extract(cons.complete(7), VertexOrder.identity(7), 3)

    def test_gadget_extraction(self):
        # three petals around vertex 6 plus auxiliary color-forcing edges
        edges = [(0, 1, 6), (2, 3, 6), (4, 5, 6),
                 (0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4), (0, 1, 5),
                 (2, 3, 5)]
        G = new_hypergraph(7, 3, edges)
        from hyperchrome.containment import is_free
        assert is_free(G, cons.named("sunflower7"))
        out = col.e288_extract(G, VertexOrder.identity(7), 3)
        assert isinstance(out, frozenset) and len(out) == 3
        assert not any(set(e) <= out for e in G.edges)
