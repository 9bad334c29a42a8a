"""Acceptance suite.

One test per criterion, each printing a single pass/fail line (run with -s to
stream them).  Expected values are either fixed small facts checked against
independent brute-force oracles here, or frozen regression values that the
module's own exhaustive searches reproduce.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from hyperchrome import coloring as col
from hyperchrome import constructions as cons
from hyperchrome import exact
from hyperchrome import extremal as ext
from hyperchrome.containment import contains, embedding_ok, is_free
from hyperchrome.core import (Hypergraph, VertexOrder, balance,
                              canonical_form, induced, is_linear,
                              is_ordered_chain, is_proper, new_hypergraph)

from oracles import brute_contains, brute_longest_chain


@contextmanager
def criterion(num, name):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {num:02d} {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {num:02d} {name}: PASS ({time.monotonic() - t0:.1f}s)")


def test_c01_complete_graph_witness():
    with criterion(1, "complete-graph witness chi(K_{2r+1}) = r+1"):
        t0 = time.monotonic()
        for r in (1, 2, 3):
            assert exact.chromatic_number(cons.complete(2 * r + 1)) == r + 1
        assert time.monotonic() - t0 < 10.0


def test_c02_balance_formula():
    with criterion(2, "balance of loose cycles, linear pair, K4"):
        for l in range(3, 7):
            assert balance(cons.loose_cycle(l)).value == \
                Fraction(l - 1, 2 * l - 3)
        assert balance(cons.named("linear_pair")).value == Fraction(1)
        k4 = cons.named("k4")
        b = balance(k4)
        assert b.value == Fraction(3)
        # edge-subset brute-force oracle
        best = Fraction(0)
        for size in range(2, 5):
            for sub in itertools.combinations(k4.edges, size):
                cov = {v for e in sub for v in e}
                best = max(best, Fraction(size - 1, len(cov) - 3))
        assert best == b.value


def test_c03_pluhar_equivalence_exhaustive():
    # Exhaustively over all 1024 edge sets on 5 vertices and all 120 orders:
    # greedy extraction always yields an ordered (colors-1)-chain, and the
    # Pluhar equivalence holds: chi(G) > r iff every order admits an ordered
    # r-chain, with the brute-force chain enumerator as the second oracle.
    # (Per-order, greedy may use fewer colors than 1 + the longest chain:
    # {{0,1,2},{2,3,4}} under the identity order uses 2 colors against a
    # 2-chain, so the per-order count is checked as a lower bound.)
    with criterion(3, "Pluhar equivalence, exhaustive n=5"):
        t0 = time.monotonic()
        triples = list(itertools.combinations(range(5), 3))
        orders = [VertexOrder(p) for p in itertools.permutations(range(5))]
        for bits in range(1 << 10):
            edges = [triples[i] for i in range(10) if bits >> i & 1]
            G = Hypergraph(5, 3, tuple(edges))
            chi = exact.chromatic_number(G)
            min_chain = 10
            for ordv in orders:
                greedy = col.greedy_pluhar(G, ordv).coloring.used()
                longest = brute_longest_chain(G, ordv)
                assert greedy - 1 <= longest
                min_chain = min(min_chain, longest)
            assert chi == min_chain + 1
            for r in range(1, 5):
                assert (chi > r) == (min_chain >= r)
            if chi >= 2:
                # extraction oracle at the tight cap, every order
                cap = chi - 1
                for ordv in orders:
                    res = col.greedy_pluhar(G, ordv, palette_cap=cap)
                    assert isinstance(res, col.GreedyFailure)
                    chain = col.chain_from_failure(G, ordv, res)
                    assert len(chain) == cap
                    assert is_ordered_chain(G, chain, ordv)
        assert time.monotonic() - t0 < 300.0


def _bounded_degree_graph(n, cap, m_target, rng):
    pool = list(itertools.combinations(range(n), 3))
    rng.shuffle(pool)
    degs = [0] * n
    edges = []
    for e in pool:
        if len(edges) >= m_target:
            break
        if all(degs[v] < cap for v in e):
            edges.append(e)
            for v in e:
                degs[v] += 1
    return new_hypergraph(n, 3, edges)


def test_c04_lll_constructive():
    # 100 seeded graphs with max degree <= r^2/(3e); Moser-Tardos within
    # 1000 * |E| resamples in >= 99 of 100 runs, every success proper
    with criterion(4, "constructive local-lemma coloring"):
        caps = {4: 1, 6: 4, 8: 7}  # floor(r^2 / 3e)
        successes = 0
        for i in range(100):
            r = (4, 6, 8)[i % 3]
            rng = random.Random(9000 + i)
            n = rng.randrange(18, 30)
            G = _bounded_degree_graph(n, caps[r], n * caps[r] // 3, rng)
            assert col.lll_check(G, r).ok
            res = col.lll_color(G, r, seed=10_000 + i)
            if not isinstance(res, col.ColoringFailure):
                assert is_proper(G, res)[0]
                successes += 1
        assert successes >= 99


def test_c05_vsmall_consistency():
    with criterion(5, "small-degree side is ceil(r/2)-colorable"):
        for i in range(50):
            rng = random.Random(1100 + i)
            n = rng.randrange(6, 16)
            m = rng.randrange(0, min(3 * n, math.comb(n, 3)) + 1)
            G = cons.random_3graph(n, m, 1200 + i)
            for r in (6, 10):
                small, _ = col.small_big_split(G, r)
                sub, _ = induced(G, small)
                assert col.lll_check(sub, math.ceil(r / 2)).ok
                res = col.lll_color(sub, math.ceil(r / 2), seed=1300 + i)
                assert not isinstance(res, col.ColoringFailure)
                assert is_proper(sub, res)[0]


def _two_layer_instance(seed):
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


def test_c06_layered_coloring_skeleton():
    with criterion(6, "layered peeling coloring"):
        theta, per_layer = 3, 3
        for i in range(50):
            G, b_verts = _two_layer_instance(500 + i)
            dec = col.peel_layers(G, theta)
            assert not dec.core
            for layer in dec.layers:
                sub, _ = induced(G, layer)
                assert col.lll_check(sub, per_layer).ok
            res = col.layered_color(G, theta, per_layer, seed=600 + i)
            assert not isinstance(res, col.ColoringFailure)
            assert is_proper(G, res)[0]
            assert res.used() <= len(dec.layers) * per_layer
            layer_of = {}
            for idx, layer in enumerate(dec.layers):
                for v in layer:
                    layer_of[v] = idx
            for e in G.edges:
                if len({layer_of[v] for v in e}) > 1:
                    assert len({res.colors[v] for v in e}) > 1


def test_c07_independent_removal_skeleton():
    with criterion(7, "dyadic independent-set removal coloring"):
        for n in range(5, 10):
            G = cons.complete(n)
            chi = exact.chromatic_number(G)
            assert chi == math.ceil(n / 2)
            good = col.independent_removal_color(G, chi, seed=n)
            assert not isinstance(good, col.ColoringFailure)
            assert is_proper(G, good)[0]
            bad = col.independent_removal_color(G, chi - 1, seed=n)
            assert isinstance(bad, col.ColoringFailure)


def _sunflower_gadget(seed):
    # center 6 with petals {6,0,1},{6,2,3},{6,4,5}; auxiliary edges force the
    # petal pairs into colors 0, 1, 2 under the base order
    rng = random.Random(seed)
    base_edges = [(0, 1, 6), (2, 3, 6), (4, 5, 6),
                  (0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4),
                  (0, 1, 5), (2, 3, 5)]
    n = 7 + rng.randrange(0, 3)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [tuple(sorted(perm[v] for v in e)) for e in base_edges]
    G = new_hypergraph(n, 3, edges)
    base_order = [0, 1, 2, 3, 4, 5, 6] + list(range(7, n))
    ordv = VertexOrder(tuple(perm[v] for v in base_order))
    return G, ordv


def test_c08_e288_extraction():
    with criterion(8, "greedy-failure independent-set extraction"):
        sunflower = cons.named("sunflower7")
        checked = 0
        # 50 seeded 7-9 vertex gadgets failing at cap 3
        for i in range(50):
            G, ordv = _sunflower_gadget(7000 + i)
            assert is_free(G, sunflower)
            assert isinstance(col.greedy_pluhar(G, ordv, palette_cap=3),
                              col.GreedyFailure)
            out = col.e288_extract(G, ordv, 3)
            assert isinstance(out, frozenset) and len(out) == 3
            assert not any(set(e) <= out for e in G.edges)
            checked += 1
        # 50 seeded 6-vertex graphs with chi >= 3 failing at cap 2
        seed = 0
        while checked < 100:
            seed += 1
            rng = random.Random(20_000 + seed)
            G = cons.random_3graph(6, rng.randrange(10, 20), 30_000 + seed)
            if exact.chromatic_number(G) <= 2:
                continue
            perm = list(range(6))
            rng.shuffle(perm)
            ordv = VertexOrder(tuple(perm))
            if not isinstance(col.greedy_pluhar(G, ordv, palette_cap=2),
                              col.GreedyFailure):
                continue
            assert is_free(G, sunflower)  # vacuous: 6 < 7 vertices
            out = col.e288_extract(G, ordv, 2)
            assert isinstance(out, frozenset) and len(out) == 2
            assert not any(set(e) <= out for e in G.edges)
            checked += 1
        assert checked == 100  # and zero SunflowerViolation raises


def test_c09_edges_ordering_embedding():
    with criterion(9, "edge-ordering pruning and incremental embedding"):
        lp = cons.named("linear_pair")
        eo = ext.find_edge_ordering(lp)
        assert eo is not None
        for i in range(200):
            rng = random.Random(40_000 + i)
            n = rng.choice([6, 7])
            lo = math.comb(n, 2) + 1
            m = rng.randrange(lo, math.comb(n, 3) + 1)
            G = cons.random_3graph(n, m, 50_000 + i)
            emb = ext.embed_by_edge_order(G, lp, eo)
            assert emb is not None and embedding_ok(G, lp, emb)


def test_c10_extremal_ground_truths():
    with criterion(10, "ex and Ramsey ground truths"):
        lp = cons.named("linear_pair")
        t0 = time.monotonic()
        assert ext.turan_ex(4, lp).value == 1
        assert time.monotonic() - t0 < 120.0
        t0 = time.monotonic()
        assert ext.turan_ex(6, lp).value == 4
        assert time.monotonic() - t0 < 120.0
        t0 = time.monotonic()
        rec7 = ext.turan_ex(7, lp)
        assert rec7.value == 7
        assert canonical_form(rec7.witness) == canonical_form(cons.named("fano"))
        assert time.monotonic() - t0 < 120.0
        t0 = time.monotonic()
        rec = ext.ramsey(lp, 3, 6)
        assert rec.value == 4 and rec.status == "exact"
        assert time.monotonic() - t0 < 120.0


def test_c11_ordered_ramsey_identity():
    with criterion(11, "ordered Ramsey identity components"):
        for r, t in ((2, 3), (3, 3), (2, 4)):
            n = (t - 1) * r + 1
            for i in range(100):
                rng = random.Random(i * 31 + r * 7 + t)
                m = rng.randrange(0, math.comb(n, 3) + 1)
                G = cons.random_3graph(n, m, 90_000 + i * 3 + r + t)
                perm = list(range(n))
                rng.shuffle(perm)
                ordv = VertexOrder(tuple(perm))
                out = col.chain_or_independent(G, ordv, r, t)
                if isinstance(out, frozenset):
                    assert len(out) >= t
                    assert not any(set(e) <= out for e in G.edges)
                else:
                    assert len(out) == r
                    assert is_ordered_chain(G, out, ordv)
            P = cons.partition_example(r, t)
            assert exact.independence_number(P) == t - 1
            assert exact.chromatic_number(P) == r


def test_c12_good_upper_bound_construction():
    with criterion(12, "generalized quadrangle and blow-up"):
        g2 = cons.gq(2)
        assert g2.n == 15 and len(g2.edges) == 15
        assert set(g2.degrees()) == {3}
        assert is_linear(g2)
        assert is_free(g2, cons.loose_cycle(3))
        g3 = cons.gq(3)
        assert cons.gq_axiom_holds(g3)
        for m, tau, seed in ((8, 2, 1), (14, 2, 5), (21, 3, 9), (9, 1, 4)):
            G = cons.fq_blowup(cons.BlowupSpec(m, tau, seed))
            rng = random.Random(seed)
            perm = list(range(m))
            rng.shuffle(perm)
            rest = perm[tau * tau:]
            base, extra = divmod(len(rest), 2 * tau)
            sizes = [base + (1 if j < extra else 0) for j in range(2 * tau)]
            s_total = sum(sizes[0::2])
            t_total = sum(sizes[1::2])
            assert len(G.edges) == s_total * t_total


def test_c13_containment_oracle_equivalence():
    with criterion(13, "containment vs injection enumeration, 500 pairs"):
        for i in range(500):
            rng = random.Random(60_000 + i)
            gn = rng.randrange(4, 9)
            hn = rng.randrange(2, 6)
            gm = rng.randrange(0, min(12, math.comb(gn, 3)) + 1)
            hm = rng.randrange(0, (math.comb(hn, 3) if hn >= 3 else 0) + 1)
            G = cons.random_3graph(gn, gm, 70_000 + i)
            H = cons.random_3graph(hn, hm, 80_000 + i)
            emb = contains(G, H)
            assert (emb is not None) == brute_contains(G, H)
            if emb is not None:
                assert embedding_ok(G, H, emb)
