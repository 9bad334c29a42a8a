import math
import os
import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperchrome import _kernels, containment, core
from hyperchrome import constructions as cons
from hyperchrome import extremal as ext
from hyperchrome.cache import ResultCache, ResultRecord, decode_graph, encode_graph
from hyperchrome.containment import (ForbiddenTriples, contains,
                                     embedding_ok, is_free)
from hyperchrome.core import (EXHAUSTED, Hypergraph, Meter, canonical_form,
                              is_linear, new_hypergraph)
from hyperchrome.exact import SearchBudget, independence_number

from oracles import (brute_canonical_form, brute_turan_ex, one_at_a_time_prune,
                     reference_embed_by_edge_order,
                     reference_find_edge_ordering,
                     reference_forbidden_level_reps,
                     reference_forbidden_plans, reference_hfree_level_reps)

LP = cons.named("linear_pair")


def grown(rng, m):
    """An H with m edges grown by the paper's rule, each edge after the
    first a pair of an earlier edge and a fresh vertex, then relabelled."""
    edges = [tuple(range(3))]
    for fresh in range(3, m + 2):
        a, b = sorted(rng.sample(rng.choice(edges), 2))
        edges.append((a, b, fresh))
    perm = rng.sample(range(m + 2), m + 2)
    return new_hypergraph(m + 2, 3, [[perm[v] for v in e] for e in edges])


class TestFindEdgeOrdering:
    def test_linear_pair(self):
        eo = ext.find_edge_ordering(LP)
        assert eo is not None
        assert eo.order == ((0, 1, 2), (0, 1, 3))
        assert eo.anchors == ((0, (0, 1), 3),)

    def test_single_edge_trivial(self):
        H = new_hypergraph(3, 3, [(0, 1, 2)])
        eo = ext.find_edge_ordering(H)
        assert eo is not None and len(eo.order) == 1 and eo.anchors == ()

    def test_size_condition_violated(self):
        with pytest.raises(ValueError):
            ext.find_edge_ordering(cons.loose_path(2))  # 5 vertices, 2 edges

    def test_orderable_triple_star(self):
        H = new_hypergraph(5, 3, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
        eo = ext.find_edge_ordering(H)
        assert eo is not None and len(eo.order) == 3

    def test_unorderable_shape(self):
        # every start strands the pair (2,4) outside earlier edges
        H = new_hypergraph(5, 3, [(0, 1, 2), (2, 3, 4), (0, 1, 4)])
        assert ext.find_edge_ordering(H) is None

    def test_isolated_vertex_blocks(self):
        # sizes match but vertex 4 is isolated, so no ordering reaches it
        H = new_hypergraph(5, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
        assert ext.find_edge_ordering(H) is None

    def test_uncovered_vertex_refused_at_once(self):
        # {0,1,i} for i = 2..12 plus {0,2,3}: vertex 13 is in no edge, and
        # the edges at the pair 0,1 can be interleaved in 11! ways
        m = 12
        H = new_hypergraph(m + 2, 3,
                           [(0, 1, i) for i in range(2, m + 1)] + [(0, 2, 3)])
        started = time.monotonic()
        assert ext.find_edge_ordering(H) is None
        assert time.monotonic() - started < 1.0

    def test_long_tight_path(self):
        # edges {i, i+1, i+2}: a search one level deep per edge
        m = 2000
        H = Hypergraph(m + 2, 3, tuple((i, i + 1, i + 2) for i in range(m)))
        eo = ext.find_edge_ordering(H)
        assert eo is not None and eo.order == H.edges
        for i, (j, pair, fresh) in enumerate(eo.anchors, start=1):
            assert j < i and set(pair) <= set(eo.order[j])
            assert eo.order[i] == tuple(sorted(pair + (fresh,)))
            assert all(fresh not in e for e in eo.order[:i])

    def test_interchangeable_edges_not_reordered(self):
        # {0,1,2}, {2,3,4}, {0,1,4} plus {0,1,i} for i = 5..m+1: covered, but
        # with no ordering; a depth-first search visits 2^(m-3) used-edge
        # sets here even with a memo of dead sets (12-16 s at m = 20), and
        # without one ~40 s at m = 11; one greedy pass places every edge but
        # {2,3,4} and stops
        m = 20
        H = new_hypergraph(m + 2, 3, [(0, 1, 2), (2, 3, 4), (0, 1, 4)]
                           + [(0, 1, i) for i in range(5, m + 2)])
        started = time.monotonic()
        assert ext.find_edge_ordering(H) is None
        assert time.monotonic() - started < 1.0

    @given(st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_same_ordering_as_reference(self, seed):
        # an orderable H on m + 2 vertices, some of whose edges are then
        # replaced by random triples, under a random relabelling
        rng = random.Random(seed)
        m = rng.randrange(1, 8)
        edges = [tuple(range(3))]
        for fresh in range(3, m + 2):
            a, b = rng.sample(rng.choice(edges), 2)
            edges.append((a, b, fresh))
        for i in rng.sample(range(m), rng.randrange(m + 1)):
            edges[i] = tuple(rng.sample(range(m + 2), 3))
        perm = rng.sample(range(m + 2), m + 2)
        relabelled = {tuple(sorted(perm[v] for v in e)) for e in edges}
        if len(relabelled) < m:
            return  # a replacement repeated an edge
        H = new_hypergraph(m + 2, 3, relabelled)
        assert ext.find_edge_ordering(H) == reference_find_edge_ordering(H)

    def test_every_small_edge_set_as_reference(self):
        # all 4972 sets of m <= 4 triples on m + 2 vertices
        count = 0
        for m in range(1, 5):
            for edges in combinations(combinations(range(m + 2), 3), m):
                H = Hypergraph(m + 2, 3, edges)
                assert ext.find_edge_ordering(H) == \
                    reference_find_edge_ordering(H), edges
                count += 1
        assert count == 4972


class TestPruneLowSupport:
    def test_k6_unchanged(self):
        G = cons.complete(6)
        assert ext.prune_low_support(G, 4).edges == G.edges

    def test_single_edge_emptied(self):
        G = new_hypergraph(3, 3, [(0, 1, 2)])
        assert ext.prune_low_support(G, 4).edges == ()

    def test_idempotent(self):
        for seed in range(20):
            rng = random.Random(seed)
            n = rng.randrange(4, 8)
            m = rng.randrange(0, math.comb(n, 3) + 1)
            G = cons.random_3graph(n, m, seed)
            once = ext.prune_low_support(G, 4)
            twice = ext.prune_low_support(once, 4)
            assert once.edges == twice.edges

    def test_pair_support_postcondition(self):
        for seed in range(15):
            G = cons.random_3graph(7, 20 + seed, 70 + seed)
            t = 4
            pruned = ext.prune_low_support(G, t)
            support = {}
            for e in pruned.edges:
                for p in combinations(e, 2):
                    support[p] = support.get(p, 0) + 1
            assert all(v >= t - 2 for v in support.values())

    @given(st.integers(3, 9).flatmap(lambda n: st.lists(
        st.sampled_from(list(combinations(range(n), 3))), unique=True,
        max_size=40).map(lambda edges: Hypergraph(n, 3, tuple(sorted(edges))))),
        st.integers(3, 7))
    @settings(max_examples=200, deadline=None)
    def test_matches_one_at_a_time(self, G, t):
        assert ext.prune_low_support(G, t) == one_at_a_time_prune(G, t)

    def test_ten_thousand_edges(self):
        # a sparse random graph, all of it pruned, beside a K7, all of it
        # kept: one edge per pass would recount 10^4 supports 10^4 times
        n = 2000
        sparse = cons.random_3graph(n, 10_000, 3).edges
        k7 = tuple(combinations(range(n, n + 7), 3))
        G = Hypergraph(n + 7, 3, sparse + k7)
        started = time.monotonic()
        pruned = ext.prune_low_support(G, 5)
        assert time.monotonic() - started < 5.0
        assert pruned.edges == k7


class TestEmbedByEdgeOrder:
    def test_k6_linear_pair(self):
        eo = ext.find_edge_ordering(LP)
        emb = ext.embed_by_edge_order(cons.complete(6), LP, eo)
        assert emb is not None and embedding_ok(cons.complete(6), LP, emb)

    def test_sparse_graph_none(self):
        eo = ext.find_edge_ordering(LP)
        G = new_hypergraph(5, 3, [(0, 1, 2)])
        assert ext.embed_by_edge_order(G, LP, eo) is None

    def test_guaranteed_when_dense(self):
        # the paper's guarantee: an H with an ordering on t <= 8 vertices
        # embeds in every G on n in [3t-6, 3t-1] vertices with more than
        # (t-3)·C(n, 2) edges; H is LP, grown by the paper's rule and then
        # relabelled, or a random 3-graph that has an ordering
        embedded = 0
        for i in range(600):
            rng = random.Random(4000 + i)
            m = rng.randrange(1, 7)
            H = (LP, grown(rng, m), cons.random_3graph(m + 2, m, i))[i % 3]
            eo = ext.find_edge_ordering(H)
            if eo is None:
                continue
            t = H.n
            n = rng.randrange(3 * t - 6, 3 * t)
            lo = (t - 3) * math.comb(n, 2) + 1
            G = cons.random_3graph(n, rng.randrange(lo, math.comb(n, 3) + 1),
                                   5000 + i)
            emb = ext.embed_by_edge_order(G, H, eo)
            assert emb is not None and embedding_ok(G, H, emb)
            embedded += 1
        assert embedded > 400  # every LP and grown H, and some random ones

    def test_uniformity_mismatch(self):
        eo = ext.find_edge_ordering(LP)
        with pytest.raises(ValueError, match="uniformity mismatch"):
            ext.embed_by_edge_order(cons.gq(3), LP, eo)

    @given(st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_same_embedding_as_reference(self, seed):
        # an H grown edge by edge from a pair of an earlier edge and a fresh
        # vertex, under a random relabelling, in a random G of any density
        rng = random.Random(seed)
        H = grown(rng, rng.randrange(1, 8))
        eo = ext.find_edge_ordering(H)
        assert eo is not None
        n = rng.randrange(3, 14)
        G = cons.random_3graph(n, rng.randrange(math.comb(n, 3) + 1), seed)
        assert ext.embed_by_edge_order(G, H, eo) == \
            reference_embed_by_edge_order(G, H, eo)


class TestTuranEx:
    def test_small_values(self):
        assert ext.turan_ex(4, LP).value == 1
        assert ext.turan_ex(5, LP).value == 2

    def test_against_bruteforce(self):
        for n in (4, 5):
            assert ext.turan_ex(n, LP).value == brute_turan_ex(n, LP)

    def test_six(self):
        rec = ext.turan_ex(6, LP)
        assert rec.value == 4 and rec.status == "exact"
        assert is_free(rec.witness, LP) and len(rec.witness.edges) == 4

    def test_monotone(self):
        assert ext.turan_ex(4, LP).value <= ext.turan_ex(5, LP).value \
            <= ext.turan_ex(6, LP).value

    def test_ordering_bound_cross_check(self):
        # ex(n, H) <= (t-3) C(n,2) whenever an edge ordering exists
        t = LP.n
        for n in (4, 5, 6):
            assert ext.turan_ex(n, LP).value <= (t - 3) * math.comb(n, 2)

    @pytest.mark.parametrize("n, value", [(8, 8), (9, 12)])
    def test_packing_numbers(self, n, value):
        # LP-free means linear, so ex(n, LP) is the packing number D(n, 3, 2)
        rec = ext.turan_ex(n, LP)
        assert (rec.value, rec.status) == (value, "exact")
        assert is_linear(rec.witness) and len(rec.witness.edges) == value

    def test_negative_n_rejected(self, tmp_path):
        path = str(tmp_path / "cache.txt")
        with pytest.raises(ValueError, match="vertex count must be nonnegative"):
            ext.turan_ex(-1, LP, cache=ResultCache(path))
        assert not ResultCache(path).records

    def test_node_cap_stops_mid_level(self):
        # the 1000th candidate is labelled at ~0.2 s, level 6 ends at ~1.7 s
        started = time.monotonic()
        rec = ext.turan_ex(7, K4, SearchBudget(max_nodes=1000))
        assert time.monotonic() - started < 0.5
        assert rec.status == "lower_bound"

    def test_budget_gives_lower_bound(self):
        rec = ext.turan_ex(7, LP, SearchBudget(max_nodes=2))
        assert rec.status == "lower_bound"
        assert rec.value <= 7
        assert is_free(rec.witness, LP)

    def test_large_n_in_bounded_memory(self):
        # the C(1000, 3) candidate triples would take several GB as a list;
        # the child process is capped at 512 MB of address space
        script = (
            "import resource, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
            "from hyperchrome.constructions import loose_path\n"
            "from hyperchrome.exact import SearchBudget\n"
            "from hyperchrome.extremal import turan_ex\n"
            "started = time.monotonic()\n"
            "rec = turan_ex(1000, loose_path(2), SearchBudget(max_millis=50))\n"
            "print(rec.value, rec.status, time.monotonic() - started)\n")
        src = str(Path(ext.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr[-500:]
        value, status, seconds = proc.stdout.split()
        assert (value, status) == ("0", "lower_bound")
        assert float(seconds) < 5.0


K4 = cons.named("k4")
P2 = cons.loose_path(2)

# (value, status, encoded witness) under SearchBudget(max_nodes=cap) for
# cap = 1..8.  One meter covers the whole call: the level search charges
# one node per candidate it labels, and ramsey's alpha calls their kernel
# nodes; both ramsey rows reach order 5 only at cap 8.
BUDGET_TABLE = {
    "turan_ex(6, LP)": (lambda b: ext.turan_ex(6, LP, b), [
        (1, "lower_bound", "6:3:1,2,3"),
        (1, "lower_bound", "6:3:1,2,3"),
        (2, "lower_bound", "6:3:1,2,3/1,4,5"),
        (3, "lower_bound", "6:3:1,2,3/1,4,5/2,4,6"),
        (4, "exact", "6:3:1,2,3/1,4,5/2,4,6/3,5,6"),
        (4, "exact", "6:3:1,2,3/1,4,5/2,4,6/3,5,6"),
        (4, "exact", "6:3:1,2,3/1,4,5/2,4,6/3,5,6"),
        (4, "exact", "6:3:1,2,3/1,4,5/2,4,6/3,5,6"),
    ]),
    "turan_ex(5, K4)": (lambda b: ext.turan_ex(5, K4, b),
                        [(1, "lower_bound", "5:3:1,2,3")] * 2
                        + [(2, "lower_bound", "5:3:1,2,3/1,2,4")] * 6),
    "ramsey(LP, 4, 7)": (lambda b: ext.ramsey(LP, 4, 7, b),
                         [(4, "lower_bound", "3:3:")] * 7
                         + [(5, "lower_bound", "4:3:1,2,3")]),
    "ramsey(P2, 4, 8)": (lambda b: ext.ramsey(P2, 4, 8, b),
                         [(4, "lower_bound", "3:3:")] * 7
                         + [(5, "lower_bound", "4:3:1,2,3")]),
}


@pytest.mark.parametrize("name", BUDGET_TABLE)
def test_node_cap_table(name):
    search, rows = BUDGET_TABLE[name]
    got = []
    for cap in range(1, len(rows) + 1):
        rec = search(SearchBudget(max_nodes=cap))
        got.append((rec.value, rec.status, encode_graph(rec.witness)))
    assert got == rows


@pytest.mark.parametrize("search", [
    lambda budget: ext.turan_ex(6, LP, budget),
    lambda budget: ext.ramsey(LP, 4, 7, budget),
], ids=["turan_ex", "ramsey"])
def test_deadline_stops_mid_level(search, monkeypatch):
    # the clock passes the deadline right after the third canonical form;
    # the search must notice before it starts building another candidate
    # (the deadline is checked per candidate, not only per completed level)
    real = ext.canonical_form
    calls = {"done": 0, "late": 0}
    passed = lambda: calls["done"] >= 3

    def counting(G, *args):
        calls["late"] += passed()
        out = real(G, *args)
        calls["done"] += 1
        return out

    monkeypatch.setattr(ext, "canonical_form", counting)
    monkeypatch.setattr(core, "monotonic",
                        lambda: float("inf") if passed() else 0.0)
    rec = search(SearchBudget(max_millis=60_000))
    assert rec.status == "lower_bound"
    assert calls["late"] <= 1


def test_ramsey_alpha_calls_share_its_deadline(tmp_path, monkeypatch):
    # a cached record whose witness has the right order but alpha = 5 >= t:
    # revalidation runs one independence-number call, fails, and the search
    # runs more
    path = str(tmp_path / "cache.txt")
    key = canonical_form(LP).decode()
    ResultCache(path).put(ResultRecord("ramsey", key, 4, 6, "exact",
                                       Hypergraph(5, 3, ())))
    real = _kernels.mis_search
    meters = []

    def recording(n, edges, budget):
        meters.append(budget)
        return real(n, edges, budget)

    monkeypatch.setattr(_kernels, "mis_search", recording)
    rec = ext.ramsey(LP, 4, 7, SearchBudget(max_millis=60_000),
                     cache=ResultCache(path))
    assert (rec.value, rec.status) == (5, "exact")
    assert len(meters) > 1 and all(m is meters[0] for m in meters)
    assert meters[0].deadline > 0


def test_capped_ramsey_overshoots_by_one_node(tmp_path):
    # revalidating the cached witness spends an alpha search (6 nodes) and a
    # freeness test; the search that follows one cut short enters no node
    path = str(tmp_path / "cache.txt")
    ext.ramsey(LP, 4, 7, cache=ResultCache(path))
    for cap in range(1, 9):
        meter = SearchBudget(max_nodes=cap).start()
        rec = ext.ramsey(LP, 4, 7, meter, cache=ResultCache(path))
        assert meter.nodes <= cap + 1
        assert rec.status == ("exact" if cap > 6 else "lower_bound")


@pytest.mark.parametrize("search", [
    lambda H: ext.turan_ex(6, H), lambda H: ext.ramsey(H, 4, 8),
], ids=["turan_ex", "ramsey"])
def test_pattern_labelled_once_per_call(search, monkeypatch):
    # the cache key is the encoding of ForbiddenTriples' own labelling of H
    labels = []
    for module in (ext, containment):
        real = module.canonical_form
        monkeypatch.setattr(module, "canonical_form", lambda G, *a, real=real:
                            labels.append(G is LP) or real(G, *a))
    rec = search(LP)
    assert labels.count(True) == 1 and rec.key == canonical_form(LP).decode()


# patterns for the forbidden triples: one orbit of edges (K4, C3), two
# (K4 minus an edge), wildcards on one and two vertices of an edge (LP, P2),
# an isolated vertex, a whole edge apart, no edges at all, no edges on more
# vertices than the 3..8 vertex hosts
FORBIDDING = {
    "K4": K4, "K4-": cons.named("k4_minus"), "LP": LP, "P2": P2,
    "C3": cons.loose_cycle(3), "LP+isolated": Hypergraph(5, 3, LP.edges),
    "edge+P2": Hypergraph(8, 3, ((0, 1, 2), (3, 4, 5), (5, 6, 7))),
    "edgeless": Hypergraph(3, 3, ()), "edgeless9": Hypergraph(9, 3, ()),
}


class TestForbiddenTriples:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(FORBIDDING)), st.integers(3, 8),
           st.randoms(use_true_random=False))
    def test_equal_to_containment_per_triple(self, name, n, rng):
        # a random H-free G: the triples of a random prefix that keep it so
        H = FORBIDDING[name]
        triples = list(combinations(range(n), 3))
        rng.shuffle(triples)
        edges = set()
        for e in triples[:rng.randrange(len(triples) + 1)]:
            if contains(Hypergraph(n, 3, tuple(sorted(edges | {e}))), H) is None:
                edges.add(e)
        G = Hypergraph(n, 3, tuple(sorted(edges)))
        forbidden = ForbiddenTriples(H).of(G)
        for e in combinations(range(n), 3):
            grown = Hypergraph(n, 3, tuple(sorted(edges | {e})))
            assert (e in forbidden) == (contains(grown, H) is not None), e

    def test_wildcards_are_not_enumerated(self):
        # P2 - f is one edge and f's other two vertices are wildcards: any of
        # the C(2997, 2) unused pairs, which must not be walked one by one
        G = Hypergraph(3000, 3, ((0, 1, 2),))
        started = time.monotonic()
        forbidden = ForbiddenTriples(P2).of(G)
        assert time.monotonic() - started < 0.5
        assert (0, 5, 6) in forbidden and (2, 2998, 2999) in forbidden
        assert (0, 1, 5) not in forbidden and (5, 6, 7) not in forbidden
        assert (0, 1, 2) not in forbidden


def _probed(plans):
    # itemgetters compare by identity: compare what they return from a probe
    probe = [f"position {i}" for i in range(64)]
    return [([(d, [get(probe) for get in links]) for d, links in steps], fixed)
            for steps, fixed in plans]


@pytest.mark.parametrize("H", list(FORBIDDING.values())
                         + [cons.named(name) for name in cons.NAMED]
                         + [cons.loose_cycle(3), cons.loose_cycle(4),
                            cons.loose_path(2), cons.loose_path(3)])
def test_plans_match_self_embedding_orbits(H):
    # on at most 8 vertices the orbits from canonical_form's generators are
    # those of embedding H less an edge into H itself
    assert H.n <= 8 or not H.edges
    assert _probed(ForbiddenTriples(H).plans) == \
        _probed(reference_forbidden_plans(H))


@pytest.mark.parametrize("H, before, after", [
    (cons.loose_cycle(5), 5, 1), (cons.loose_path(4), 4, 2),
    (cons.gq(2), 15, 1)], ids=["C5", "P4", "gq2"])
def test_one_plan_per_orbit_past_eight_vertices(H, before, after):
    # the self-embedding orbits stopped at 8 vertices and kept a plan per
    # edge beyond; one plan per orbit marks the same triples
    from hyperchrome.containment import _edge_images

    plans = reference_forbidden_plans(H)
    forbidden = ForbiddenTriples(H)
    assert (len(plans), len(forbidden.plans)) == (before, after)
    n = H.n + 1
    for seed in range(3):
        rng = random.Random(seed)
        perm = rng.sample(range(n), n)
        f = rng.choice(H.edges)
        near = {tuple(sorted(perm[v] for v in e)) for e in H.edges if e != f}
        near |= set(rng.sample(list(combinations(range(n), 3)), 3))
        near = Hypergraph(n, 3, tuple(sorted(near)))
        # near holds a copy of H less f, so the image of f is forbidden
        assert tuple(sorted(perm[v] for v in f)) in forbidden.of(near)
        for G in (near, cons.random_3graph(n, n, seed)):
            want, got = _edge_images(plans, G), forbidden.of(G)
            assert all((e in got) == (e in want)
                       for e in combinations(range(n), 3))


class CountingMeter(Meter):
    """A meter with no cap that counts its deadline reads; the deadline
    passes at read number late_at (never for 0)."""

    def __init__(self, late_at=0):
        super().__init__()
        self.reads, self.late_at = 0, late_at

    def late(self):
        self.reads += 1
        return self.reads == self.late_at


@pytest.mark.parametrize("n, name", [
    (5, "K4"), (7, "LP"), (6, "P2"), (6, "C3"), (5, "C3"), (6, "LP+isolated"),
    (5, "edgeless"), (5, "edgeless9"),
])
def test_level_search_matches_reference(n, name, monkeypatch):
    # same levels and representatives; the deadline is read where the
    # reference reads it and also once before each parent's forbidden
    # triples, and one node is charged per candidate labelled
    H = FORBIDDING[name]
    real, labelled = ext.canonical_form, []
    monkeypatch.setattr(ext, "canonical_form",
                        lambda G, *a: labelled.append(G) or real(G, *a))
    meter, checks = CountingMeter(), []
    levels = [(count, [encode_graph(R) for R in reps]) for count, reps
              in ext._hfree_level_reps(n, ForbiddenTriples(H), meter)]
    want = [(count, [encode_graph(R) for R in reps]) for count, reps
            in reference_hfree_level_reps(
                n, H, lambda k: checks.append(k) or False)]
    assert levels == want
    assert meter.reads == checks.count(0) + sum(len(reps) for _, reps in levels)
    assert meter.nodes == len(labelled) - 1  # less the empty graph


def _levels(search, n, H, budget):
    return [(count, [R.edges for R in reps])
            for count, reps in search(n, H, budget)]


@pytest.mark.parametrize("n, name", [
    (n, name) for name in ("K4", "LP", "P2", "K4-", "fano", "C3")
    for n in range(3, 7)] + [(7, "LP"), (7, "P2")])
def test_orbit_pruning_keeps_representatives(n, name):
    # skipping the candidates that a parent automorphism maps lower leaves
    # every level and representative as one canonical form per candidate
    # gives them
    H = cons.named("fano") if name == "fano" else FORBIDDING[name]
    assert _levels(ext._hfree_level_reps, n, ForbiddenTriples(H), Meter()) \
        == _levels(reference_forbidden_level_reps, n, H, lambda k: False)


@pytest.mark.parametrize("n, classes", [(5, 34), (6, 2136)])
def test_level_search_counts_every_class(n, classes):
    # sunflower7 has 7 vertices, so every 3-graph on n <= 6 is free of it
    # and the levels hold all isomorphism classes (OEIS A000665)
    levels = ext._hfree_level_reps(
        n, ForbiddenTriples(cons.named("sunflower7")), Meter())
    assert sum(len(reps) for _, reps in levels) == classes


def test_level_search_stops_at_the_per_parent_check():
    # the deadline is read first before level 0's one parent
    meter = CountingMeter(late_at=1)
    assert list(ext._hfree_level_reps(5, ForbiddenTriples(LP), meter)) == \
        [(0, [Hypergraph(5, 3, ())]), (1, EXHAUSTED)]
    assert (meter.reads, meter.nodes) == (1, 0)


@pytest.mark.parametrize("n", range(5))
def test_empty_graph_generators_are_adjacent_swaps(n):
    # the generators the level search starts from
    gens = []
    canonical_form(Hypergraph(n, 3, ()), gens)
    assert gens == [{u: u + 1, u + 1: u} for u in range(n - 1)]


class TestRamsey:
    def test_single_edge(self):
        H = new_hypergraph(3, 3, [(0, 1, 2)])
        rec = ext.ramsey(H, 3, 6)
        assert rec.value == 3 and rec.status == "exact"

    def test_linear_pair_t3(self):
        rec = ext.ramsey(LP, 3, 6)
        assert rec.value == 4 and rec.status == "exact"
        assert rec.witness.n == 3 and rec.witness.edges == ((0, 1, 2),)

    def test_linear_pair_t4(self):
        rec = ext.ramsey(LP, 4, 7)
        assert rec.value == 5 and rec.status == "exact"
        assert is_free(rec.witness, LP)
        assert independence_number(rec.witness) <= 3

    def test_witness_revalidates(self):
        rec = ext.ramsey(LP, 3, 6)
        assert is_free(rec.witness, LP)
        assert independence_number(rec.witness) <= 2

    def test_nmax_reached(self):
        rec = ext.ramsey(LP, 4, 3)
        assert rec.status == "lower_bound" and rec.value == 4

    def test_requires_edges(self):
        with pytest.raises(ValueError):
            ext.ramsey(new_hypergraph(3, 3, []), 3, 5)


class TestVerifyWitness:
    def test_fano_linear_pair(self):
        wr = ext.verify_witness(cons.named("fano"), LP, 2)
        assert wr.h_free and wr.chi == 3 and wr.chi_exceeds_r
        assert wr.implied_bound == 7

    def test_vacuous_freeness(self):
        wr = ext.verify_witness(cons.complete(5), cons.named("sunflower7"), 2)
        assert wr.h_free and wr.chi == 3 and wr.implied_bound == 10

    def test_loose_cycle_no_bound(self):
        wr = ext.verify_witness(cons.loose_cycle(3), LP, 2)
        assert wr.h_free and wr.chi == 2 and not wr.chi_exceeds_r
        assert wr.implied_bound is None

    def test_exhausted_in_band(self):
        wr = ext.verify_witness(cons.complete(9), LP, 2,
                                SearchBudget(max_nodes=2))
        assert wr.status == "exhausted" and wr.chi is None

    def test_node_cap_bounds_the_freeness_test(self):
        # the freeness test spends the node cap, before the chromatic number
        G = cons.random_3graph(200, 20_000, 0)
        started = time.monotonic()
        wr = ext.verify_witness(G, K4, 2, SearchBudget(max_nodes=100))
        assert time.monotonic() - started < 0.5
        assert wr.status == "exhausted" and wr.h_free is None

    def test_deadline_bounds_the_freeness_test(self):
        # finding the first K4 in this graph takes ~0.6 s of link masks;
        # the freeness test must stop at the 10 ms deadline, not finish first
        rng = random.Random(0)
        edges = set()
        while len(edges) < 20_000:
            edges.add(tuple(sorted(rng.sample(range(200), 3))))
        G = Hypergraph(200, 3, tuple(sorted(edges)))
        started = time.monotonic()
        wr = ext.verify_witness(G, K4, 2, SearchBudget(max_millis=10))
        assert time.monotonic() - started < 0.5
        assert wr.status == "exhausted" and wr.h_free is None
        assert wr.chi is None and wr.edge_count == 20_000


class TestCache:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "cache.txt")
        cache = ResultCache(path)
        rec = ext.turan_ex(5, LP, cache=cache)
        fresh = ResultCache(path)
        got = fresh.get("ex", rec.key, 5)
        assert got is not None and got.value == rec.value
        assert got.witness.edges == rec.witness.edges

    def test_cached_result_reused_and_coherent(self, tmp_path):
        path = str(tmp_path / "cache.txt")
        cache = ResultCache(path)
        first = ext.turan_ex(6, LP, cache=cache)
        again = ext.turan_ex(6, LP, cache=ResultCache(path))
        assert again.value == first.value
        assert canonical_form(again.witness) == canonical_form(first.witness)

    def test_corrupt_line_evicted(self, tmp_path):
        path = str(tmp_path / "cache.txt")
        cache = ResultCache(path)
        ext.turan_ex(4, LP, cache=cache)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("garbage line without tabs\n")
            fh.write("ex\tbroken\tnot_an_int\t1\texact\t3:3:\n")
        with open(path, "ab") as fh:
            fh.write(b"junk\xff\n")
        fresh = ResultCache(path)
        assert len(fresh.records) == 1

    def test_comments_blanks_and_unknown_fields_dropped(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("\n".join([
            "# ex\tkey\t3\t1\texact\t3:3:1,2,3",
            "",
            "   ",
            "ex\tkey\t4\t1\texact\t4:3:1,2,3",
            "chi\tkey\t5\t1\texact\t5:3:1,2,3",  # unknown kind
            "ex\tkey\t6\t1\tguess\t6:3:1,2,3",  # unknown status
        ]) + "\n", encoding="utf-8")
        assert list(ResultCache(str(path)).records) == [("ex", "key", 4)]

    def test_failed_replace_removes_the_temp_file(self, tmp_path,
                                                  monkeypatch):
        rec = ext.turan_ex(4, LP)

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            ResultCache(str(tmp_path / "cache.txt")).put(rec)
        assert [p.name for p in tmp_path.iterdir()] == ["cache.txt.lock"]

    def test_lying_witness_recomputed(self, tmp_path):
        path = str(tmp_path / "cache.txt")
        cache = ResultCache(path)
        key = canonical_form(LP).decode()
        bogus = ResultRecord("ex", key, 4, 3, "exact",
                             new_hypergraph(4, 3, [(0, 1, 2), (0, 1, 3),
                                                   (0, 2, 3)]))
        cache.put(bogus)
        rec = ext.turan_ex(4, LP, cache=ResultCache(path))
        assert rec.value == 1

    def test_ramsey_evicts_a_witness_of_other_uniformity(self, tmp_path):
        # the cached line ends in 5:4:1,2,3,4; taking alpha of that witness
        # raised "uniformity mismatch"
        path = str(tmp_path / "cache.txt")
        key = canonical_form(LP).decode()
        ResultCache(path).put(ResultRecord("ramsey", key, 4, 6, "exact",
                                           Hypergraph(5, 4, ((1, 2, 3, 4),))))
        rec = ext.ramsey(LP, 4, 7, cache=ResultCache(path))
        assert (rec.value, rec.status) == (5, "exact")
        assert ResultCache(path).get("ramsey", key, 4).value == 5

    def test_ramsey_evicts_a_witness_of_wrong_order_at_once(self, tmp_path):
        # alpha of an edgeless witness on 10^6 vertices takes seconds past
        # the 200 ms deadline; its order alone refuses it
        path = str(tmp_path / "cache.txt")
        key = canonical_form(LP).decode()
        ResultCache(path).put(ResultRecord("ramsey", key, 4, 6, "exact",
                                           Hypergraph(10**6, 3, ())))
        started = time.monotonic()
        rec = ext.ramsey(LP, 4, 7, SearchBudget(max_millis=200),
                         cache=ResultCache(path))
        assert time.monotonic() - started < 1.0
        assert (rec.value, rec.status) == (5, "exact")
        assert ResultCache(path).get("ramsey", key, 4).value == 5

    def test_graph_encoding_roundtrip(self):
        G = cons.loose_cycle(3)
        assert decode_graph(encode_graph(G)).edges == G.edges

    def test_lower_bound_record_not_served(self, tmp_path):
        path = str(tmp_path / "cache.txt")
        budgeted = ext.turan_ex(6, LP, SearchBudget(max_nodes=2),
                                cache=ResultCache(path))
        assert (budgeted.value, budgeted.status) == (1, "lower_bound")
        rec = ext.turan_ex(6, LP, cache=ResultCache(path))
        assert (rec.value, rec.status) == (4, "exact")
        assert ResultCache(path).get("ex", rec.key, 6).status == "exact"

    def test_lower_bound_never_replaces_exact(self, tmp_path):
        # revalidating the cached witness runs out of budget: the exact
        # record is neither served nor overwritten by the budgeted answer
        path = str(tmp_path / "cache.txt")
        first = ext.ramsey(LP, 3, 8, cache=ResultCache(path))
        assert (first.value, first.status) == (4, "exact")
        budgeted = ext.ramsey(LP, 3, 8, SearchBudget(max_nodes=1),
                              cache=ResultCache(path))
        assert budgeted.status == "lower_bound"
        kept = ResultCache(path).get("ramsey", first.key, 3)
        assert (kept.value, kept.status) == (4, "exact")

    @pytest.mark.parametrize("cap", range(1, 9))
    def test_unchecked_ex_record_kept_not_served(self, cap, tmp_path):
        # the freeness test of the cached witness is cut short, and its
        # EXHAUSTED is truthy: the record must be neither served nor evicted
        path = str(tmp_path / "cache.txt")
        first = ext.turan_ex(6, LP, cache=ResultCache(path))
        assert (first.value, first.status) == (4, "exact")
        rec = ext.turan_ex(6, LP, SearchBudget(max_nodes=cap),
                           cache=ResultCache(path))
        assert (rec.value, rec.status) == (0, "lower_bound")
        kept = ResultCache(path).get("ex", first.key, 6)
        assert (kept.value, kept.status) == (4, "exact")

    def test_unchecked_ramsey_record_kept_not_served(self, tmp_path):
        # the witness's alpha search takes all 6 nodes of the cap and
        # passes; the freeness test that follows is cut short
        path = str(tmp_path / "cache.txt")
        first = ext.ramsey(LP, 4, 7, cache=ResultCache(path))
        assert (first.value, first.status) == (5, "exact")
        meter = SearchBudget(max_nodes=6).start()
        rec = ext.ramsey(LP, 4, 7, meter, cache=ResultCache(path))
        assert rec.status == "lower_bound" and meter.nodes == 6
        kept = ResultCache(path).get("ramsey", first.key, 4)
        assert (kept.value, kept.status) == (5, "exact")

    def test_two_writers_keep_both_records(self, tmp_path):
        path = str(tmp_path / "cache.txt")
        first, second = ResultCache(path), ResultCache(path)
        a, b = ext.turan_ex(4, LP), ext.turan_ex(5, LP)
        first.put(a)
        second.put(b)
        assert set(ResultCache(path).records) == {("ex", a.key, 4),
                                                  ("ex", b.key, 5)}

    def test_evicted_record_stays_evicted(self, tmp_path):
        path = str(tmp_path / "cache.txt")
        a = ext.turan_ex(4, LP, cache=ResultCache(path))
        stale = ResultCache(path)  # loaded while a was stored
        ResultCache(path).evict("ex", a.key, 4)
        stale.put(ext.turan_ex(5, LP))
        assert set(ResultCache(path).records) == {("ex", a.key, 5)}

    def test_concurrent_writers_lose_nothing(self, tmp_path):
        # more writer processes than cores, each storing its own records
        path = str(tmp_path / "cache.txt")
        script = ("import sys\n"
                  "from hyperchrome.cache import ResultCache, ResultRecord\n"
                  "from hyperchrome.core import Hypergraph\n"
                  "w = int(sys.argv[1])\n"
                  "for i in range(10):\n"
                  "    ResultCache(sys.argv[2]).put(ResultRecord(\n"
                  "        'ex', f'w{w}', i, 0, 'exact', Hypergraph(3, 3, ())))\n")
        src = str(Path(ext.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        writers = [subprocess.Popen([sys.executable, "-c", script, str(w),
                                     path], env=env, stderr=subprocess.PIPE)
                   for w in range((os.cpu_count() or 1) + 2)]
        for proc in writers:
            assert proc.wait(timeout=60) == 0, proc.stderr.read()[-500:]
            proc.stderr.close()
        assert len(ResultCache(path).records) == 10 * len(writers)

    def test_brute_force_keys_never_answer_wrong(self, tmp_path):
        # a key of the former brute-force form is the edge list of a copy of
        # its H, so it can only match H's own class: at worst it is a miss
        path = str(tmp_path / "cache.txt")
        graphs = [LP, cons.named("k4"), cons.named("k4_minus"),
                  cons.named("neighborhood5"), cons.loose_path(2),
                  new_hypergraph(3, 3, [(0, 1, 2)])]
        truth = [ext.turan_ex(5, H) for H in graphs]
        cache = ResultCache(path)
        for H, rec in zip(graphs, truth):
            cache.put(ResultRecord("ex", brute_canonical_form(H).decode(), 5,
                                   rec.value, "exact", rec.witness))
        for H, rec in zip(graphs, truth):
            got = ext.turan_ex(5, H, cache=ResultCache(path))
            assert (got.value, got.status) == (rec.value, "exact")
            assert is_free(got.witness, H)
