import copy
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperchrome import constructions as cons
from hyperchrome import core
from hyperchrome.coloring import _greedy_independent
from hyperchrome.core import (Coloring, Hypergraph, Links, Meter,
                              SearchBudget, VertexOrder, balance, canonical_form, degree_order,
                              incidence, induced,
                              is_hyperforest, is_linear, is_ordered_chain,
                              is_proper, new_hypergraph, pair_support)

from oracles import (PerKeyLinks, all_colorings, brute_canonical_form,
                     reference_balance, reference_induced,
                     scan_greedy_independent)


def small_graph(seed, n_max=7, m_max=8):
    rng = random.Random(seed)
    n = rng.randrange(1, n_max + 1)
    pool = list(combinations(range(n), 3))
    m = rng.randrange(0, min(len(pool), m_max) + 1)
    return Hypergraph(n, 3, tuple(sorted(rng.sample(pool, m))))


class TestNewHypergraph:
    def test_loose_cycle_from_paper_edges(self):
        # 1-indexed {{1,2,3},{3,4,5},{5,6,1}}
        G = new_hypergraph(6, 3, [(0, 1, 2), (2, 3, 4), (4, 5, 0)])
        assert G.edge_set() == cons.loose_cycle(3).edge_set()

    def test_empty(self):
        G = new_hypergraph(3, 3, [])
        assert G.n == 3 and G.edges == ()

    def test_dedup_of_permuted_edge(self):
        G = new_hypergraph(4, 3, [(0, 1, 2), (2, 1, 0)])
        assert len(G.edges) == 1

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError):
            new_hypergraph(4, 3, [(0, 1, 1)])

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            new_hypergraph(3, 3, [(0, 1, 3)])

    def test_wrong_edge_size_rejected(self):
        with pytest.raises(ValueError):
            new_hypergraph(4, 3, [(0, 1)])


class TestDegree:
    def test_complete(self):
        G = cons.complete(5)
        assert all(G.degree(v) == 6 for v in range(5))

    def test_loose_cycle_shared_vertex(self):
        G = cons.loose_cycle(3)
        assert G.degree(0) == 2  # vertex shared by two edges

    def test_empty(self):
        G = new_hypergraph(4, 3, [])
        assert G.degree(2) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cons.complete(4).degree(4)


class TestIncidenceMemo:
    def test_memo_leaves_eq_hash_repr(self):
        G, H = cons.named("fano"), cons.named("fano")
        before = repr(G), hash(G)
        G.max_degree()
        assert "at" in vars(G) and "at" not in vars(H)
        assert G.at == incidence(G.n, G.edges) and G.at is G.at
        assert G == H and hash(G) == hash(H) == before[1]
        assert repr(G) == repr(H) == before[0]
        assert copy.deepcopy(G).at == G.at  # the memo travels with a copy


def uniform_graphs(k):
    """Random k-uniform hypergraphs on at most 9 vertices, up to 12 edges."""
    def on(n):
        pool = list(combinations(range(n), k))
        if not pool:
            return st.just(Hypergraph(n, k, ()))
        return st.lists(st.sampled_from(pool), unique=True, max_size=12).map(
            lambda edges: Hypergraph(n, k, tuple(sorted(edges))))
    return st.integers(0, 9).flatmap(on)


any_graph = st.sampled_from([3, 4]).flatmap(uniform_graphs)


@st.composite
def colored_graphs(draw):
    """A random 2-, 3- or 4-graph with a random coloring from 1..3 colors."""
    G = draw(st.sampled_from([2, 3, 4]).flatmap(uniform_graphs))
    palette = draw(st.integers(1, 3))
    colors = draw(st.lists(st.integers(0, palette - 1),
                           min_size=G.n, max_size=G.n))
    return G, Coloring(tuple(colors), palette)


class TestIndexLayer:
    """The index builders against their definitions, on 3- and 4-graphs."""

    @given(any_graph)
    @settings(max_examples=150, deadline=None)
    def test_incidence(self, G):
        at = incidence(G.n, G.edges)
        assert at == [[e for e in G.edges if v in e] for v in range(G.n)]

    @given(any_graph)
    @settings(max_examples=150, deadline=None)
    def test_pair_support(self, G):
        brute = {}
        for p in combinations(range(G.n), 2):
            count = sum(1 for e in G.edges if set(p) <= set(e))
            if count:
                brute[p] = count
        assert dict(pair_support(G.edges)) == brute

    @given(any_graph)
    @settings(max_examples=150, deadline=None)
    def test_degree_order(self, G):
        order = degree_order(G)
        assert sorted(order) == list(range(G.n))
        for u, w in zip(order, order[1:]):
            du, dw = G.degree(u), G.degree(w)
            assert du > dw or (du == dw and u < w)

    @given(any_graph)
    @settings(max_examples=150, deadline=None)
    def test_greedy_independent_matches_scan(self, G):
        assert _greedy_independent(G) == scan_greedy_independent(G)

    @given(any_graph.filter(lambda G: G.n > 0), st.integers(0, 12), st.data())
    @settings(max_examples=300, deadline=None)
    def test_links_match_per_key_reference(self, G, room, data):
        # bare vertices, pairs and triples, repeats allowed; a small room
        # also takes the path where a pair batch does not fit
        vertex = st.integers(0, G.n - 1)
        keys = data.draw(st.lists(vertex | st.tuples(vertex, vertex)
                                  | st.tuples(vertex, vertex, vertex),
                                  max_size=30))
        link, ref = Links(G), PerKeyLinks(G)
        link.room = min(link.room, room)
        for key in keys:
            assert link[key] == ref[key]

    def test_links_walk_each_list_once_for_pairs(self):
        class Walked(list):
            walks = 0

            def __iter__(self):
                self.walks += 1
                return super().__iter__()

        G = cons.random_3graph(30, 200, 5)
        keys = list(permutations(range(G.n), 2))
        random.Random(5).shuffle(keys)
        walks = {}
        for index in (Links, PerKeyLinks):
            link, ref = index(G), PerKeyLinks(G)
            link.at = [Walked(edges) for edges in link.at]
            for key in keys + keys:
                assert link[key] == ref[key]
            walks[index] = max(edges.walks for edges in link.at)
        # the per-key reference shows that the count sees repeated walks
        assert walks == {Links: 1, PerKeyLinks: G.n - 1}


class TestInduced:
    def test_complete_hereditary(self):
        G, _ = induced(cons.complete(5), {0, 1, 2, 3})
        assert G.edge_set() == cons.complete(4).edge_set()

    def test_single_edge_of_cycle(self):
        C = cons.loose_cycle(3)
        G, verts = induced(C, set(C.edges[0]))
        assert len(G.edges) == 1 and G.n == 3
        assert verts == C.edges[0]

    def test_empty_set(self):
        G, verts = induced(cons.loose_cycle(3), set())
        assert G.n == 0 and G.edges == () and verts == ()

    @given(data=st.data(), k=st.integers(2, 4), n=st.integers(0, 10))
    @settings(max_examples=200, deadline=None)
    def test_matches_edge_scan(self, data, k, n):
        # the walk of G.at keeps the edges, order and labels of a scan of
        # every edge followed by a sort
        pool = list(combinations(range(n), k))
        edges = data.draw(st.lists(st.sampled_from(pool), unique=True)
                          if pool else st.just([]))
        G = new_hypergraph(n, k, edges)
        S = data.draw(st.lists(st.integers(0, n - 1)) if n else st.just([]))
        assert induced(G, S) == reference_induced(G, S)


class TestIsProper:
    def test_mixed_edge(self):
        G = new_hypergraph(3, 3, [(0, 1, 2)])
        assert is_proper(G, Coloring((0, 0, 1), 2)) == (True, None)

    def test_monochromatic_edge(self):
        G = new_hypergraph(3, 3, [(0, 1, 2)])
        ok, witness = is_proper(G, Coloring((0, 0, 0), 1))
        assert not ok and witness == (0, 1, 2)

    def test_fano_not_2_colorable_exhaustive(self):
        fano = cons.named("fano")
        for assignment in all_colorings(7, 2):
            assert not is_proper(fano, Coloring(assignment, 2))[0]

    def test_partial_coloring_rejected(self):
        with pytest.raises(ValueError):
            is_proper(cons.complete(4), Coloring((0, 1), 2))

    @given(colored_graphs())
    @settings(max_examples=300, deadline=None)
    def test_first_monochromatic_edge(self, case):
        G, coloring = case
        mono = [e for e in G.edges
                if len({coloring.colors[v] for v in e}) == 1]
        expected = (False, mono[0]) if mono else (True, None)
        assert is_proper(G, coloring) == expected


class TestIsLinear:
    def test_fano(self):
        assert is_linear(cons.named("fano"))

    def test_linear_pair_is_not(self):
        assert not is_linear(cons.named("linear_pair"))

    def test_empty(self):
        assert is_linear(new_hypergraph(5, 3, []))


class TestIsHyperforest:
    def test_loose_path(self):
        assert is_hyperforest(cons.loose_path(3))

    def test_loose_cycle(self):
        assert not is_hyperforest(cons.loose_cycle(3))

    def test_two_edges_sharing_two_vertices(self):
        assert not is_hyperforest(cons.named("linear_pair"))

    def test_implies_linear(self):
        for seed in range(60):
            G = small_graph(seed)
            if is_hyperforest(G):
                assert is_linear(G)

    def test_hypertree_vertex_count(self):
        # covered vertices = 2|E| + components among covered vertices
        for seed in range(25):
            T = cons.random_hypertree(1 + seed % 5, seed)
            assert is_hyperforest(T)
            covered = {v for e in T.edges for v in e}
            assert len(covered) == 2 * len(T.edges) + 1


class TestBalance:
    def test_loose_cycles_formula(self):
        for l in range(3, 7):
            assert balance(cons.loose_cycle(l)).value == Fraction(l - 1, 2 * l - 3)

    def test_k4_balanced(self):
        b = balance(cons.named("k4"))
        assert b.value == Fraction(3, 1) and b.is_balanced

    def test_linear_pair(self):
        assert balance(cons.named("linear_pair")).value == Fraction(1)

    def test_needs_two_edges(self):
        with pytest.raises(ValueError):
            balance(new_hypergraph(3, 3, [(0, 1, 2)]))

    def test_k4_with_pendant_edge_unbalanced(self):
        G = new_hypergraph(6, 3, list(combinations(range(4), 3)) + [(3, 4, 5)])
        b = balance(G)
        assert b.value == Fraction(3, 1) and not b.is_balanced

    def test_matches_second_pass_reference(self):
        seen = set()
        for seed in range(80):
            G = small_graph(seed, m_max=7)
            if len(G.edges) >= 2:
                b = balance(G)
                assert b == reference_balance(G)
                seen.add(b.is_balanced)
        assert seen == {True, False}

    def test_witness_recomputation(self):
        for seed in range(40):
            G = small_graph(seed, m_max=6)
            if len(G.edges) < 2:
                continue
            b = balance(G)
            covered = {v for e in b.witness for v in e}
            assert Fraction(len(b.witness) - 1, len(covered) - 3) == b.value
            # no subset beats it
            for size in range(2, len(G.edges) + 1):
                for sub in combinations(G.edges, size):
                    cov = {v for e in sub for v in e}
                    assert Fraction(size - 1, len(cov) - 3) <= b.value


class TestOrderedChain:
    def test_valid_pair(self):
        G = new_hypergraph(5, 3, [(0, 1, 2), (2, 3, 4)])
        assert is_ordered_chain(G, [(0, 1, 2), (2, 3, 4)], VertexOrder.identity(5))

    def test_reversed_order_fails(self):
        G = new_hypergraph(5, 3, [(0, 1, 2), (2, 3, 4)])
        rev = VertexOrder(tuple(reversed(range(5))))
        assert not is_ordered_chain(G, [(0, 1, 2), (2, 3, 4)], rev)

    def test_empty_chain_fails(self):
        G = new_hypergraph(3, 3, [(0, 1, 2)])
        assert not is_ordered_chain(G, [], VertexOrder.identity(3))

    def test_edge_outside_graph_fails(self):
        G = new_hypergraph(5, 3, [(0, 1, 2)])
        assert not is_ordered_chain(G, [(0, 1, 2), (2, 3, 4)],
                                    VertexOrder.identity(5))

    def test_intersection_two_fails(self):
        G = new_hypergraph(4, 3, [(0, 1, 2), (1, 2, 3)])
        assert not is_ordered_chain(G, [(0, 1, 2), (1, 2, 3)],
                                    VertexOrder.identity(4))


def relabeled(G, perm):
    return new_hypergraph(G.n, G.k, [[perm[v] for v in e] for e in G.edges])


@st.composite
def graph_pairs(draw):
    """Two k-graphs (k = 3 or 4, n <= 7) with the same edge count, the
    second often a relabeled copy of the first."""
    k = draw(st.sampled_from((3, 4)))
    n = draw(st.integers(k, 7))
    pool = list(combinations(range(n), k))
    m = draw(st.integers(0, min(len(pool), 8)))
    edges = st.lists(st.sampled_from(pool), min_size=m, max_size=m,
                     unique=True)
    A = Hypergraph(n, k, tuple(sorted(draw(edges))))
    other = Hypergraph(n, k, tuple(sorted(draw(edges))))
    B = relabeled(draw(st.sampled_from((A, other))),
                  draw(st.permutations(range(n))))
    return A, B


def matching(m):
    return Hypergraph(3 * m, 3, tuple((3 * i, 3 * i + 1, 3 * i + 2)
                                      for i in range(m)))


class TestCanonicalForm:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_isomorphism_invariance(self, seed):
        rng = random.Random(seed)
        G = small_graph(seed, n_max=6)
        perm = list(range(G.n))
        rng.shuffle(perm)
        H = new_hypergraph(G.n, 3, [tuple(perm[v] for v in e) for e in G.edges])
        assert canonical_form(G) == canonical_form(H)

    def test_cycle_vs_path(self):
        # non-isomorphic: the path has degree-1 end vertices in single edges
        assert canonical_form(cons.loose_cycle(3)) != canonical_form(
            new_hypergraph(6, 3, [(0, 1, 2), (2, 3, 4)]))

    def test_empty_graphs_equal(self):
        assert canonical_form(new_hypergraph(4, 3, [])) == \
            canonical_form(new_hypergraph(4, 3, []))

    def test_vertex_count_matters(self):
        assert canonical_form(new_hypergraph(4, 3, [])) != \
            canonical_form(new_hypergraph(5, 3, []))

    def test_separates_small_nonisomorphic(self):
        # all 3-edge graphs on <= 5 vertices: canonical forms agree exactly
        # when a relabeling maps one onto the other
        pool = list(combinations(range(5), 3))
        graphs = [Hypergraph(5, 3, edges)
                  for edges in combinations(pool, 3)]
        rng = random.Random(5)
        sample = rng.sample(graphs, 30)
        for A in sample[:10]:
            for B in sample[10:20]:
                same_canon = canonical_form(A) == canonical_form(B)
                iso = any(
                    {tuple(sorted(p[v] for v in e)) for e in A.edges}
                    == B.edge_set()
                    for p in permutations(range(5)))
                assert same_canon == iso

    @given(graph_pairs())
    @settings(max_examples=150, deadline=None)
    def test_classes_match_brute_force(self, pair):
        A, B = pair
        assert (canonical_form(A) == canonical_form(B)) == \
            (brute_canonical_form(A) == brute_canonical_form(B))

    def test_all_four_edge_graphs_on_six_vertices(self):
        # the isomorphism classes are the orbits of S_6, generated by a
        # transposition and a 6-cycle; the forms must be constant on each
        # orbit and differ between orbits.  Some of these graphs, such as
        # 012/013/245/345, are regular but not vertex-transitive, so
        # refinement alone cannot label them.
        pool = list(combinations(range(6), 3))
        graphs = list(combinations(pool, 4))
        where = {edges: i for i, edges in enumerate(graphs)}
        forms = [canonical_form(Hypergraph(6, 3, edges)) for edges in graphs]
        orbit = list(range(len(graphs)))

        def root(i):
            while orbit[i] != i:
                i = orbit[i]
            return i

        for perm in ((1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)):
            for i, edges in enumerate(graphs):
                j = where[tuple(sorted(tuple(sorted(perm[v] for v in e))
                                       for e in edges))]
                assert forms[i] == forms[j]
                orbit[root(i)] = root(j)
        classes = {root(i) for i in range(len(graphs))}
        assert len(set(forms)) == len(classes)

    @pytest.mark.parametrize("G", [
        cons.named("fano"),
        cons.complete(8),
        cons.gq(2),
        cons.partition_example(4, 4),
        cons.loose_cycle(3),
        cons.loose_cycle(6),
        matching(20),
        Hypergraph(12, 3, ((0, 1, 2), (2, 3, 4))),
        new_hypergraph(10, 3, [[v + 3 for v in e]
                               for e in cons.named("fano").edges]),
        # regular, so refinement keeps one cell, but not vertex-transitive
        new_hypergraph(10, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
                       + [(4 + i, 4 + (i + 1) % 6, 4 + (i + 2) % 6)
                          for i in range(6)]),
    ], ids=["fano", "complete8", "gq2", "partition4_4", "loose_cycle3",
            "loose_cycle6", "matching20", "isolated_path", "isolated_fano",
            "k4_and_tight_cycle6"])
    def test_relabel_invariant(self, G):
        key = canonical_form(G)
        rng = random.Random(G.n)
        for _ in range(6):
            perm = list(range(G.n))
            rng.shuffle(perm)
            assert canonical_form(relabeled(G, perm)) == key
        # the encoding is an edge list of a copy of G, its own canonical form
        head, body = key.decode().split("|")
        assert head == f"{G.n}:{G.k}"
        edges = [tuple(map(int, e.split(","))) for e in body.split("/")]
        copy = new_hypergraph(G.n, G.k, edges)
        assert len(copy.edges) == len(G.edges)
        assert sorted(copy.degrees()) == sorted(G.degrees())
        assert canonical_form(copy) == key

    def test_isolated_vertices_not_factorial(self):
        # a labelling that orders the 1497 isolated vertices is factorial
        # in them, and recursing once per vertex overflows the stack
        script = ("from hyperchrome.core import Hypergraph, canonical_form\n"
                  "key = canonical_form(Hypergraph(1500, 3, ((0, 1, 2),)))\n"
                  "assert key == b'1500:3|0,1,2', key\n")
        src = str(Path(cons.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr[-500:]


def group_order(n, gens):
    """The order of the permutation group on 0..n-1 that the moved-point
    maps gens generate, by closing the identity under them."""
    perms = [tuple(g.get(v, v) for v in range(n)) for g in gens]
    seen = frontier = {tuple(range(n))}
    while frontier:
        frontier = {tuple(g[v] for v in p) for p in frontier
                    for g in perms} - seen
        seen |= frontier
    return len(seen)


def brute_automorphism_count(G):
    edges = G.edge_set()
    return sum({tuple(sorted(p[v] for v in e)) for e in edges} == edges
               for p in permutations(range(G.n)))


class TestAutomorphisms:
    @pytest.mark.parametrize("G", [
        cons.named("fano"), cons.complete(7), cons.gq(2), cons.loose_cycle(6),
        matching(20), Hypergraph(12, 3, ((0, 1, 2), (2, 3, 4))),
        Hypergraph(5, 3, ()),
    ], ids=["fano", "complete7", "gq2", "loose_cycle6", "matching20",
            "isolated_path", "edgeless"])
    def test_maps_are_automorphisms(self, G):
        found = []
        assert canonical_form(G, found) == canonical_form(G)
        edges = G.edge_set()
        for g in found:
            # a permutation of its moved points, stored without fixed points
            assert sorted(g) == sorted(g.values())
            assert all(0 <= v < G.n and g[v] != v for v in g)
            assert {tuple(sorted(g.get(v, v) for v in e))
                    for e in edges} == edges

    def test_generate_the_whole_group(self):
        # isolated vertices included: small_graph leaves many
        for seed in range(400):
            G = small_graph(seed, n_max=6)
            found = []
            key = canonical_form(G, found)
            assert key == canonical_form(G)
            assert group_order(G.n, found) == brute_automorphism_count(G), G


class TestVertexOrder:
    def test_inverse(self):
        o = VertexOrder((2, 0, 1))
        assert o.position == (1, 2, 0)
        assert VertexOrder(order=(2, 0, 1)) == o and o.n == 3

    def test_not_permutation(self):
        with pytest.raises(ValueError):
            VertexOrder((0, 0, 1))


class TestMeter:
    def test_one_meter_per_computation(self):
        meter = SearchBudget(max_nodes=5).start()
        assert meter.start() is meter and meter.deadline == 0
        assert meter.left() == 5
        meter.nodes = 5
        assert meter.left() == -1  # reached: no search may start
        assert Meter().left() == 0  # no cap

    def test_only_the_meter_and_the_kernels_read_the_clock(self):
        # the budget policy lives in core.Meter; the kernels read the clock
        # every 4096 nodes, and the command line only times the run
        src = Path(core.__file__).parent
        texts = {p.stem: p.read_text(encoding="utf-8")
                 for p in src.glob("*.py")}
        assert {m for m, text in texts.items()
                if "monotonic" in text or "import time" in text} == \
            {"core", "_kernels", "cli"}
        assert [line.strip() for line in texts["cli"].splitlines()
                if "monotonic" in line or "started" in line] == [
            "from time import monotonic",
            "started = monotonic()",
            '"wall_ms": round((monotonic() - started) * 1000.0, 3),']
