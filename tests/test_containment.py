import math
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperchrome import constructions as cons
from hyperchrome import containment
from hyperchrome.containment import contains, embedding_ok, is_free
from hyperchrome.core import Hypergraph, Meter, induced, new_hypergraph

from oracles import brute_contains, reference_contains


class TestExamples:
    def test_k4_contains_k4_minus(self):
        G, H = cons.complete(4), cons.named("k4_minus")
        emb = contains(G, H)
        assert emb is not None and embedding_ok(G, H, emb)

    def test_fano_contains_loose_triangle(self):
        G, H = cons.named("fano"), cons.loose_cycle(3)
        emb = contains(G, H)
        assert emb is not None and embedding_ok(G, H, emb)

    def test_fano_free_of_linear_pair(self):
        assert is_free(cons.named("fano"), cons.named("linear_pair"))

    def test_gq2_is_loose_triangle_free(self):
        assert is_free(cons.gq(2), cons.loose_cycle(3))

    def test_linear_graph_free_of_linear_pair(self):
        assert is_free(cons.gq(2), cons.named("linear_pair"))

    def test_k7_contains_sunflower(self):
        assert not is_free(cons.complete(7), cons.named("sunflower7"))

    def test_vacuous_freeness_by_size(self):
        assert is_free(cons.complete(5), cons.named("sunflower7"))

    def test_uniformity_mismatch(self):
        with pytest.raises(ValueError):
            contains(cons.gq(3), cons.loose_cycle(3))


# two edges on a common pair, embedded into K5 by the identity
TWO_EDGES = new_hypergraph(4, 3, [(0, 1, 2), (0, 1, 3)])
IDENTITY = {0: 0, 1: 1, 2: 2, 3: 3}
FORGED = {
    "vertex map not total": lambda: containment.Embedding(
        ((0, 0), (1, 1), (2, 2)), containment.Embedding.of(
            TWO_EDGES, IDENTITY).edge_map),
    "vertex map not injective": lambda: containment.Embedding.of(
        TWO_EDGES, {**IDENTITY, 3: 2}),
    "image outside V(G)": lambda: containment.Embedding.of(
        TWO_EDGES, {**IDENTITY, 3: 7}),
    "edge map not total": lambda: containment.Embedding(
        tuple(IDENTITY.items()), (((0, 1, 2), (0, 1, 2)),)),
    "edge image not the vertex images": lambda: containment.Embedding(
        tuple(IDENTITY.items()),
        (((0, 1, 2), (0, 1, 2)), ((0, 1, 3), (0, 1, 4)))),
}


class TestEmbeddingOk:
    def test_identity_accepted(self):
        emb = containment.Embedding.of(TWO_EDGES, IDENTITY)
        assert emb.edge_dict() == {(0, 1, 2): (0, 1, 2), (0, 1, 3): (0, 1, 3)}
        assert embedding_ok(cons.complete(5), TWO_EDGES, emb)

    @pytest.mark.parametrize("name", FORGED)
    def test_forgery_refused(self, name):
        assert not embedding_ok(cons.complete(5), TWO_EDGES, FORGED[name]())

    def test_image_edge_missing_from_g_refused(self):
        G = new_hypergraph(5, 3, [e for e in combinations(range(5), 3)
                                  if e != (0, 1, 3)])
        emb = containment.Embedding.of(TWO_EDGES, IDENTITY)
        assert not embedding_ok(G, TWO_EDGES, emb)


def random_pair(i):
    rng = random.Random(1000 + i)
    gn = rng.randrange(4, 9)
    hn = rng.randrange(2, 6)
    gm = rng.randrange(0, min(12, math.comb(gn, 3)) + 1)
    hm = rng.randrange(0, (math.comb(hn, 3) if hn >= 3 else 0) + 1)
    G = cons.random_3graph(gn, gm, 2000 + i)
    H = cons.random_3graph(hn, hm, 3000 + i)
    return G, H


class TestOracleEquivalence:
    def test_agrees_with_injection_enumeration(self):
        for i in range(80):
            G, H = random_pair(i)
            emb = contains(G, H)
            assert (emb is not None) == brute_contains(G, H)
            if emb is not None:
                assert embedding_ok(G, H, emb)


def uniform_graphs(k, n_max, m_max):
    """Random k-graphs on k-1..n_max vertices with at most m_max edges."""
    def on(n):
        pool = list(combinations(range(n), k))
        if not pool:
            return st.just(Hypergraph(n, k, ()))
        return st.lists(st.sampled_from(pool), unique=True, max_size=m_max).map(
            lambda edges: Hypergraph(n, k, tuple(sorted(edges))))
    return st.integers(k - 1, n_max).flatmap(on)


@st.composite
def host_and_pattern(draw):
    k = draw(st.sampled_from([2, 3, 3, 4]))
    return draw(uniform_graphs(k, 9, 30)), draw(uniform_graphs(k, 6, 6))


class TestAgainstRecursiveSearch:
    @settings(max_examples=300, deadline=None)
    @given(host_and_pattern())
    def test_same_first_embedding(self, pair):
        # the explicit-stack search must return the recursive search's
        # embedding, not just some embedding: the CLI goldens print it
        G, H = pair
        assert contains(G, H) == reference_contains(G, H)

    def test_deep_pattern_in_child_process(self):
        # one search level per vertex of H: a recursive search ran out of
        # stack on a 500-edge matching; here M has 1667 edges, 5001 vertices
        script = (
            "import time\n"
            "from hyperchrome.containment import contains\n"
            "from hyperchrome.core import Hypergraph\n"
            "M = Hypergraph(5001, 3, tuple((3 * i, 3 * i + 1, 3 * i + 2)\n"
            "                              for i in range(1667)))\n"
            "started = time.monotonic()\n"
            "emb = contains(M, M)\n"
            "identity = emb.vertex_map == tuple((v, v) for v in range(5001))\n"
            "print(identity, time.monotonic() - started)\n")
        src = str(Path(containment.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-500:]
        identity, seconds = proc.stdout.split()
        assert identity == "True"
        assert float(seconds) < 10.0


class TestProperties:
    def test_monotone_under_edge_addition(self):
        for i in range(25):
            G, H = random_pair(i)
            if contains(G, H) is None:
                continue
            rng = random.Random(i)
            import itertools
            pool = [e for e in itertools.combinations(range(G.n), 3)
                    if e not in G.edge_set()]
            if not pool:
                continue
            extra = rng.choice(pool)
            G2 = Hypergraph(G.n, 3, tuple(sorted(G.edge_set() | {extra})))
            assert contains(G2, H) is not None

    def test_freeness_hereditary_under_induced(self):
        for i in range(25):
            G, H = random_pair(i)
            if not is_free(G, H):
                continue
            rng = random.Random(i * 7)
            S = rng.sample(range(G.n), rng.randrange(0, G.n + 1))
            sub, _ = induced(G, S)
            assert is_free(sub, H)

    def test_empty_pattern_embeds_anywhere_large_enough(self):
        H = new_hypergraph(3, 3, [])
        assert contains(cons.complete(4), H) is not None
        assert contains(Hypergraph(2, 3, ()), H) is None

    def test_plan_builds_the_pattern_incidence_once(self, monkeypatch):
        calls = []
        incidence = containment.incidence

        def counted(n, edges):
            calls.append(n)
            return incidence(n, edges)

        monkeypatch.setattr(containment, "incidence", counted)
        assert contains(cons.complete(8), cons.complete(4)) is not None
        assert calls == [4]
        calls.clear()
        containment.ForbiddenTriples(cons.complete(4))
        assert calls == [4]

    @pytest.mark.parametrize("search, G", [
        (contains, cons.complete(6)),   # a copy, found after 3 descents
        (is_free, cons.named("fano")),  # none: the whole tree is searched
    ], ids=["contains-K6", "is_free-fano"])
    def test_an_unlimited_meter_counts_every_descent(self, search, G):
        # a meter with no cap and no deadline is charged as a capped one is
        K4 = cons.named("k4")
        unlimited, capped = Meter(), Meter(max_nodes=10 ** 6)
        assert search(G, K4, unlimited) == search(G, K4, capped)
        assert unlimited.nodes == capped.nodes > 0
