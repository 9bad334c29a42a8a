"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's search code: colorings and subsets by
full enumeration, containment by raw injection scans, chains by sequence
enumeration against the definitional validator.
"""

import itertools
import random

from hyperchrome.core import Coloring, is_ordered_chain, is_proper


def all_colorings(n, k):
    return itertools.product(range(k), repeat=n)


def brute_k_colorable(G, k):
    for assignment in all_colorings(G.n, k):
        if is_proper(G, Coloring(tuple(assignment), k))[0]:
            return True
    return False


def brute_chromatic(G):
    k = 1
    while True:
        if brute_k_colorable(G, k):
            return k
        k += 1


def brute_alpha(G):
    best = 0
    edges = [set(e) for e in G.edges]
    for size in range(G.n, -1, -1):
        for combo in itertools.combinations(range(G.n), size):
            chosen = set(combo)
            if not any(e <= chosen for e in edges):
                return size
    return best


def brute_contains(G, H):
    gset = set(G.edges)
    if H.n > G.n:
        return False
    for combo in itertools.permutations(range(G.n), H.n):
        if all(tuple(sorted(combo[v] for v in e)) in gset for e in H.edges):
            return True
    return False


def brute_longest_chain(G, ordv):
    """Longest ordered chain by enumerating edge sequences and checking the
    full definition through is_ordered_chain."""
    best = 0
    edges = list(G.edges)

    # every prefix of a valid chain is valid, so extending only valid
    # prefixes enumerates all chains
    def grow(seq):
        nonlocal best
        for e in edges:
            if e in seq:
                continue
            cand = seq + [e]
            if is_ordered_chain(G, cand, ordv):
                best = max(best, len(cand))
                grow(cand)

    grow([])
    return best


def brute_turan_ex(n, H):
    """ex(n, H) by enumerating every edge subset; use only for tiny n."""
    from hyperchrome.containment import contains
    from hyperchrome.core import Hypergraph

    triples = list(itertools.combinations(range(n), 3))
    best = 0
    for bits in range(1 << len(triples)):
        edges = tuple(triples[i] for i in range(len(triples)) if bits >> i & 1)
        if len(edges) <= best:
            continue
        if contains(Hypergraph(n, 3, edges), H) is None:
            best = len(edges)
    return best


def pool_random_3graph(n, m, seed):
    """Edges of a seeded random 3-graph drawn from the list of all C(n,3)
    triples: the reference that constructions.random_3graph must match."""
    pool = list(itertools.combinations(range(n), 3))
    return tuple(sorted(random.Random(seed).sample(pool, m)))


def scan_greedy_independent(G):
    """Min-degree-first greedy independent set, scanning every edge for every
    vertex: the reference for coloring._greedy_independent."""
    degs = G.degrees()
    chosen = set()
    for v in sorted(range(G.n), key=lambda v: (degs[v], v)):
        if not any(v in e and all(u in chosen or u == v for u in e)
                   for e in G.edges):
            chosen.add(v)
    return chosen
