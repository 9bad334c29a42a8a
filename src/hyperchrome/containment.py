"""Subgraph containment (not induced) and H-freeness.

An embedding injects all of V(H) into V(G) so that every H-edge lands on a
G-edge.  Isolated H-vertices still consume distinct G-vertices, so a graph
with fewer vertices than H is vacuously H-free.
"""

from dataclasses import dataclass

from .core import incidence, pair_support


@dataclass(frozen=True)
class Embedding:
    """vertex_map: H-vertex -> G-vertex (injective, total on V(H));
    edge_map: H-edge -> its image edge in G."""

    vertex_map: tuple  # ((h_vertex, g_vertex), ...)
    edge_map: tuple    # ((h_edge, g_edge), ...)

    def vertex_dict(self):
        return dict(self.vertex_map)

    def edge_dict(self):
        return dict(self.edge_map)


def embedding_ok(G, H, emb):
    """Revalidate: injective total vertex map whose edge images are G-edges."""
    vmap = emb.vertex_dict()
    if sorted(vmap.keys()) != list(range(H.n)):
        return False
    images = list(vmap.values())
    if len(set(images)) != len(images):
        return False
    if any(not (0 <= g < G.n) for g in images):
        return False
    gset = G.edge_set()
    emap = emb.edge_dict()
    if sorted(emap.keys()) != sorted(H.edges):
        return False
    for h_edge, g_edge in emap.items():
        if tuple(sorted(vmap[v] for v in h_edge)) != g_edge:
            return False
        if g_edge not in gset:
            return False
    return True


def _h_order(H):
    # next vertex = most edges into the placed set, ties by higher degree,
    # then lower index
    at = incidence(H.n, H.edges)
    placed = []
    placed_set = set()
    remaining = set(range(H.n))
    while remaining:
        def score(u):
            touching = sum(1 for e in at[u]
                           if any(w in placed_set for w in e if w != u))
            return (-touching, -len(at[u]), u)
        u = min(remaining, key=score)
        placed.append(u)
        placed_set.add(u)
        remaining.remove(u)
    return placed


def contains(G, H):
    """An Embedding of H into G if one exists, else None.

    Backtracking over partial vertex maps in a connectivity-maximizing
    H-vertex order, pruning by degree and by pair co-edge counts.
    """
    if G.k != H.k:
        raise ValueError("uniformity mismatch")
    if H.n > G.n:
        return None
    g_degs = G.degrees()
    h_degs = H.degrees()
    g_support = pair_support(G.edges)
    h_support = pair_support(H.edges)
    gset = G.edge_set()
    order = _h_order(H)
    pos_of = {u: i for i, u in enumerate(order)}
    # for the vertex at position i: H-edges completed exactly when it is placed,
    # and H-pairs (with an earlier vertex) whose pair support we can prune on
    completed = [[] for _ in range(H.n)]
    pair_checks = [[] for _ in range(H.n)]
    for e in H.edges:
        last = max(e, key=lambda u: pos_of[u])
        completed[pos_of[last]].append(e)
    for p in h_support:
        u, w = p
        later = u if pos_of[u] > pos_of[w] else w
        pair_checks[pos_of[later]].append((p, h_support[p]))

    vmap = {}
    used = set()

    def place(i):
        if i == H.n:
            return True
        u = order[i]
        for g in range(G.n):
            if g in used or g_degs[g] < h_degs[u]:
                continue
            vmap[u] = g
            ok = True
            for p, need in pair_checks[i]:
                img = tuple(sorted((vmap[p[0]], vmap[p[1]])))
                if g_support.get(img, 0) < need:
                    ok = False
                    break
            if ok:
                for e in completed[i]:
                    if tuple(sorted(vmap[w] for w in e)) not in gset:
                        ok = False
                        break
            if ok:
                used.add(g)
                if place(i + 1):
                    return True
                used.remove(g)
            del vmap[u]
        return False

    if not place(0):
        return None
    vm = tuple(sorted(vmap.items()))
    em = tuple((e, tuple(sorted(vmap[w] for w in e))) for e in H.edges)
    return Embedding(vm, em)


def is_free(G, H):
    """True iff G contains no subgraph isomorphic to H."""
    return contains(G, H) is None
