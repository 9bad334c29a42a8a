"""Subgraph containment (not induced), H-freeness and the link rule of a
3-graph H: which links of a new vertex keep an H-free 3-graph H-free.

An embedding injects all of V(H) into V(G) so that every H-edge lands on a
G-edge.  Isolated H-vertices still consume distinct G-vertices, so a graph
with fewer vertices than H is vacuously H-free.

The containment search and the link rule's embeddings place the vertices
that lie in edges of the pattern one at a time, on an explicit stack, in a
connectivity-maximizing order, trying G's vertices by increasing index.
The candidates for the next vertex are an AND of bitmasks over V(G)
(Ullmann, "An algorithm for subgraph isomorphism", 1976): the unused
vertices of high enough degree and, for each pattern edge holding the
vertex and some placed ones, the link of their images, that is the
vertices of the G-edges holding all of those images (core.Links).  Once an
edge's other vertices are all placed, its link is exactly the vertices
completing it.  Each constraint is necessary, so the search meets the
valid maps in lexicographic order along the vertex order.  Vertices in no
pattern edge are wildcards: any unused vertices will do.  H's vertex
orbits come from core.canonical_form; this module builds no index.
"""

from collections import namedtuple
from itertools import combinations
from heapq import heapify, heappop, heappush
from operator import itemgetter

from .core import EXHAUSTED, UNLIMITED, Links, canonical_form, incidence


class Embedding(namedtuple("Embedding", "vertex_map edge_map")):
    """vertex_map: H-vertex -> G-vertex (injective, total on V(H));
    edge_map: H-edge -> its image edge in G."""

    # vertex_map = ((h_vertex, g_vertex), ...), edge_map = ((h_edge, g_edge), ...)
    __slots__ = ()

    @classmethod
    def of(cls, H, vmap):
        """The embedding of H given by a dict vmap: H-vertex -> G-vertex."""
        return cls(tuple(sorted(vmap.items())),
                   tuple((e, tuple(sorted(map(vmap.__getitem__, e))))
                         for e in H.edges))

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


def _h_order(at, edges):
    """The vertices in some edge of an edge list, in search order, given its
    incidence list at: next the vertex with the most edges into the placed
    set, ties by higher degree, then lower index."""
    touching = [0] * len(at)
    hits = dict.fromkeys(edges, 0)  # placed vertices per edge
    placed = [False] * len(at)
    heap = [(0, -len(e), u) for u, e in enumerate(at) if e]
    heapify(heap)
    order = []
    while heap:
        t, d, u = heappop(heap)
        if placed[u] or -t != touching[u]:
            continue  # superseded by an entry with a higher touching count
        placed[u] = True
        order.append(u)
        for e in at[u]:
            if not hits[e]:  # e now meets the placed set for the first time
                for w in e:
                    if not placed[w]:
                        touching[w] += 1
                        heappush(heap, (-touching[w], -len(at[w]), w))
            hits[e] += 1
    return order


def _plan(at, order):
    """The steps for embedding the edges of the incidence list at, placing
    the vertices of order in turn: steps[i] is (degree, links) for order[i],
    its degree and, for each set of earlier vertices that some edge holds
    together with order[i], an itemgetter of their positions."""
    pos = {u: i for i, u in enumerate(order)}
    steps = []
    for i, u in enumerate(order):
        placed = {tuple(pos[w] for w in e if w != u and pos[w] < i)
                  for e in at[u]}
        steps.append((len(at[u]), [itemgetter(*js) for js in sorted(placed)
                                   if js]))
    return steps


def _embeddings(steps, link, meter, at_least=None, keep=None):
    """Yield (phi, image) for every injective map phi of a plan's vertices
    into the vertices of link's graph that keeps their edges, in
    lexicographic order: phi[i] is the image of order[i], image the mask of
    all images, phi one list updated in place between yields.  With keep,
    of the maps that agree on the first keep vertices only the first comes.
    Calls on one graph may share at_least, the masks of the vertices of
    each degree or more.  Each descent is a node of the core.Meter meter,
    capped or not; it yields EXHAUSTED and stops as the kernels do, asking
    for the time every 64 nodes, not 4096: a descent may build link masks,
    O(degree) work each.  A meter full on entry is the caller's to refuse,
    as contains does."""
    width = len(steps)
    keep = width if keep is None else keep
    if not width:
        yield [], 0
        return
    at, at_least = link.at, {} if at_least is None else at_least
    for d, _ in steps:
        if d not in at_least:
            at_least[d] = sum(1 << g for g in range(len(at)) if len(at[g]) >= d)
    base = [at_least[d] for d, _ in steps]
    phi = [0] * width
    cands = [0] * width
    cands[0] = base[0]
    used, i = 0, 0
    while True:
        c = cands[i]
        if not c:
            if not i:
                return
            i -= 1
            used ^= 1 << phi[i]
            continue
        low = c & -c
        cands[i] = c ^ low
        phi[i] = low.bit_length() - 1
        if i + 1 == width:
            yield phi, used | low
            if keep < width:  # back to the last kept vertex's next image
                if not keep:
                    return
                for j in range(keep - 1, i):
                    used ^= 1 << phi[j]
                i = keep - 1
            continue
        used |= low
        i += 1
        meter.nodes += 1
        if 0 < meter.max_nodes < meter.nodes or (
                not meter.nodes & 63 and meter.late()):
            yield EXHAUSTED
            return
        m = base[i] & ~used
        for get in steps[i][1]:
            m &= link[get(phi)]
        cands[i] = m


def contains(G, H, budget=UNLIMITED):
    """An Embedding of H into G if one exists, else None; EXHAUSTED if the
    budget runs out first.

    The first valid map in the search order: the vertices in H's edges are
    placed as in the module docstring, and H's isolated vertices then take
    the lowest unused vertices of G.  A spent meter gives EXHAUSTED before
    any answer, also the trivial ones for an edgeless H or H.n > G.n.
    """
    if G.k != H.k:
        raise ValueError("uniformity mismatch")
    meter = budget.start()
    if meter.full():
        return EXHAUSTED
    if H.n > G.n:
        return None
    at = incidence(H.n, H.edges)
    order = _h_order(at, H.edges)
    first = next(_embeddings(_plan(at, order), Links(G), meter), None)
    if first is None or first is EXHAUSTED:
        return first
    phi, image = first
    vmap = dict(zip(order, phi))
    spare = (g for g in range(G.n) if not image >> g & 1)
    for u in range(H.n):
        if u not in vmap:
            vmap[u] = next(spare)
    return Embedding.of(H, vmap)


def is_free(G, H, budget=UNLIMITED):
    """True iff G contains no subgraph isomorphic to H; EXHAUSTED if the
    budget runs out first."""
    found = contains(G, H, budget)
    return found if found is EXHAUSTED else found is None


class LinkRule:
    """The link rule of one 3-graph H.  Let G be H-free and v a new vertex:
    G + v contains H iff, for some vertex u of H and some embedding phi of
    H - u into G, v's link holds phi(L(u)), the image of u's link L(u) (the
    pairs {a, b} with {a, b, u} in H).  sets(G) is the set of those images,
    each a mask over the pairs of G taken in combinations(range(G.n), 2)
    order; an empty one means every G + v contains H.

    One u per orbit of Aut(H) will do.  The orbits join each vertex with its
    images under the generators that core.canonical_form returns, for H of
    any size; key keeps the encoding of that call.  The plan of H - u places
    u's link vertices first, those in no edge of H - u as any unused vertex,
    then the other vertices in edges, of which the first completion is
    enough: they change no image.  The vertices in no edge of H - u outside
    L(u) always fit once G has H.n - 1 vertices.  When H - u has no edge, its
    images depend only on G.n and are kept per G.n.  The descents spend an
    unlimited meter of their own, not the caller's.
    """

    def __init__(self, H):
        self.H, self.memo = H, {}
        gens, orbit = [], list(range(H.n))  # union-find, least vertex first
        self.key = canonical_form(H, gens)

        def find(u):
            while orbit[u] != u:
                orbit[u] = u = orbit[orbit[u]]
            return u

        for g in gens:  # join each vertex that g moves with its image
            for u, w in g.items():
                a, b = sorted((find(u), find(w)))
                orbit[b] = a
        self.plans = []
        for u in range(H.n):
            if orbit[u] == u:
                link = [tuple(w for w in e if w != u) for e in H.at[u]]
                rest = [e for e in H.edges if u not in e]
                at, ends = incidence(H.n, rest), {w for p in link for w in p}
                inner = _h_order(at, rest)
                order = [w for w in inner if w in ends] + sorted(
                    ends.difference(inner)) + [w for w in inner if w not in ends]
                self.plans.append((u, _plan(at, order), len(ends), not rest, [
                    (order.index(a), order.index(b)) for a, b in link]))

    def sets(self, G):
        n = G.n
        if n + 1 < self.H.n:
            return set()
        if n not in self.memo:  # bit[a][b]: the mask of the pair {a, b}
            self.memo[n] = [[0] * n for _ in range(n)]
            for i, (a, b) in enumerate(combinations(range(n), 2)):
                self.memo[n][a][b] = self.memo[n][b][a] = 1 << i
        bit, found, link, at_least = self.memo[n], set(), Links(G), {}
        for u, steps, keep, edgeless, pos in self.plans:
            own = self.memo.get((u, n))
            if own is None:
                own = set()
                for phi, _ in _embeddings(steps, link, UNLIMITED.start(),
                                          at_least, keep):
                    mask = 0
                    for i, j in pos:
                        mask |= bit[phi[i]][phi[j]]
                    own.add(mask)
                if edgeless:
                    self.memo[u, n] = own
            found |= own
        return found
