"""Subgraph containment (not induced), H-freeness and the forbidden triples of
an H-free 3-graph.

An embedding injects all of V(H) into V(G) so that every H-edge lands on a
G-edge.  Isolated H-vertices still consume distinct G-vertices, so a graph
with fewer vertices than H is vacuously H-free.

Both searches place the vertices that lie in edges of the pattern one at a
time, on an explicit stack, in a connectivity-maximizing order, trying G's
vertices by increasing index.  The candidates for the next vertex are an AND
of bitmasks over V(G) (Ullmann, "An algorithm for subgraph isomorphism",
1976): the unused vertices of high enough degree and, for each pattern edge
holding the vertex and some placed ones, the link of their images, that is
the vertices of the G-edges holding all of those images (core.Links).
Once an edge's other vertices are all placed, its link is exactly the
vertices completing it.  Each constraint is necessary, so the search meets
the valid maps in lexicographic order along the vertex order.  Vertices in
no pattern edge are wildcards: any unused vertices will do.  H's edge
orbits come from core.canonical_form; this module builds no index.
"""

from collections import namedtuple
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


def _h_order(at, edges, root=()):
    """The vertices of an edge list in search order, given its incidence
    list at: the vertices of root, then the vertex with the most edges into
    the placed set, ties by higher degree, then lower index.  Vertices in no
    edge come last, by index."""
    n = len(at)
    touching = [0] * n
    for i, u in enumerate(root):  # above any count of edges: placed first
        touching[u] = len(edges) + 3 - i
    hits = dict.fromkeys(edges, 0)  # placed vertices per edge
    placed = [False] * n
    heap = [(-touching[u], -len(at[u]), u) for u in range(n)]
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


def _plan(n, edges, root=()):
    """Search plan for embedding an edge list on 0..n-1: (order, steps).
    order lists the vertices in edges in search order, root's first;
    steps[i] is (degree, links) for order[i]: its degree and, for each set
    of earlier vertices that some edge holds together with order[i], an
    itemgetter of their positions.  Root's vertices have no links: mapped
    onto one edge, as the caller does, they lie in every link they need."""
    at = incidence(n, edges)
    order = [u for u in _h_order(at, edges, root) if at[u]]
    pos = {u: i for i, u in enumerate(order)}
    steps = []
    for i, u in enumerate(order):
        placed = {tuple(pos[w] for w in e if w != u and pos[w] < i)
                  for e in at[u] if i >= len(root)}
        links = [itemgetter(*js) for js in sorted(placed) if js]
        steps.append((len(at[u]), links))
    return order, steps


def _embeddings(steps, link, meter, root=-1, at_least=None):
    """Yield (phi, image) for every injective map phi of a plan's vertices
    into the vertices of link's graph that keeps their edges and maps the
    first three into the mask root, in lexicographic order: phi[i] is the
    image of order[i], image the mask of all images, phi one list updated
    in place between yields.  Calls on one graph may share at_least, the
    masks of the vertices of each degree or more.  Each descent is a node
    of the core.Meter meter, capped or not; it yields EXHAUSTED and stops
    as the kernels do, asking for the time every 64 nodes, not 4096: a
    descent may build link masks, O(degree) work each.  A meter full on
    entry is the caller's to refuse, as contains does."""
    width = len(steps)
    if not width:
        yield [], 0
        return
    at, at_least = link.at, {} if at_least is None else at_least
    for d, _ in steps:
        if d not in at_least:
            at_least[d] = sum(1 << g for g in range(len(at)) if len(at[g]) >= d)
    base = [at_least[d] & (root if i < 3 else -1)
            for i, (d, _) in enumerate(steps)]
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
    order, steps = _plan(H.n, H.edges)
    first = next(_embeddings(steps, Links(G), meter), None)
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


class TripleMasks(namedtuple("TripleMasks", "pairs wholes")):
    """A set of vertex triples held as bitmasks: a triple {a, b, c} is in it
    when c is in pairs[(a, b)], b in pairs[(a, c)] or a in pairs[(b, c)]
    (pairs keyed with the lower vertex first), or when some mask in wholes
    holds all three."""

    __slots__ = ()

    def __contains__(self, e):
        a, b, c = sorted(e)
        get = self.pairs.get
        if (get((a, b), 0) >> c | get((a, c), 0) >> b | get((b, c), 0) >> a) & 1:
            return True
        return any(m >> a & m >> b & m >> c & 1 for m in self.wholes)


def _edge_images(plans, G, masks=TripleMasks({}, frozenset()), root=-1):
    """The triples of masks and each f' such that for some plan (steps,
    fixed) of an edge f of H, H - f embeds into G with f mapped onto f' and
    its first three vertices into the mask root.  fixed holds the positions
    of f's vertices in the plan's order; f's other vertices are wildcards
    over the unused vertices.  The descents spend an unlimited meter of
    their own, not the extension engine's."""
    pairs, wholes, seen = dict(masks.pairs), set(masks.wholes), set()
    full, link, at_least = (1 << G.n) - 1, Links(G), {}
    for steps, fixed in plans:
        for phi, image in _embeddings(steps, link, UNLIMITED.start(), root,
                                      at_least):
            ends = sorted(phi[j] for j in fixed)
            spare = full & ~image
            if len(ends) == 3:
                a, b, c = ends
                pairs[a, b] = pairs.get((a, b), 0) | 1 << c
            elif len(ends) == 2:
                key = tuple(ends)
                pairs[key] = pairs.get(key, 0) | spare
            elif len(ends) == 1:
                # f = {a, x, y} for any two spare x, y: mark y at each (a, x)
                a = ends[0]
                if (a, image) in seen:
                    continue
                seen.add((a, image))
                m = spare
                while m:
                    low = m & -m
                    m ^= low
                    x = low.bit_length() - 1
                    key = (a, x) if a < x else (x, a)
                    pairs[key] = pairs.get(key, 0) | spare
            else:
                wholes.add(spare)
    return TripleMasks(pairs, frozenset(wholes))


class ForbiddenTriples:
    """The forbidden triples of one 3-graph H: for an H-free 3-graph G,
    of(G) is the TripleMasks of the triples e with G + e containing H.

    Any copy of H in G + e uses e, so of(G) is the set of images of f over
    the embeddings of H - f into G, for one edge f of H per orbit of H's
    automorphisms, the first in edge order.  The orbits join each edge with
    its images under the generators of Aut(H) that core.canonical_form
    returns, for H of any size; key keeps the encoding of that call.  An H
    with no edges is contained in every G on at least H.n vertices, so then
    every triple is forbidden; an H on more vertices than G forbids none.

    grow(masks, G, e) is of(G) from masks = of(G - e): adding e adds only
    the images of f over the embeddings of H - f that map an edge h of
    H - f onto e, found on plans rooted at each such h, built on first use.
    """

    def __init__(self, H):
        if H.k != 3:
            raise ValueError("forbidden triples are for 3-graphs")
        self.H, self.rooted = H, []
        gens, orbit = [], {e: e for e in H.edges}  # union-find, least root
        self.key = canonical_form(H, gens)

        def root(e):
            while orbit[e] != e:
                orbit[e] = e = orbit[orbit[e]]
            return e

        for g in gens:  # join each edge that g moves with its image
            for e in {e for v in g for e in H.at[v]}:
                a, b = sorted((root(e), root(tuple(sorted(map(g.get, e, e))))))
                orbit[b] = a
        self.reps = [e for e in H.edges if orbit[e] == e]
        self.plans = [_fixed_plan(H, f) for f in self.reps]

    def of(self, G):
        if G.k != 3:
            raise ValueError("forbidden triples are for 3-graphs")
        if self.H.n > G.n:
            return TripleMasks({}, frozenset())
        if not self.H.edges:
            return TripleMasks({}, frozenset({(1 << G.n) - 1}))
        return _edge_images(self.plans, G)

    def grow(self, masks, G, e):
        if self.H.n > G.n:
            return masks
        self.rooted = self.rooted or [_fixed_plan(self.H, f, h) for f in
                                      self.reps for h in self.H.edges if h != f]
        return _edge_images(self.rooted, G, masks, sum(1 << v for v in e))


def _fixed_plan(H, f, root=()):
    # the plan of H - f rooted at root, and the positions of f's vertices
    order, steps = _plan(H.n, [e for e in H.edges if e != f], root)
    return steps, tuple(i for i, u in enumerate(order) if u in f)
