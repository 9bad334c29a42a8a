"""Hypergraph representation, structural predicates and exact structural quantities.

Vertices are 0-based integers below ``n``; edges are stored as sorted,
duplicate-free tuples.  All objects here are immutable and safe to share,
except two indexes that fill themselves as they are read (a Hypergraph's
incidence list, built once on first use, and a Links index) and the Meter
that one budgeted computation spends.  Every budgeted search says that its
Meter is spent in one way only: it returns (or yields) EXHAUSTED.
"""

from collections import Counter, namedtuple
from enum import Enum
from functools import cached_property
from itertools import combinations, islice
from operator import itemgetter, lt
from time import monotonic


class _Exhausted(Enum):
    # an Enum member stays one object after copy and pickle, so
    # `is EXHAUSTED` holds
    EXHAUSTED = "EXHAUSTED"

    def __repr__(self):
        return "EXHAUSTED"

    __str__ = __repr__


EXHAUSTED = _Exhausted.EXHAUSTED


class SearchBudget(namedtuple("SearchBudget", "max_nodes max_millis")):
    """Caps for exhaustive searches; 0 means unlimited.  start() gives the
    Meter of one computation, whose deadline counts from that call."""

    __slots__ = ()

    def __new__(cls, max_nodes=0, max_millis=0):
        if max_nodes < 0 or max_millis < 0:
            raise ValueError("budget caps must be nonnegative")
        return super().__new__(cls, max_nodes, max_millis)

    def start(self):
        return Meter(self.max_nodes, self.max_millis and
                     monotonic() + self.max_millis / 1000.0)


UNLIMITED = SearchBudget()


class Meter:
    """A started budget: one node cap, one monotonic() deadline (0 for none)
    and the nodes spent.  Every search spends budget.start(), and a Meter's
    start() is itself, so searches handed one meter share it.  A search adds
    each node it enters, capped or not, reads the clock only by late(), stops
    at the first node past the cap and starts none once full(): nodes never
    exceeds max_nodes + 1."""

    __slots__ = ("max_nodes", "deadline", "nodes")

    def __init__(self, max_nodes=0, deadline=0.0):
        self.max_nodes, self.deadline, self.nodes = max_nodes, deadline, 0

    def start(self):
        return self

    def full(self):
        """Whether the cap is reached."""
        return 0 < self.max_nodes <= self.nodes

    def late(self):
        """Whether the deadline has passed."""
        return 0 < self.deadline < monotonic()


class Hypergraph(namedtuple("Hypergraph", "n k edges")):
    """A k-uniform hypergraph on vertices 0..n-1.

    Invariants: every edge has exactly k distinct vertices below n, each edge
    tuple is sorted, and the edge list is sorted and duplicate-free.
    Construct through :func:`new_hypergraph`, which normalizes input.

    ``at``, the incidence list, is a memo: built by :func:`incidence` on
    first read and kept in the ``__dict__`` of this tuple subclass (it has
    no ``__slots__``), so ``==``, ``hash`` and ``repr`` still see only the
    tuple (n, k, edges).  Never modify it.
    """

    @cached_property
    def at(self):
        return incidence(self.n, self.edges)

    def degree(self, v):
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range 0..{self.n - 1}")
        return len(self.at[v])

    def max_degree(self):
        return max(map(len, self.at), default=0)

    def degrees(self):
        return list(map(len, self.at))

    def edge_set(self):
        return set(self.edges)


def new_hypergraph(n, k, edges):
    """Validate and normalize (n, k, edges) into a Hypergraph.

    Edges may be given in any order and orientation; duplicates collapse.
    Raises ValueError for a repeated vertex inside an edge, a vertex index
    outside 0..n-1, or an edge whose size differs from k, naming the first
    bad edge in input order.

    Input that already meets the invariants (as parse_hypergraph gives on a
    normalized file) is checked in bulk, column by column, and kept as it
    is; any other input is normalized edge by edge, with the same messages.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if k < 2:
        raise ValueError("uniformity must be at least 2")
    edges = list(edges)
    try:
        kept = _normalized(n, k, edges)
    except TypeError:
        kept = None
    if kept is not None:
        return Hypergraph(n, k, kept)
    normalized = set()
    for e in edges:
        t = tuple(sorted(e))
        if len(t) != k:
            raise ValueError(f"edge {t} has size {len(t)}, expected {k}")
        if len(set(t)) != k:
            raise ValueError(f"edge {t} repeats a vertex")
        if t[0] < 0 or t[-1] >= n:
            raise ValueError(f"edge {t} uses a vertex outside 0..{n - 1}")
        normalized.add(t)
    return Hypergraph(n, k, tuple(sorted(normalized)))


def _normalized(n, k, edges):
    """The edges as a tuple of tuples if every edge has size k, is strictly
    increasing and lies in 0..n-1, and the edge list is strictly increasing;
    None otherwise.  Each test is a C-level pass over a column or the list."""
    edges = tuple(map(tuple, edges))
    if not edges:
        return edges
    if set(map(len, edges)) != {k}:
        return None
    for j in range(1, k):
        if not all(map(lt, map(itemgetter(j - 1), edges), map(itemgetter(j), edges))):
            return None
    if min(map(itemgetter(0), edges)) < 0 or max(map(itemgetter(-1), edges)) >= n:
        return None
    if not all(map(lt, edges, islice(edges, 1, None))):
        return None
    return edges


def incidence(n, edges):
    """Per-vertex incidence of an edge list on 0..n-1: entry v lists the
    edges holding v, in edge order."""
    at = [[] for _ in range(n)]
    for e in edges:
        for v in e:
            at[v].append(e)
    return at


def pair_support(edges):
    """Vertex pair -> number of edges holding it.  Pairs keep the vertex
    order of their edge, so sorted edges give sorted pairs."""
    return Counter(p for e in edges for p in combinations(e, 2))


class Links(dict):
    """The link masks of a hypergraph G, built on first use from G.at:
    self[key] is the mask of the vertices of the edges holding every vertex
    of key, a tuple of vertices or a bare vertex (itemgetter of one position
    returns it).  Masks are kept while they fit in 2**27 bits (16 MB).

    A pair key (first, x) fills every (first, y) mask in one pass over
    at[first], and first joins filled, so a later pair key at first that is
    missing has mask 0.  When the whole batch does not fit, only the
    queried mask is kept."""

    def __init__(self, G):
        super().__init__()
        self.at, self.room = G.at, (1 << 27) // max(G.n, 1)
        self.filled = set()

    def __missing__(self, key):
        first, *rest = key if isinstance(key, tuple) else (key,)
        if len(rest) == 1:
            if first in self.filled:
                return 0
            masks = {}  # y -> mask of (first, y)
            for e in self.at[first]:
                bits = 0
                for w in e:
                    bits |= 1 << w
                for w in e:
                    masks[w] = masks.get(w, 0) | bits
            mask = masks.get(rest[0], 0)
            if len(masks) <= self.room:
                self.room -= len(masks)
                self.update(((first, y), m) for y, m in masks.items())
                self.filled.add(first)
                return mask
        else:
            mask = 0
            for e in self.at[first]:
                if all(v in e for v in rest):
                    for w in e:
                        mask |= 1 << w
        if self.room:
            self.room -= 1
            self[key] = mask
        return mask


def degree_order(G):
    """Vertices by descending degree, ties broken by lower index."""
    return sorted(range(G.n), key=G.degrees().__getitem__, reverse=True)


def induced(G, S):
    """Induced subgraph on the vertex set S, relabeled to 0..|S|-1.

    Returns (H, vertices) where vertices is the sorted tuple of original
    vertex ids; new label i corresponds to vertices[i].  Reads G.at: an
    edge inside S is kept once, at its least vertex.  The lists are in edge
    order and the relabelling is monotone, so the edges come out sorted.
    """
    vset = set(S)
    verts = tuple(sorted(vset))
    for v in verts:
        if not (0 <= v < G.n):
            raise ValueError(f"vertex {v} not in graph")
    index, at = {v: i for i, v in enumerate(verts)}, G.at
    kept = tuple(tuple(map(index.__getitem__, e)) for v in verts
                 for e in at[v] if e[0] == v and vset.issuperset(e))
    return Hypergraph(len(verts), G.k, kept), verts


class Coloring(namedtuple("Coloring", "colors palette")):
    """A total map vertex -> color index (0-based) with a fixed palette size."""

    __slots__ = ()

    def __new__(cls, colors, palette):
        if palette < 0:
            raise ValueError("palette must be nonnegative")
        for c in colors:
            if not (0 <= c < palette):
                raise ValueError(f"color {c} outside palette of {palette}")
        return super().__new__(cls, colors, palette)

    def color_classes(self):
        classes = [[] for _ in range(self.palette)]
        for v, c in enumerate(self.colors):
            classes[c].append(v)
        return [tuple(cl) for cl in classes]

    def used(self):
        return len(set(self.colors))


def is_proper(G, coloring):
    """(flag, witness): True iff no edge is monochromatic.

    On False the witness is the first (sorted order) monochromatic edge.
    """
    if len(coloring.colors) != G.n:
        raise ValueError("coloring is not total on V(G)")
    cols = coloring.colors
    for e in G.edges:
        c0 = cols[e[0]]
        if cols[e[1]] != c0:
            continue  # most edges of a proper coloring stop here
        for v in e:
            if cols[v] != c0:
                break
        else:
            return False, e
    return True, None


def is_independent(G, vertices):
    """True iff no edge of G lies inside `vertices`."""
    chosen = set(vertices)
    return not any(chosen.issuperset(e) for e in G.edges)


class VertexOrder(namedtuple("VertexOrder", "order position")):
    """A linear order on 0..n-1: order[i] = vertex at position i, position = inverse."""

    __slots__ = ()

    def __new__(cls, order):
        n = len(order)
        if sorted(order) != list(range(n)):
            raise ValueError("order is not a permutation of 0..n-1")
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        return super().__new__(cls, order, tuple(pos))

    def __getnewargs__(self):  # copy and pickle rebuild from the order
        return (self.order,)

    @classmethod
    def identity(cls, n):
        return cls(tuple(range(n)))

    @property
    def n(self):
        return len(self.order)


class OrderedChain(namedtuple("OrderedChain", "chain")):
    """Edges g_1..g_r with |g_i ∩ g_j| = 1 for |i-j| = 1 and 0 otherwise,
    monotone under an associated vertex order."""

    __slots__ = ()

    def __len__(self):
        return len(self.chain)


def is_ordered_chain(G, chain, ord):
    """Check the chain/ordering constraints of an OrderedChain against G.

    chain may be an OrderedChain or a plain sequence of edges.  All edges
    must belong to G; consecutive edges share exactly one vertex, others are
    disjoint, and max position of g_i <= min position of g_{i+1}.
    """
    edges = chain.chain if isinstance(chain, OrderedChain) else tuple(
        tuple(sorted(e)) for e in chain)
    if len(edges) == 0:
        return False
    eset = G.edge_set()
    if any(e not in eset for e in edges):
        return False
    sets = [set(e) for e in edges]
    r = len(edges)
    for i in range(r):
        for j in range(i + 1, r):
            want = 1 if j == i + 1 else 0
            if len(sets[i] & sets[j]) != want:
                return False
    pos = ord.position
    for i in range(r - 1):
        if max(pos[v] for v in edges[i]) > min(pos[v] for v in edges[i + 1]):
            return False
    return True


def is_linear(G):
    """True iff every pair of edges shares at most one vertex."""
    return max(pair_support(G.edges).values(), default=0) <= 1


def is_hyperforest(G):
    """True iff the bipartite vertex-edge incidence graph is acyclic.

    This is Berge-acyclicity; it implies linearity (two edges sharing two
    vertices create an incidence 4-cycle).
    """
    # union-find over vertex nodes (0..n-1) and edge nodes (n..n+m-1)
    parent = list(range(G.n + len(G.edges)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, e in enumerate(G.edges):
        enode = G.n + i
        for v in e:
            rv, re = find(v), find(enode)
            if rv == re:
                return False
            parent[rv] = re
    return True


class Balance(namedtuple("Balance", "value witness is_balanced")):
    """Exact maximum of (e'-1)/(v'-3) over edge subsets with >= 2 edges."""

    __slots__ = ()


def balance(H):
    """Balance of a 3-graph: brute force over all edge subsets with >= 2 edges.

    v' counts the vertices covered by the subset (isolated vertices only
    lower the ratio, so the maximum over subgraphs is attained there).
    Exact rationals throughout.  Raises ValueError below 2 edges.
    """
    from fractions import Fraction
    if H.k != 3:
        raise ValueError("balance is defined for 3-graphs")
    m = len(H.edges)
    if m < 2:
        raise ValueError("balance needs at least 2 edges")
    best = None
    best_sub = None
    for size in range(2, m + 1):
        for sub in combinations(H.edges, size):
            covered = set()
            for e in sub:
                covered.update(e)
            val = Fraction(size - 1, len(covered) - 3)
            if best is None or val > best:
                best, best_sub = val, sub
    # the last subset is the whole edge set, so val is its ratio
    return Balance(best, best_sub, val == best)


def canonical_form(G, automorphisms=None):
    """Canonical byte encoding: equal encodings iff isomorphic hypergraphs.

    Individualization-refinement (McKay & Piperno, "Practical graph
    isomorphism II", 2014).  The vertices in edges are partitioned into
    ordered cells, a cell's colour being the position of its first vertex.
    Refinement splits a cell until its vertices agree on the sorted
    multiset of the sorted colour tuples of their edges' other vertices;
    it reads colours only, never labels.  Isolated vertices take the last
    cell and are never individualized.  While some cell holds two or more
    vertices, each vertex of the first such cell is split off in turn and
    the partition refined again.  At a leaf every cell is a single vertex,
    labelled by its colour; the encoding is the smallest sorted edge list
    over all leaves, emitted as ``n:k|e1/e2/...``.

    A leaf whose edge list equals the first or best leaf's gives an
    automorphism.  The search then returns to the level where the two
    paths part, and it skips every vertex in the orbit of one already tried
    under the automorphisms found so far that fix the current path.

    automorphisms, when a list, receives generators of Aut(G), each a dict
    v -> g(v) over its moved points only: the automorphisms the search
    found, then the transpositions of consecutive isolated vertices.  The
    encoding is the same with or without it.
    """
    n, k, at = G.n, G.k, G.at
    # isolated vertices drop out: they would take labels a..n-1, in no edge
    active = [v for v in range(n) if at[v]]
    index = {v: i for i, v in enumerate(active)}
    edges = [tuple(index[v] for v in e) for e in G.edges]
    others = [[tuple(index[u] for u in e if u != v) for e in at[v]]
              for v in active]
    a = len(active)

    first = best = None  # leaves: (code, colour, path)
    gens = []  # automorphisms found, as vertex maps on 0..a-1

    def search(colour, cells, path):
        """Explore the node reached by individualizing path; returns the
        depth of the node to resume at (len(path) - 1: the parent)."""
        nonlocal first, best
        depth = len(path)
        if len(cells) == a:
            code = sorted(tuple(sorted(colour[v] for v in e)) for e in edges)
            if first is None:
                first = best = (code, colour, path)
                return depth - 1
            for ref_code, ref_colour, ref_path in (first, best):
                if code == ref_code:
                    vertex_at = [0] * a
                    for v, c in enumerate(ref_colour):
                        vertex_at[c] = v
                    gens.append([vertex_at[c] for c in colour])
                    # the automorphism maps the reference path onto this
                    # one, so both have this depth and part at some level
                    common = 0
                    while path[common] == ref_path[common]:
                        common += 1
                    return common
            if code < best[0]:
                best = (code, colour, path)
            return depth - 1

        start = min(c for c, members in cells.items() if len(members) > 1)
        tried = []
        orbit = list(range(a))  # union-find under gens fixing path
        merged = 0

        def root(v):
            while orbit[v] != v:
                orbit[v] = orbit[orbit[v]]
                v = orbit[v]
            return v

        for w in sorted(cells[start]):
            if tried:
                for g in gens[merged:]:
                    if all(g[x] == x for x in path):
                        for v in range(a):
                            orbit[root(v)] = root(g[v])
                merged = len(gens)
                if root(w) in {root(t) for t in tried}:
                    continue
            tried.append(w)
            child = colour[:]
            for u in cells[start]:
                child[u] = start + 1
            child[w] = start
            back = search(child, _equitable(child, others), path + [w])
            if back < depth:
                return back
        return depth - 1

    colour = [0] * a
    search(colour, _equitable(colour, others), [])
    if automorphisms is not None:
        for g in gens:
            automorphisms.append({active[v]: active[w]
                                  for v, w in enumerate(g) if v != w})
        isolated = [v for v in range(n) if not at[v]]
        automorphisms.extend({u: v, v: u}
                             for u, v in zip(isolated, isolated[1:]))
    body = "/".join(",".join(str(v) for v in e) for e in best[0])
    return f"{n}:{k}|{body}".encode()


def _equitable(colour, others):
    """Refine colour in place until equitable; returns colour -> members.

    colour[v] is the position of the first vertex of v's cell, so a split
    keeps the order of cells; others[v] lists, per edge at v, the other
    vertices of that edge.
    """
    while True:
        cells = {}
        for v, c in enumerate(colour):
            cells.setdefault(c, []).append(v)
        moved = {}
        for start, members in cells.items():
            if len(members) == 1:
                continue
            sig = {v: sorted(sorted([colour[u] for u in o]) for o in others[v])
                   for v in members}
            members.sort(key=sig.__getitem__)
            pos, prev = start, sig[members[0]]
            for i, v in enumerate(members):
                if sig[v] != prev:
                    pos, prev = start + i, sig[v]
                if pos != start:
                    moved[v] = pos
        if not moved:
            return cells
        for v, c in moved.items():
            colour[v] = c
