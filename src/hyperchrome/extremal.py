"""Exact Turan and Ramsey numbers at desk scale, the incremental
edge-ordering embedding, and witness verification for m_H(r) bounds.

turan_ex and ramsey are thin callers of one vertex-extension engine and one
cache driver.  Deleting a vertex keeps a graph H-free, so the H-free graphs
on m vertices are one-vertex extensions of those on m - 1: _extensions
yields those whose link meets given vertex sets, has a least size and
holds no set of the parent's link rule (containment.LinkRule: the images
of the link of a vertex u of H over the embeddings of H - u into the
parent), and _classes keeps the first of each core.canonical_form class.
turan_ex bounds each m by KNS (Katona, Nemetz and Simonovits, 1964) and an
edge floor; ramsey's links hit the independent (t-1)-sets (McKay and
Radziszowski, 1991).  All the searches of one call spend one core.Meter.
Budget-limited outcomes are labeled lower_bound and carry the best witness
found.  _cached owns the cache policy: records are keyed by
canonical_form(H), computed once per call by containment.LinkRule, only an
exact record whose witness revalidates is served, one that fails
revalidation is evicted, and one that cannot be revalidated within budget
is kept but not served.  A
key is the edge list of a copy of H, so a key written by any other
canonical labelling can only match H's own class and needs no version.
"""

from collections import namedtuple
from itertools import chain, combinations
from math import comb

from . import exact
from .cache import ResultRecord
# contains: read only by perfbench/; goes at ROADMAP item 1's declared change
from .containment import (Embedding, LinkRule, contains, embedding_ok,
                          is_free)
from .core import Hypergraph, Links, canonical_form, pair_support


class EdgeOrdering(namedtuple("EdgeOrdering", "order anchors")):
    """Edges h_1..h_{t-2} with, for each i > 1, an anchor (j, pair, fresh):
    pair lies inside h_j (j < i) and fresh appears in no earlier edge."""

    # anchors[i-1] = (j, (a, b), c) for edge order[i]
    __slots__ = ()


def find_edge_ordering(H):
    """A valid incremental edge ordering of H, or None if none exists.

    Requires |V(H)| = |E(H)| + 2 and uniformity 3.  One greedy pass from
    the first edge appends the lowest-index edge with one uncovered vertex
    x and its other two in a placed edge (the first such is its anchor).
    A depth-first search by index returns the same ordering, as it never
    backtracks.  Exchange: no edge before that one in a completion holds x,
    so it can go first.  Re-rooting: an ordering from any edge g is g, its
    anchor chain back to the old first edge, then the rest in order.
    """
    # Exchange: an earlier edge holding x would introduce x and leave the
    # moved edge with no fresh vertex.  Re-rooting: the edges holding a
    # vertex form an anchor chain back to the edge that introduced it, so
    # each chain edge introduces the vertex outside its child's pair, and an
    # edge off the chain keeps its fresh vertex, which lies in no chain
    # edge.  Hence the search never gets past start 0 and never backs out
    # of a prefix; the pass is O(m^3) where the search was exponential.
    if H.k != 3:
        raise ValueError("edge orderings are for 3-graphs")
    if H.n != len(H.edges) + 2:
        raise ValueError(f"need |V| = |E| + 2, got |V|={H.n}, "
                         f"|E|={len(H.edges)}")
    if len({v for e in H.edges for v in e}) < H.n:
        return None  # an ordering covers every vertex; this H leaves one out
    order, anchors, covered = [H.edges[0]], [], set(H.edges[0])
    rest = list(H.edges[1:])
    while rest:
        for i, e in enumerate(rest):
            fresh = [v for v in e if v not in covered]
            if len(fresh) == 1:
                a, b = (v for v in e if v != fresh[0])
                j = next((j for j, f in enumerate(order) if a in f and b in f),
                         None)
                if j is not None:
                    break
        else:
            return None  # no edge can follow
        order.append(rest.pop(i))
        anchors.append((j, (a, b), fresh[0]))
        covered.add(fresh[0])
    return EdgeOrdering(tuple(order), tuple(anchors))


def prune_low_support(G, t):
    """Repeatedly delete the edges one of whose pairs lies in at most t-3
    edges, a whole sweep at a time, until a sweep deletes nothing.

    Supports only fall, so the fixpoint is order-independent: every surviving
    pair supports 0 or at least t-2 edges.
    """
    if t < 3:
        raise ValueError("t must be at least 3")
    edges = set(G.edges)
    while True:
        support = pair_support(edges)
        low = {e for e in edges
               if any(support[p] <= t - 3 for p in combinations(e, 2))}
        if not low:
            return Hypergraph(G.n, G.k, tuple(sorted(edges)))
        edges -= low


def embed_by_edge_order(G, H, ord):
    """Grow an embedding of H into G edge by edge along a valid EdgeOrdering.

    Prunes G first.  The first edge of the ordering lands on the first edge
    of the pruned graph.  Each later edge holds an anchored pair {a, b} of
    an earlier edge and a fresh vertex; with {u, v} the image of {a, b},
    the paper's step "there is e in E(G') - E(H) which contains v and u"
    is a lookup in the link of {u, v} (core.Links): the fresh vertex goes
    to its lowest vertex outside the image.  When the pruned graph keeps
    an edge the growth never fails (each anchored pair supports >= t-2
    edges while the partial image uses fewer), which happens whenever
    |E(G)| > (t-3) * C(n,2).
    """
    if G.k != H.k:
        raise ValueError("uniformity mismatch")
    pruned = prune_low_support(G, H.n)
    if not pruned.edges:
        return None
    link = Links(pruned)
    vmap = dict(zip(ord.order[0], pruned.edges[0]))
    image = sum(1 << v for v in pruned.edges[0])
    for _, (a, b), fresh in ord.anchors:
        free = link[vmap[a], vmap[b]] & ~image
        if not free:
            return None
        vmap[fresh] = (free & -free).bit_length() - 1
        image |= 1 << vmap[fresh]
    # a vertex of H in no edge is never placed and fails the revalidation;
    # the size condition |V| = |E| + 2 rules it out whenever an ordering exists
    emb = Embedding.of(H, vmap)
    return emb if embedding_ok(G, H, emb) else None


def _extensions(G, rule, hits, need, meter, memo=None):
    """Yield the one-vertex extensions G + v of an H-free 3-graph G, for
    rule = containment.LinkRule(H) and v = G.n, whose link (the pairs
    {a, b} with {a, b, v} an edge) holds a pair inside every vertex set in
    hits and at least need pairs, each once.

    G + v is H-free iff its link holds no set of rule.sets(G), which
    _compiled turns into what the search reads; memo, a dict kept across
    calls with one rule, keeps that per (G.n, G.edges).  Links are masks
    over the pairs of range(G.n) as rule.pairs(G.n) lays them out.  A pair
    that is a set on its own is never open; including a pair bans the last
    open pair of each set that it leaves one short.  While some set in
    hits is not hit, the search branches on which of its pairs, in order,
    is included, banning the earlier ones; then it includes, then excludes,
    each undecided pair in index order.  If the rule holds the empty set
    (H has a vertex in no edge and the rest of H embeds into G), nothing
    comes.  The core.Meter meter is read before G + v and before each pair
    included (its deadline), and charged one node per pair included.  Each
    child is built once, at its leaf.  Once spent, yields EXHAUSTED."""
    if meter.late():
        yield exact.EXHAUSTED
        return
    v, key, memo = G.n, (G.n, G.edges), {} if memo is None else memo
    if key not in memo:
        memo[key] = _compiled(rule, G)
    if memo[key] is None:
        return
    banned, within = memo[key]
    pairs, bit = rule.pairs(v)
    sets = [sum(bit[a][b] for a, b in combinations(S, 2)) for S in hits]
    stack = [(0, (1 << len(pairs)) - 1 & ~banned, -1)]
    while stack:
        link, open_, i = stack.pop()
        if i >= 0:  # include pair i first
            if meter.late() or meter.full():
                yield exact.EXHAUSTED
                return
            meter.nodes += 1
            link |= 1 << i
            for S in within[i]:
                if not (S & ~link) & (S & ~link) - 1:  # one pair short
                    open_ &= ~S
        if link.bit_count() + open_.bit_count() < need:
            continue
        s = next((s for s in sets if not s & link), 0)
        if s:  # the j-th pair of s to hit it bans the earlier ones
            for j in reversed(range(len(pairs))):
                if (s & open_) >> j & 1:
                    stack.append((link, open_ & ~(s & (2 << j) - 1), j))
        elif open_:
            low = open_ & -open_
            stack.append((link, open_ ^ low, -1))
            stack.append((link, open_ ^ low, low.bit_length() - 1))
        else:
            yield Hypergraph(v + 1, 3, tuple(sorted(G.edges + tuple(
                p + (v,) for i, p in enumerate(pairs) if link >> i & 1))))


def _compiled(rule, G):
    """rule.sets(G) as _extensions reads it: None if it holds the empty
    set, else (banned, within).  banned is the mask of the pairs that are
    a set on their own, which never enter the link.  Every other set of two
    or more pairs, unless it holds a banned pair, is listed at each of its
    pairs: within[i] holds the sets with pair i."""
    found = rule.sets(G)
    if 0 in found:
        return None
    banned = sum(S for S in found if not S & (S - 1))
    within = [[] for _ in range(comb(G.n, 2))]
    for S in found:
        if S & banned:
            continue  # it holds a pair that never enters the link
        m = S
        while m:
            within[(m & -m).bit_length() - 1].append(S)
            m &= m - 1
    return banned, within


def _classes(extensions):
    """The extensions yielded by any of the iterables in extensions, one
    per canonical form, the first seen; EXHAUSTED if one yields it."""
    classes = {}
    for child in chain.from_iterable(extensions):
        if child is exact.EXHAUSTED:
            return child
        classes.setdefault(canonical_form(child), child)
    return list(classes.values())


def _cached(kind, key, param, cache, valid, search):
    """The record for (kind, key, param): served from cache when
    valid(record) is True, else computed by search() -> (value, status,
    witness) and stored.  valid returns EXHAUSTED when it cannot check
    within budget; such a record is kept, a false one evicted."""
    if cache is not None:
        rec = cache.get(kind, key, param)
        if rec is not None and rec.status == "exact":
            ok = valid(rec)
            if ok is True:  # EXHAUSTED is truthy and checks nothing
                return rec
            if ok is not exact.EXHAUSTED:
                cache.evict(kind, key, param)
    rec = ResultRecord(kind, key, param, *search())
    if cache is not None:
        cache.put(rec)
    return rec


def turan_ex(n, H, budget=exact.UNLIMITED, cache=None):
    """ex(n, H): maximum edges of an H-free 3-graph on n vertices.

    Walks m = 3..n.  From KNS's bound m * ex(m-1) / (m-3), capped at
    C(m, 3), f falls until one extension with f edges is found of the
    classes on m-1 vertices with at least f - 3f/m edges; the first f found
    is ex(m).  Those classes come from the same rule one vertex down,
    memoised per (m, floor) within the call.  A parent's compiled link rule
    (_compiled) is kept for the call too, in a memo that holds only those,
    per (n, edges), so that each f and each floor it is met at reuse it;
    the pair layout per vertex count is the LinkRule's.  On budget
    exhaustion the status is lower_bound and the witness the one for
    ex(m-1) with vertices in no edge added, or the empty graph if H has a
    vertex in no edge.  An exact cache record is served only when its
    witness revalidates within budget.  An H with no edges is in every
    graph, so it is refused.
    """
    if H.k != 3:
        raise ValueError("handles 3-graphs")
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if not H.edges:
        raise ValueError("ex(n, H) needs H with at least one edge")
    meter, rule = budget.start(), LinkRule(H)
    memo, rules = {}, {}

    def valid(rec):
        w = rec.witness
        return w.n == n and w.k == 3 and len(w.edges) == rec.value \
            and is_free(w, H, meter)

    def floored(m, floor):
        # the classes on m vertices with at least floor edges, or EXHAUSTED
        floor = max(floor, 0)
        if (m, floor) not in memo:
            if not m:
                return [Hypergraph(0, 3, ())] if not floor else []
            parents = floored(m - 1, floor - 3 * floor // m)
            if parents is exact.EXHAUSTED:
                return parents
            found = _classes(_extensions(G, rule, (), floor - len(G.edges),
                                         meter, rules) for G in parents)
            if found is exact.EXHAUSTED:
                return found
            memo[m, floor] = found
        return memo[m, floor]

    def search():
        best = Hypergraph(0, 3, ())
        for m in range(3, n + 1):
            top = comb(m, 3)
            if m > 3:
                top = min(top, m * len(best.edges) // (m - 3))
            for f in range(top, -1, -1):
                parents = floored(m - 1, f - 3 * f // m)
                found = parents if parents is exact.EXHAUSTED else next(
                    chain.from_iterable(_extensions(
                        G, rule, (), f - len(G.edges), meter, rules)
                        for G in parents), None)
                if found is exact.EXHAUSTED:
                    if not all(H.at):
                        best = Hypergraph(0, 3, ())
                    return len(best.edges), "lower_bound", \
                        Hypergraph(n, 3, best.edges)
                if found is not None:
                    best = found
                    break
        return len(best.edges), "exact", Hypergraph(n, 3, best.edges)

    return _cached("ex", rule.key.decode(), n, cache, valid, search)


def ramsey(H, t, n_max, budget=exact.UNLIMITED, cache=None):
    """R(H, K_t): least n forcing a copy of H or an independent t-set.

    The catalogue of good classes (H-free, no independent t-set) grows one
    vertex at a time from the empty graph, each link hitting every
    independent (t-1)-set of its parent.  R is the first n, at most n_max,
    whose catalogue is empty; the witness is the first class on n-1
    vertices, or below t the edgeless graph on t-1.  Hitting n_max or the
    budget gives a lower_bound record (value = first n not yet decided, at
    least t).  An exact cache record is served only when its witness
    revalidates within budget.  The catalogues and the revalidation spend
    one meter.
    """
    if H.k != 3:
        raise ValueError("handles 3-graphs")
    if t < 3:
        raise ValueError("t must be at least 3")
    if not H.edges:
        raise ValueError("R(H, K_t) needs H with at least one edge")
    meter, rule = budget.start(), LinkRule(H)

    def valid(rec):
        # order and uniformity first: alpha of a 4-graph raises, and alpha
        # of an edgeless witness on 10^6 vertices overruns the deadline
        W = rec.witness
        if W.n != rec.value - 1 or W.k != 3:
            return False
        alpha = exact.independence_number(W, meter)
        return alpha if alpha is exact.EXHAUSTED else (
            alpha < t and is_free(W, H, meter))

    def search():
        witness = Hypergraph(t - 1, 3, ())  # H-free, alpha = t-1
        if n_max < t:
            return t, "lower_bound", witness
        good = [Hypergraph(0, 3, ())]
        for n in range(1, n_max + 1):
            good = _classes(_extensions(G, rule, _independent_sets(
                G, t - 1), 0, meter) for G in good)
            if good is exact.EXHAUSTED:
                return max(n, t), "lower_bound", witness
            if not good:
                return n, "exact", witness
            if n >= t:
                witness = good[0]
        return witness.n + 1, "lower_bound", witness

    return _cached("ramsey", rule.key.decode(), t, cache, valid, search)


def _independent_sets(G, s):
    # the s-sets of G's vertices that hold no edge, in lexicographic order
    edges = [sum(1 << u for u in e) for e in G.edges]
    sets = ((S, sum(1 << u for u in S)) for S in combinations(range(G.n), s))
    return [S for S, m in sets if all(e & m != e for e in edges)]


class WitnessReport(namedtuple("WitnessReport", "h_free chi chi_exceeds_r "
                               "edge_count implied_bound status")):
    """Outcome of checking one (G, H, r) witness for an m_H(r) upper bound."""

    # h_free, chi and chi_exceeds_r are None when their search was exhausted;
    # implied_bound is |E(G)| when h_free and chi > r, else None; status is
    # "exact" | "exhausted"
    __slots__ = ()


def verify_witness(G, H, r, budget=exact.UNLIMITED):
    """Check that G is H-free with chromatic number above r; a success implies
    m_H(r) <= |E(G)|.

    The H-freeness test and the chromatic number spend one meter.  A
    freeness test cut short gives an exhausted report with h_free None."""
    if r < 1:
        raise ValueError("palette must be at least 1")
    meter = budget.start()
    free = is_free(G, H, meter)
    if free is exact.EXHAUSTED:
        return WitnessReport(None, None, None, len(G.edges), None, "exhausted")
    chi = exact.chromatic_number(G, meter)
    if chi is exact.EXHAUSTED:
        return WitnessReport(free, None, None, len(G.edges), None, "exhausted")
    exceeds = chi > r
    bound = len(G.edges) if (free and exceeds) else None
    return WitnessReport(free, chi, exceeds, len(G.edges), bound, "exact")
