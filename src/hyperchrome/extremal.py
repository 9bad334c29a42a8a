"""Brute-force Turan and Ramsey computation at desk scale, the incremental
edge-ordering embedding, and witness verification for m_H(r) bounds.

turan_ex and ramsey are thin callers of one level search and one cache
driver.  _hfree_level_reps enumerates H-free graphs up to isomorphism, level
by edge count.  Level m + 1 holds the one-edge extensions of level m's
representatives: a parent G is H-free, so a copy of H in G + e must use e,
and containment.ForbiddenTriples finds all such triples e of G at once,
from the embeddings of H minus one edge into G.  Each representative keeps
the automorphism generators of its core.canonical_form call
(individualization-refinement), and a candidate that one of them maps onto
a smaller triple is skipped (orbit pruning; McKay, "Isomorph-free
exhaustive generation", 1998).  Each other child gets one canonical form,
and the first child seen in each class is its representative, the same one
as with no candidate skipped.  All the searches of one call spend one
core.Meter; the level search reads its deadline before each parent and
before each candidate, and charges one node per candidate it labels.
Budget-limited outcomes are labeled lower_bound and carry the best witness
found.  _cached owns the cache policy: records are keyed by
canonical_form(H), computed once per call by containment.ForbiddenTriples,
only an exact record whose witness revalidates is served, one that fails
revalidation is evicted, and one that cannot be revalidated within budget
is kept but not served.  A key is the edge list of a copy of H, so a key
written by any other canonical labelling can only match H's own class and
needs no version.
"""

from collections import namedtuple
from itertools import combinations

from . import exact
from .cache import ResultRecord
# contains: read only by perfbench/; goes at ROADMAP item 1's declared change
from .containment import (Embedding, ForbiddenTriples, contains,
                          embedding_ok, is_free)
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


def _hfree_level_reps(n, forbidden, meter):
    """Iterator over levels of H-free graphs on n labeled vertices up to
    isomorphism, for forbidden = containment.ForbiddenTriples(H): yields
    (edge_count, representatives), from the empty graph at level 0.  A
    parent's children are its one-edge extensions by the triples outside
    forbidden.of(parent), in lexicographic order; the first child seen in
    each canonical-form class represents it.

    Each representative keeps the automorphism generators its canonical
    form found.  A candidate triple e that one of them maps onto a smaller
    triple g(e) is skipped, with no canonical form: the edges and the
    forbidden triples of the parent are invariant under g, so g(e) is an
    earlier candidate of the same parent with an isomorphic child.  The
    first child of each class is never skipped, so the levels and their
    representatives are those of trying every candidate.

    The core.Meter meter is read before each parent and before each
    candidate triple not in the parent (its deadline), and charged one node
    per candidate labelled.  Once it is spent, yields (edge_count,
    EXHAUSTED) for the unfinished level and stops."""
    empty, gens = Hypergraph(n, 3, ()), []
    canonical_form(empty, gens)
    count, level = 0, [(empty, gens)]
    while level:
        yield count, [G for G, _ in level]
        count += 1
        level = _children(n, forbidden, level, meter)
        if level is exact.EXHAUSTED:
            yield count, exact.EXHAUSTED
            return


def _children(n, forbidden, level, meter):
    # the next level's (representative, generators) pairs, or EXHAUSTED
    # once the meter is spent
    nxt = {}
    for G, auts in level:
        if meter.late():
            return exact.EXHAUSTED
        present, banned = G.edge_set(), forbidden.of(G)
        for e in combinations(range(n), 3):
            if e in present:
                continue
            if meter.late():
                return exact.EXHAUSTED
            if e in banned or any(sorted(map(g.get, e, e)) < list(e)
                                  for g in auts):
                continue
            if meter.full():
                return exact.EXHAUSTED
            meter.nodes += 1
            cand, found = Hypergraph(n, 3, tuple(sorted(present | {e}))), []
            nxt.setdefault(canonical_form(cand, found), (cand, found))
    return list(nxt.values())


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

    Enumerates H-free graphs level by level with canonical-form dedup; the
    returned record carries an extremal witness.  On budget exhaustion the
    status is lower_bound and the value is the best level reached.  An exact
    cache record is served only when its witness revalidates within budget.
    """
    if H.k != 3:
        raise ValueError("handles 3-graphs")
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    meter, forbidden = budget.start(), ForbiddenTriples(H)

    def valid(rec):
        w = rec.witness
        return w.n == n and w.k == 3 and len(w.edges) == rec.value \
            and is_free(w, H, meter)

    def search():
        # level 0, the empty graph, always comes first
        for count, reps in _hfree_level_reps(n, forbidden, meter):
            if reps is exact.EXHAUSTED:
                return value, "lower_bound", witness
            value, witness = count, reps[0]
        return value, "exact", witness

    return _cached("ex", forbidden.key.decode(), n, cache, valid, search)


def ramsey(H, t, n_max, budget=exact.UNLIMITED, cache=None):
    """R(H, K_t): least n forcing a copy of H or an independent t-set.

    For each n, searches the H-free isomorphism classes for one with
    independence number below t; when none exists, n is the answer and the
    critical witness for n-1 is returned.  Hitting n_max or the budget gives
    a lower_bound record (value = first n not yet decided).  An exact cache
    record is served only when its witness revalidates within budget.  The
    level search, every independence-number call and the revalidating
    freeness test spend one meter.
    """
    if H.k != 3:
        raise ValueError("handles 3-graphs")
    if t < 3:
        raise ValueError("t must be at least 3")
    if not H.edges:
        raise ValueError("R(H, K_t) needs H with at least one edge")
    meter, forbidden = budget.start(), ForbiddenTriples(H)

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
        witness = Hypergraph(max(t - 1, 1), 3, ())  # H-free, alpha = t-1
        while witness.n < n_max:
            n = witness.n + 1
            for _, reps in _hfree_level_reps(n, forbidden, meter):
                if reps is exact.EXHAUSTED:
                    return n, "lower_bound", witness
                for R in reps:
                    alpha = exact.independence_number(R, meter)
                    if alpha is exact.EXHAUSTED:
                        return n, "lower_bound", witness
                    if alpha < t:
                        break
                else:
                    continue  # no class of this level has alpha < t
                witness = R
                break
            else:
                return n, "exact", witness  # no class on n vertices does
        return witness.n + 1, "lower_bound", witness

    return _cached("ramsey", forbidden.key.decode(), t, cache, valid,
                   search)


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
