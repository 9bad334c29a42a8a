"""Brute-force Turan and Ramsey computation at desk scale, the incremental
edge-ordering embedding, and witness verification for m_H(r) bounds.

Exhaustive searches enumerate H-free graphs up to isomorphism, level by edge
count.  Each candidate gets one core.canonical_form call (individualization-
refinement), and the first candidate seen in each isomorphism class is its
representative.  Budget-limited outcomes are labeled lower_bound and carry
the best witness found.  Cache records are keyed by canonical_form(H): an
encoding is the edge list of a copy of H, so a key written by any other
canonical labelling can only match H's own class and needs no version.
"""

from dataclasses import dataclass
from itertools import combinations
from time import monotonic

from . import exact
from .cache import ResultRecord
from .containment import Embedding, contains, embedding_ok, is_free
from .core import Hypergraph, canonical_form, incidence, pair_support


@dataclass(frozen=True)
class EdgeOrdering:
    """Edges h_1..h_{t-2} with, for each i > 1, an anchor (j, pair, fresh):
    pair lies inside h_j (j < i) and fresh appears in no earlier edge."""

    order: tuple
    anchors: tuple  # anchors[i-1] = (j, (a, b), c) for edge order[i]


def find_edge_ordering(H):
    """A valid incremental edge ordering of H, or None if none exists.

    Requires |V(H)| = |E(H)| + 2 and uniformity 3.
    """
    if H.k != 3:
        raise ValueError("edge orderings are for 3-graphs")
    t = H.n
    if t != len(H.edges) + 2:
        raise ValueError(f"need |V| = |E| + 2, got |V|={t}, |E|={len(H.edges)}")
    edges = list(H.edges)
    m = len(edges)

    def extend(order, used, covered):
        if len(order) == m:
            return []
        for idx in range(m):
            if idx in used:
                continue
            e = edges[idx]
            fresh = [v for v in e if v not in covered]
            if len(fresh) != 1:
                continue
            pair = tuple(v for v in e if v != fresh[0])
            anchor_j = None
            for j, prev_idx in enumerate(order):
                prev = edges[prev_idx]
                if pair[0] in prev and pair[1] in prev:
                    anchor_j = j
                    break
            if anchor_j is None:
                continue
            used.add(idx)
            order.append(idx)
            tail = extend(order, used, covered | set(e))
            if tail is not None:
                return [(anchor_j, pair, fresh[0])] + tail
            order.pop()
            used.remove(idx)
        return None

    for first in range(m):
        order = [first]
        used = {first}
        anchors = extend(order, used, set(edges[first]))
        if anchors is not None:
            return EdgeOrdering(tuple(edges[i] for i in order), tuple(anchors))
    return None  # includes the edgeless case: nothing to start from


def prune_low_support(G, t):
    """Repeatedly delete an edge one of whose pairs lies in at most t-3 edges.

    The fixpoint is order-independent: every surviving pair supports 0 or at
    least t-2 edges.
    """
    if t < 3:
        raise ValueError("t must be at least 3")
    edges = set(G.edges)
    changed = True
    while changed:
        changed = False
        support = pair_support(edges)
        for e in sorted(edges):
            if any(support[p] <= t - 3 for p in combinations(e, 2)):
                edges.remove(e)
                changed = True
                break
    return Hypergraph(G.n, G.k, tuple(sorted(edges)))


def embed_by_edge_order(G, H, ord):
    """Grow an embedding of H into G edge by edge along a valid EdgeOrdering.

    Prunes G first; when the pruned graph keeps an edge the growth never
    fails (each anchored pair supports >= t-2 edges while the partial image
    uses fewer), which happens whenever |E(G)| > (t-3) * C(n,2).
    """
    t = H.n
    pruned = prune_low_support(G, t)
    if not pruned.edges:
        return None
    at = incidence(pruned.n, pruned.edges)

    first = pruned.edges[0]
    vmap = {}
    for hv, gv in zip(ord.order[0], first):
        vmap[hv] = gv
    used_edges = {first}
    emap = {ord.order[0]: first}
    for i in range(1, len(ord.order)):
        j, pair, fresh = ord.anchors[i - 1]
        img_pair = tuple(sorted((vmap[pair[0]], vmap[pair[1]])))
        target = None
        image_verts = set(vmap.values())
        for e in at[img_pair[0]]:
            if img_pair[1] not in e or e in used_edges:
                continue
            third = next(v for v in e if v not in img_pair)
            if third in image_verts:
                continue
            target = e
            break
        if target is None:
            return None
        third = next(v for v in target if v not in img_pair)
        vmap[fresh] = third
        used_edges.add(target)
        emap[ord.order[i]] = target
    # vertices of H outside every edge cannot be reached by the growth; the
    # size condition |V| = |E| + 2 rules them out whenever an ordering exists
    if len(vmap) != H.n:
        return None
    vm = tuple(sorted(vmap.items()))
    em = tuple((e, emap[e]) for e in H.edges)
    emb = Embedding(vm, em)
    return emb if embedding_ok(G, H, emb) else None


def _hfree_level_reps(n, H, deadline=0.0):
    """Iterator over levels of H-free graphs on n labeled vertices up to
    isomorphism: yields (edge_count, list of representatives, each the first
    candidate seen in its class).  When the deadline (a monotonic() time, 0
    for none) passes while a level is being built, yields (edge_count, None)
    for that level and stops."""
    empty = Hypergraph(n, 3, ())
    level = {canonical_form(empty): empty}
    count = 0
    all_triples = list(combinations(range(n), 3))
    yield count, list(level.values())
    while level:
        nxt = {}
        for G in level.values():
            present = G.edge_set()
            for e in all_triples:
                if e in present:
                    continue
                if deadline and monotonic() > deadline:
                    yield count + 1, None
                    return
                cand = Hypergraph(n, 3, tuple(sorted(present | {e})))
                if contains(cand, H) is not None:
                    continue
                key = canonical_form(cand)
                if key not in nxt:
                    nxt[key] = cand
        count += 1
        level = nxt
        if level:
            yield count, list(level.values())


def turan_ex(n, H, budget=exact.UNLIMITED, cache=None):
    """ex(n, H): maximum edges of an H-free 3-graph on n vertices.

    Enumerates H-free graphs level by level with canonical-form dedup; the
    returned record carries an extremal witness.  On budget exhaustion the
    status is lower_bound and the value is the best level reached.  The
    deadline is checked per candidate graph, the node cap after each whole
    level.  Only an exact cache record whose witness revalidates is served.
    """
    if H.k != 3:
        raise ValueError("handles 3-graphs")
    key = canonical_form(H).decode()
    if cache is not None:
        rec = cache.get("ex", key, n)
        if rec is not None and rec.status == "exact":
            if (rec.witness.n == n and rec.witness.k == 3
                    and len(rec.witness.edges) == rec.value
                    and is_free(rec.witness, H)):
                return rec
            cache.evict("ex", key, n)
    deadline = budget.deadline()
    nodes = 0
    best_value = 0
    best_witness = Hypergraph(n, 3, ())
    status = "exact"
    for count, reps in _hfree_level_reps(n, H, deadline):
        if reps is None:
            status = "lower_bound"
            break
        best_value = count
        best_witness = reps[0]
        nodes += len(reps)
        if (budget.max_nodes and nodes > budget.max_nodes) or \
                (deadline and monotonic() > deadline):
            status = "lower_bound"
            break
    rec = ResultRecord("ex", key, n, best_value, status, best_witness)
    if cache is not None:
        cache.put(rec)
    return rec


def ramsey(H, t, n_max, budget=exact.UNLIMITED, cache=None):
    """R(H, K_t): least n forcing a copy of H or an independent t-set.

    For each n, searches the H-free isomorphism classes for one with
    independence number below t; when none exists, n is the answer and the
    critical witness for n-1 is returned.  Hitting n_max or the budget gives
    a lower_bound record (value = first n not yet decided).  Only an exact
    cache record whose witness revalidates within budget is served.
    """
    if H.k != 3:
        raise ValueError("handles 3-graphs")
    if t < 3:
        raise ValueError("t must be at least 3")
    if not H.edges:
        raise ValueError("R(H, K_t) needs H with at least one edge")
    key = canonical_form(H).decode()
    if cache is not None:
        rec = cache.get("ramsey", key, t)
        if rec is not None and rec.status == "exact":
            alpha = exact.independence_number(rec.witness, budget)
            # a witness not checked within budget is kept, but not served
            if alpha is not exact.EXHAUSTED:
                if (rec.witness.n == rec.value - 1 and is_free(rec.witness, H)
                        and alpha <= t - 1):
                    return rec
                cache.evict("ramsey", key, t)
    deadline = budget.deadline()
    nodes = 0
    witness = Hypergraph(max(t - 1, 1), 3, ())  # empty graph: H-free, alpha = t-1
    n = witness.n + 1
    status = "exact"
    value = None
    while True:
        if n > n_max:
            status = "lower_bound"
            value = n
            break
        found = None
        out_of_budget = False
        for _, reps in _hfree_level_reps(n, H, deadline):
            if reps is None:
                out_of_budget = True
                break
            nodes += len(reps)
            for R in reps:
                alpha = exact.independence_number(R, budget)
                if alpha is exact.EXHAUSTED:
                    out_of_budget = True
                    break
                if alpha <= t - 1:
                    found = R
                    break
            if found is not None or out_of_budget:
                break
            if (budget.max_nodes and nodes > budget.max_nodes) or \
                    (deadline and monotonic() > deadline):
                out_of_budget = True
                break
        if out_of_budget:
            status = "lower_bound"
            value = n
            break
        if found is None:
            value = n
            break
        witness = found
        n += 1
    rec = ResultRecord("ramsey", key, t, value, status, witness)
    if cache is not None:
        cache.put(rec)
    return rec


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of checking one (G, H, r) witness for an m_H(r) upper bound."""

    h_free: bool
    chi: object          # int, or None when the solver was exhausted
    chi_exceeds_r: object  # bool, or None when unknown
    edge_count: int
    implied_bound: object  # |E(G)| when h_free and chi > r, else None
    status: str          # "exact" | "exhausted"


def verify_witness(G, H, r, budget=exact.UNLIMITED):
    """Check that G is H-free with chromatic number above r; a success implies
    m_H(r) <= |E(G)|."""
    free = is_free(G, H)
    chi = exact.chromatic_number(G, budget)
    if chi is exact.EXHAUSTED:
        return WitnessReport(free, None, None, len(G.edges), None, "exhausted")
    exceeds = chi > r
    bound = len(G.edges) if (free and exceeds) else None
    return WitnessReport(free, chi, exceeds, len(G.edges), bound, "exact")
