"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's search code: colorings and subsets by
full enumeration, containment by raw injection scans, the first embedding by
recursive backtracking, chains by sequence enumeration against the
definitional validator, canonical forms by backtracking over every vertex
relabeling, low-support pruning one edge at a time, local-lemma resampling
by rescanning every edge after each step, the exact kernels by plain
recursive backtracking with no pruning beyond infeasibility and the trivial
bound, the first independent set of a given size by the same recursion, the
forward-checking tree of the coloring kernel before it propagated forced
colours by a scan of every edge at the tried vertex, the coloring kernel's
tree by recomputing every vertex's allowed colours, forced colours
propagated to a fixpoint, from scratch at each node, the H-free level search
by one containment test per candidate, the one-vertex extensions by one
containment test per link, in include-first order, HypergraphFile text and
edge lists by one Python step per line and per edge, edge orderings by a
depth-first search over start and next edges, the vertex orbits of a pattern
by trying every permutation, the edge-ordering embedding by scanning
incidence lists for each anchored pair, greedy witnesses from per-vertex
pair lists kept in a per-vertex table and chains by descending through that
table, link masks by one walk of an incidence list per key, induced
subgraphs by a scan of every edge, layer peeling and independent-set removal
by inducing a relabelled graph every round, dyadic degree bands by rational
comparisons, balance by a second pass over the whole edge set, and the
points of a generalized quadrangle by normalizing every vector and keeping
each first sight.  Three closed forms for extremal numbers close the module:
Schönheim's packing bound, the balanced complete bipartite 3-graph and
Turán's three-part construction.
"""

import itertools
import math
import random
from time import monotonic

from hyperchrome.coloring import ColoringFailure, GreedyFailure, GreedyTrace
from hyperchrome.containment import Embedding, embedding_ok
from hyperchrome.extremal import EdgeOrdering, prune_low_support
from hyperchrome.core import (EXHAUSTED, Coloring, Hypergraph, OrderedChain,
                              canonical_form, incidence, is_ordered_chain,
                              is_proper, pair_support)


def pairs_at(n, edges):
    """Per-vertex pair adjacency of a 3-uniform edge list on 0..n-1: entry v
    lists, for each edge holding v, its other two vertices in edge order."""
    pairs = [[] for _ in range(n)]
    for a, b, c in edges:
        pairs[a].append((b, c))
        pairs[b].append((a, c))
        pairs[c].append((a, b))
    return pairs


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


def _recursive_h_order(H):
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


def reference_contains(G, H):
    """containment.contains by recursive backtracking over partial vertex
    maps, one call per H-vertex, in the same vertex order with degree and
    pair co-edge pruning; its first embedding must be contains's."""
    if G.k != H.k:
        raise ValueError("uniformity mismatch")
    if H.n > G.n:
        return None
    g_degs = G.degrees()
    h_degs = H.degrees()
    g_support = pair_support(G.edges)
    h_support = pair_support(H.edges)
    gset = G.edge_set()
    order = _recursive_h_order(H)
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


def reference_find_edge_ordering(H):
    """The first incremental edge ordering that a depth-first search finds,
    trying start edges and then next edges by increasing index, with
    backtracking and no memo: exponential in the worst case, and what
    find_edge_ordering's one greedy pass must equal."""
    t = H.n
    edges = list(H.edges)
    m = len(edges)
    if len({v for e in edges for v in e}) < t:
        return None

    def anchor(idx, order, covered):
        e = edges[idx]
        fresh = [v for v in e if v not in covered]
        if len(fresh) != 1:
            return None
        pair = tuple(v for v in e if v != fresh[0])
        for j, prev_idx in enumerate(order):
            prev = edges[prev_idx]
            if pair[0] in prev and pair[1] in prev:
                return j, pair, fresh[0]
        return None

    for first in range(m):
        # depth-first on an explicit stack; each position tries the unused
        # edges by increasing index, so the first ordering found is the same
        # as a recursive search's
        order, anchors, covered = [first], [], set(edges[first])
        used = {first}
        start = 0  # the first index to try at position len(order)
        while len(order) < m:
            for idx in range(start, m):
                a = None if idx in used else anchor(idx, order, covered)
                if a is not None:
                    order.append(idx)
                    anchors.append(a)
                    used.add(idx)
                    covered.add(a[2])
                    start = 0
                    break
            else:
                if not anchors:
                    break  # no ordering starts with this edge
                last = order.pop()  # backtrack, then try the next index
                used.remove(last)
                covered.remove(anchors.pop()[2])
                start = last + 1
        if len(order) == m:
            return EdgeOrdering(tuple(edges[i] for i in order), tuple(anchors))
    return None


def reference_vertex_orbits(H):
    """The orbits of H's vertices under its automorphisms, each a sorted
    tuple, found by trying every permutation of V(H)."""
    edges, orbits = set(H.edges), {}
    for perm in itertools.permutations(range(H.n)):
        if all(tuple(sorted(perm[v] for v in e)) in edges for e in edges):
            for u in range(H.n):
                orbits.setdefault(u, set()).add(perm[u])
    return sorted({tuple(sorted(o)) for o in orbits.values()})


def reference_embed_by_edge_order(G, H, ord):
    """extremal.embed_by_edge_order growing each edge by a scan of the
    incidence list of the lower image of its anchored pair: the first edge
    through the pair that is not yet used and whose third vertex is not
    yet an image."""
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
    if len(vmap) != H.n:
        return None
    vm = tuple(sorted(vmap.items()))
    em = tuple((e, emap[e]) for e in H.edges)
    emb = Embedding(vm, em)
    return emb if embedding_ok(G, H, emb) else None


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

    triples = list(itertools.combinations(range(n), 3))
    best = 0
    for bits in range(1 << len(triples)):
        edges = tuple(triples[i] for i in range(len(triples)) if bits >> i & 1)
        if len(edges) <= best:
            continue
        if contains(Hypergraph(n, 3, edges), H) is None:
            best = len(edges)
    return best


def reference_hfree_level_reps(n, H):
    """The H-free 3-graphs on n vertices up to isomorphism, level by edge
    count, from the empty graph (kept even when it contains H): yields
    (edge_count, representatives).  Level m + 1 holds the one-edge
    extensions G + e of level m's representatives, one contains(G + e, H)
    call per candidate triple e, the first seen of each canonical form."""
    from hyperchrome.containment import contains

    count, level = 0, [Hypergraph(n, 3, ())]
    while level:
        yield count, level
        count += 1
        nxt = {}
        for G in level:
            present = G.edge_set()
            for e in itertools.combinations(range(n), 3):
                if e not in present:
                    cand = Hypergraph(n, 3, tuple(sorted(present | {e})))
                    if contains(cand, H) is None:
                        nxt.setdefault(canonical_form(cand), cand)
        level = list(nxt.values())


def reference_extensions(G, H, need):
    """The H-free one-vertex extensions G + v of G, v = G.n, whose link
    (the pairs {a, b} with {a, b, v} an edge) holds at least need pairs:
    every such set of pairs is a link, tested by one is_free call.  They
    come in include-first order: a link holding the first pair before one
    without it, then by the second pair, and so on, in combinations
    order."""
    from hyperchrome.containment import is_free

    pairs = list(itertools.combinations(range(G.n), 2))
    links = [L for size in range(need, len(pairs) + 1)
             for L in itertools.combinations(pairs, size)]
    links.sort(key=lambda L: tuple(p not in L for p in pairs))
    children = (Hypergraph(G.n + 1, 3, tuple(sorted(
        G.edges + tuple(p + (G.n,) for p in L)))) for L in links)
    return [W for W in children if is_free(W, H)]


def reference_gq(q):
    """constructions.gq with its points listed by normalizing every vector
    of F_q^4 in lexicographic order and keeping each first sight."""

    def normalize(vec):
        for x in vec:
            if x != 0:
                inv = pow(x, q - 2, q) if q > 2 else x
                return tuple((c * inv) % q for c in vec)
        return None

    points = []
    index = {}
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    v = normalize((a, b, c, d))
                    if v is not None and v not in index:
                        index[v] = len(points)
                        points.append(v)

    def omega(x, y):
        return (x[0] * y[1] - x[1] * y[0] + x[2] * y[3] - x[3] * y[2]) % q

    lines = set()
    npts = len(points)
    for i in range(npts):
        for j in range(i + 1, npts):
            if omega(points[i], points[j]) != 0:
                continue
            line = set()
            pi, pj = points[i], points[j]
            for a in range(q):
                comb = normalize(tuple((a * x + y) % q for x, y in zip(pi, pj)))
                line.add(index[comb])
            line.add(i)
            lines.add(tuple(sorted(line)))
    return Hypergraph(npts, q + 1, tuple(sorted(lines)))


def one_at_a_time_prune(G, t):
    """Low-support pruning one edge per pass: delete the least edge with a
    pair in at most t-3 edges, recount, repeat until none is left."""
    edges = set(G.edges)
    changed = True
    while changed:
        changed = False
        support = pair_support(edges)
        for e in sorted(edges):
            if any(support[p] <= t - 3 for p in itertools.combinations(e, 2)):
                edges.remove(e)
                changed = True
                break
    return Hypergraph(G.n, G.k, tuple(sorted(edges)))


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


def reference_greedy_pluhar(G, ord, palette_cap=None):
    """(record, witness): coloring.greedy_pluhar's GreedyTrace or
    GreedyFailure, built over pairs_at, and the table of witness edges that
    it keeps as it goes.  Each vertex reads the other two vertices of its
    edges from a pair list, and a witness edge is rebuilt by sorting the
    vertex with its pair.  witness[v][c] is v's witness for color c, for
    every colored vertex and for a failing vertex's colors below the cap;
    the rest are ()."""
    n = G.n
    pairs = pairs_at(n, G.edges)
    colors = [-1] * n
    witness = [()] * n
    top = -1
    for v in ord.order:
        blocking = {}
        for a, b in pairs[v]:
            ca = colors[a]
            if ca >= 0 and ca == colors[b] and ca not in blocking:
                blocking[ca] = tuple(sorted((v, a, b)))
        c = 0
        while c in blocking:
            c += 1
        if palette_cap is not None and c >= palette_cap:
            witnesses = tuple(blocking[i] for i in range(palette_cap))
            witness[v] = witnesses
            return (GreedyFailure(v, palette_cap, witnesses, tuple(colors)),
                    tuple(witness))
        colors[v] = c
        witness[v] = tuple(blocking[i] for i in range(c))
        top = max(top, c)
    palette = max(top + 1, 1) if n else 1
    return GreedyTrace(Coloring(tuple(colors), palette)), tuple(witness)


def reference_chain(ord, record, witness):
    """The chain that coloring.extract_chain or chain_from_failure returns
    for a record of reference_greedy_pluhar: from the failing vertex at the
    cap, or from the earliest vertex of the top color, take the stored
    witness for the next lower color and go on from its minimum-position
    vertex."""
    pos = ord.position
    if isinstance(record, GreedyFailure):
        v, c = record.vertex, record.cap
    else:
        colors = record.coloring.colors
        c = max(colors)
        v = min((u for u in range(len(colors)) if colors[u] == c),
                key=lambda u: pos[u])
    chain = []
    while c > 0:
        c -= 1
        e = witness[v][c]
        chain.append(e)
        v = min(e, key=lambda u: pos[u])
    chain.reverse()
    return OrderedChain(tuple(chain))


class PerKeyLinks(dict):
    """core.Links with one walk of an incidence list per missing key, every
    mask kept: the reference that every Links mask must equal."""

    def __init__(self, G):
        super().__init__()
        self.at = incidence(G.n, G.edges)

    def __missing__(self, key):
        first, *rest = key if isinstance(key, tuple) else (key,)
        mask = 0
        for e in self.at[first]:
            if all(v in e for v in rest):
                for w in e:
                    mask |= 1 << w
        self[key] = mask
        return mask


def rescan_lll_color(G, r, seed, max_resamples=None):
    """Moser-Tardos by full rescans: after every resample, scan the edges
    from the first for a monochromatic one.  The reference that
    coloring.lll_color(..., check=False) must match draw for draw."""
    if max_resamples is None:
        max_resamples = 1000 * len(G.edges)
    rng = random.Random(seed)
    colors = [rng.randrange(r) for _ in range(G.n)]
    resamples = 0
    while True:
        mono = None
        for e in G.edges:
            c0 = colors[e[0]]
            if colors[e[1]] == c0 and colors[e[2]] == c0:
                mono = e
                break
        if mono is None:
            return Coloring(tuple(colors), r)
        if resamples >= max_resamples:
            return ColoringFailure("resample-cap",
                                   {"resamples": resamples, "edge": mono})
        for v in mono:
            colors[v] = rng.randrange(r)
        resamples += 1


def brute_canonical_form(G):
    """Canonical byte encoding by backtracking over vertex relabelings: the
    reference that core.canonical_form's isomorphism classes must match.

    Assigns new labels 0..n-1 one at a time and minimizes the sequence of
    completed edges, where edges are ordered by (largest label, full sorted
    tuple).  Degree-based candidate ordering steers the search; prefix
    comparison prunes it.  The winning edge set is emitted sorted, prefixed
    with n and k.  Factorial in the number of vertices it cannot tell apart.
    """
    n, k = G.n, G.k
    m = len(G.edges)
    if m == 0:
        return f"{n}:{k}|".encode()

    incident = incidence(n, G.edges)
    degs = [len(es) for es in incident]

    best = [None]  # best complete code: list of edge tuples

    def extend(new_label_of, remaining, code):
        if len(code) == m:
            if best[0] is None or code < best[0]:
                best[0] = list(code)
            return
        # candidates for the next label, most-connected first
        j = n - len(remaining)
        scored = sorted(
            remaining,
            key=lambda v: (-sum(1 for e in incident[v]
                                if all(u in new_label_of or u == v
                                       for u in e)),
                           -degs[v], v))
        for v in scored:
            new_label_of[v] = j
            done = []
            for e in incident[v]:
                if all(u in new_label_of for u in e):
                    done.append(tuple(sorted(new_label_of[u] for u in e)))
            done.sort(key=lambda t: (t[-1], t))
            new_code = code + done
            # prune only a strictly worse prefix; compare against the current
            # best every time since best may move while we recurse
            if best[0] is None or new_code <= best[0][:len(new_code)]:
                remaining.remove(v)
                extend(new_label_of, remaining, new_code)
                remaining.add(v)
            del new_label_of[v]

    extend({}, set(range(n)), [])
    final = sorted(best[0])
    body = "/".join(",".join(str(v) for v in e) for e in final)
    return f"{n}:{k}|{body}".encode()


_TIME_CHECK_MASK = 4095


def reference_kcolor_search(n, edges, k, order, max_nodes=0, deadline=0.0):
    """Backtracking k-colorability along a fixed vertex order, recursively
    and without pruning beyond infeasibility: the reference that
    _kernels.kcolor_search must match, node caps included.

    Symmetry broken by capping the vertex at position p to colors 0..min(p, k-1).
    A color c is infeasible at v iff some edge holds v plus two vertices
    already colored c.  Returns a Coloring with palette k, None or EXHAUSTED.
    """
    if n == 0:
        return Coloring((), k)
    pairs = pairs_at(n, edges)
    colors = [-1] * n
    nodes = 0
    exhausted = False

    def dfs(p):
        nonlocal nodes, exhausted
        nodes += 1
        if max_nodes and nodes > max_nodes:
            exhausted = True
            return False
        if deadline and (nodes & _TIME_CHECK_MASK) == 0 and monotonic() > deadline:
            exhausted = True
            return False
        if p == n:
            return True
        v = order[p]
        cmax = min(p, k - 1)
        for c in range(cmax + 1):
            ok = True
            for a, b in pairs[v]:
                if colors[a] == c and colors[b] == c:
                    ok = False
                    break
            if ok:
                colors[v] = c
                if dfs(p + 1):
                    return True
                colors[v] = -1
                if exhausted:
                    return False
        return False

    if dfs(0):
        return Coloring(tuple(colors), k)
    return EXHAUSTED if exhausted else None


def reference_pair_scan_kcolor_search(n, edges, k, order, max_nodes=0,
                                      deadline=0.0):
    """_kernels.kcolor_search with forward checking over every edge at the
    tried vertex: the same search tree and node count, with each try walking
    all of pairs_at[v] instead of the edges the tried color can close.  The
    deadline is read only while searching, not while the pairs are built.
    """
    palette = k
    if n == 0:
        return Coloring((), palette)
    k = min(k, n)
    pairs = pairs_at(n, edges)
    colors = [-1] * n
    bans = [0] * (n * k)   # bans[u*k + c]: edges banning c at uncolored u
    nbanned = [0] * n      # colors with a nonzero ban count, per vertex
    tried = [-1] * n       # tried[p]: color at position p, or the last tried
    used = [0] * (n + 1)   # used[p]: colors in use at positions < p
    logs = [None] * n      # logs[p]: vertices whose ban count p's color raised
    nodes = 1              # the root, position 0, is entered

    def unban(log, c):
        for u in log:
            i = u * k + c
            bans[i] -= 1
            if not bans[i]:
                nbanned[u] -= 1

    p = 0
    while True:
        v = order[p]
        base = v * k
        cmax = min(used[p], k - 1)
        c = tried[p] + 1
        log = None
        while c <= cmax:
            if not bans[base + c]:
                log = []
                wiped = False
                for a, b in pairs[v]:
                    ca = colors[a]
                    if ca == c:
                        if colors[b] >= 0:
                            continue
                        u = b
                    elif ca < 0 and colors[b] == c:
                        u = a
                    else:
                        continue
                    i = u * k + c
                    bans[i] += 1
                    log.append(u)
                    if bans[i] == 1:
                        nbanned[u] += 1
                        if nbanned[u] == k:
                            wiped = True
                            break
                if not wiped:
                    break
                unban(log, c)
                log = None
            c += 1
        if log is None:
            tried[p] = -1
            p -= 1
            if p < 0:
                return None
            colors[order[p]] = -1
            unban(logs[p], tried[p])
            continue
        colors[v] = c
        tried[p] = c
        logs[p] = log
        used[p + 1] = used[p] if c < used[p] else c + 1
        nodes += 1
        if max_nodes and nodes > max_nodes:
            return EXHAUSTED
        if deadline and (nodes & _TIME_CHECK_MASK) == 0 and monotonic() > deadline:
            return EXHAUSTED
        p += 1
        if p == n:
            return Coloring(tuple(colors), palette)


def reference_propagating_kcolor_search(n, edges, k, order, max_nodes=0):
    """_kernels.kcolor_search's tree by plain recursion: at each node, every
    uncolored vertex's allowed colors are recomputed from scratch, and
    forced colors are propagated to a fixpoint, before a color is tried.

    A vertex is fixed when colored, or forced when k >= 2 and one color is
    left to it; a color is allowed at an unfixed vertex unless some edge
    holds it and two vertices fixed to that color.  A partial coloring is
    dead when an unfixed vertex has no allowed color or some edge has its
    three vertices fixed alike.  A color is tried only where it is allowed,
    a try is entered only if it leaves the coloring alive, and the nodes
    are counted as the kernel counts them: the root, then each try entered.
    Vertices in no edge are set aside and take color 0.  Returns a Coloring
    with palette k, None or EXHAUSTED.
    """
    palette = k
    covered = {v for e in edges for v in e}
    order = [v for v in order if v in covered]
    if not order:
        return Coloring((0,) * n, palette)
    k = min(k, len(order))
    colors = [0] * n
    nodes = 0
    exhausted = False

    def allowed(fixed, v):
        return [c for c in range(k) if not any(
            v in e and sum(fixed.get(u) == c for u in e) == 2 for e in edges)]

    def fixpoint(colored):
        # the colored vertices plus the forced ones, or None if dead
        fixed = dict(colored)
        changed = True
        while changed:
            if any(all(u in fixed for u in e) and
                   len({fixed[u] for u in e}) == 1 for e in edges):
                return None
            changed = False
            for v in order:
                if v not in fixed:
                    left = allowed(fixed, v)
                    if not left:
                        return None
                    if k >= 2 and len(left) == 1:
                        fixed[v] = left[0]
                        changed = True
        return fixed

    def dfs(p, colored):
        nonlocal nodes, exhausted
        nodes += 1
        if max_nodes and nodes > max_nodes:
            exhausted = True
            return False
        if p == len(order):
            for v, c in colored.items():
                colors[v] = c
            return True
        v = order[p]
        fixed = fixpoint(colored)
        used = len(set(colored.values()))
        for c in range(min(used, k - 1) + 1):
            if (fixed[v] != c) if v in fixed else (c not in allowed(fixed, v)):
                continue
            child = {**colored, v: c}
            if fixpoint(child) is not None and dfs(p + 1, child):
                return True
            if exhausted:
                return False
        return False

    if dfs(0, {}):
        return Coloring(tuple(colors), palette)
    return EXHAUSTED if exhausted else None


def reference_mis_search(n, edges, max_nodes=0, deadline=0.0):
    """Maximum independent set by include/exclude branch and bound, with the
    plain bound: the reference that _kernels.mis_search must match,
    node caps included.

    Vertices are considered in index order, include branch first; the bound
    is |current| + |remaining|.  Independence means containing no full edge.
    Returns the maximum set as a frozenset, or EXHAUSTED.
    """
    if n == 0:
        return frozenset()
    masks_at = [[] for _ in range(n)]
    for e in edges:
        mask = 0
        for v in e:
            mask |= 1 << v
        for v in e:
            masks_at[v].append(mask)
    best_size = -1
    best = []
    nodes = 0
    exhausted = False
    chosen_list = []

    def dfs(idx, chosen_mask, count):
        nonlocal nodes, exhausted, best_size, best
        nodes += 1
        if max_nodes and nodes > max_nodes:
            exhausted = True
            return
        if deadline and (nodes & _TIME_CHECK_MASK) == 0 and monotonic() > deadline:
            exhausted = True
            return
        if count + (n - idx) <= best_size:
            return
        if idx == n:
            best_size = count
            best = list(chosen_list)
            return
        bit = 1 << idx
        legal = True
        for mask in masks_at[idx]:
            if mask & ~(chosen_mask | bit) == 0:
                legal = False
                break
        if legal:
            chosen_list.append(idx)
            dfs(idx + 1, chosen_mask | bit, count + 1)
            chosen_list.pop()
            if exhausted:
                return
        dfs(idx + 1, chosen_mask, count)

    dfs(0, 0, 0)
    return EXHAUSTED if exhausted else frozenset(best)


def reference_first_independent_set(n, edges, s):
    """The first independent set of at least s vertices in include-first
    order, by plain recursion over the independent sets with only the
    trivial bound, or None: the reference for _kernels.mis_search's
    at_least."""
    masks = [sum(1 << v for v in e) for e in edges]

    def first(idx, chosen, count):
        if count + n - idx < s:
            return None
        if idx == n:
            return chosen
        with_v = chosen | 1 << idx
        if all(mask & ~with_v for mask in masks):
            found = first(idx + 1, with_v, count + 1)
            if found is not None:
                return found
        return first(idx + 1, chosen, count)

    found = first(0, 0, 0)
    return None if found is None else frozenset(
        v for v in range(n) if found >> v & 1)


def reference_new_hypergraph(n, k, edges):
    # new_hypergraph normalizing every edge, with no bulk check first
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if k < 2:
        raise ValueError("uniformity must be at least 2")
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


def reference_parse_hypergraph(text):
    # parse_hypergraph reading every line on its own
    header = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if header is not None:
                raise ValueError(f"line {lineno}: duplicate header")
            if len(fields) != 5 or fields[1] != "h":
                raise ValueError(f"line {lineno}: header must be 'p h <k> <n> <m>'")
            header = (int(fields[2]), int(fields[3]), int(fields[4]))
        elif fields[0] == "e":
            if header is None:
                raise ValueError(f"line {lineno}: edge before header")
            try:
                verts = [int(x) for x in fields[1:]]
            except ValueError:
                raise ValueError(f"line {lineno}: bad vertex index") from None
            if any(v < 1 for v in verts):
                raise ValueError(f"line {lineno}: vertex indices are 1-based")
            edges.append(tuple(v - 1 for v in verts))
        else:
            raise ValueError(f"line {lineno}: unknown line type {fields[0]!r}")
    if header is None:
        raise ValueError("missing 'p h' header")
    k, n, m = header
    if len(edges) != m:
        raise ValueError(f"header promises {m} edges, found {len(edges)}")
    return reference_new_hypergraph(n, k, edges)


def reference_serialize_hypergraph(G):
    # serialize_hypergraph calling str() on every incidence
    lines = [f"p h {G.k} {G.n} {len(G.edges)}"]
    for e in G.edges:
        lines.append("e " + " ".join(str(v + 1) for v in e))
    return "\n".join(lines) + "\n"


def reference_induced(G, S):
    """core.induced by testing every edge of G against S and sorting what
    is kept: the reference that the incidence-list walk must match."""
    verts = tuple(sorted(set(S)))
    for v in verts:
        if not (0 <= v < G.n):
            raise ValueError(f"vertex {v} not in graph")
    index = {v: i for i, v in enumerate(verts)}
    vset = set(verts)
    kept = [tuple(sorted(index[v] for v in e)) for e in G.edges
            if all(v in vset for v in e)]
    return Hypergraph(len(verts), G.k, tuple(sorted(set(kept)))), verts


def reference_peel_layers(G, theta):
    """coloring.peel_layers reading degrees from an induced, relabelled
    graph built every round."""
    from hyperchrome.coloring import LayerDecomposition

    if theta <= 0:
        raise ValueError("theta must be positive")
    layers = []
    current = frozenset(range(G.n))
    while current:
        sub, verts = reference_induced(G, current)
        degs = sub.degrees()
        nxt = frozenset(verts[i] for i in range(len(verts)) if degs[i] >= theta)
        if nxt == current:
            return LayerDecomposition(tuple(layers), theta, current)
        layers.append(current - nxt)
        current = nxt
    return LayerDecomposition(tuple(layers), theta, frozenset())


def reference_dyadic_classes(G, r):
    """coloring.dyadic_classes finding each band by comparing the degree
    with 2^k * c * r^2 for k = 0, 1, ... in exact rationals."""
    from hyperchrome.coloring import SMALL_DEGREE_COEFF, DyadicClasses

    if r < 1:
        raise ValueError("palette must be at least 1")
    base = SMALL_DEGREE_COEFF * r * r
    degs = G.degrees()
    buckets = {}
    for v in range(G.n):
        if degs[v] <= base:
            continue
        k = 0
        while not ((2 ** k) * base <= degs[v] < (2 ** (k + 1)) * base):
            k += 1
        buckets.setdefault(k, []).append(v)
    classes = tuple((k, frozenset(buckets[k])) for k in sorted(buckets))
    return DyadicClasses(classes, base)


def reference_independent_removal_color(G, r, seed, budget=None):
    """coloring.independent_removal_color inducing the whole remainder
    from every edge of G each round, counting a class's incident edges by
    a scan of the remainder's edges, and inducing the class from the
    remainder through a second label map."""
    from hyperchrome import exact
    from hyperchrome.coloring import _greedy_independent, lll_color
    from hyperchrome.constructions import mix_seed

    budget = exact.UNLIMITED if budget is None else budget
    if G.k != 3:
        raise ValueError("handles 3-graphs")
    meter = budget.start()
    total = r
    colors = [-1] * G.n
    alive = set(range(G.n))
    removals = 0
    r_now = r
    while True:
        if meter.late():
            return ColoringFailure("budget-exhausted", {"stage": "removal"})
        cur, verts = reference_induced(G, alive)
        if r_now <= 0:
            if cur.n == 0:
                break
            return ColoringFailure("palette-exhausted",
                                   {"remaining_vertices": cur.n})
        dc = reference_dyadic_classes(cur, r_now)
        if not dc.classes:
            res = lll_color(cur, r_now, mix_seed(seed, 1 + removals), check=False)
            if isinstance(res, ColoringFailure):
                return ColoringFailure("resample-cap", res.detail)
            for local, v in enumerate(verts):
                colors[v] = res.colors[local]
            break

        def incident(entry):
            _, members = entry
            return sum(1 for e in cur.edges if any(v in members for v in e))

        k, members = max(dc.classes, key=lambda kv: (incident(kv), -kv[0]))
        cls_sub, cls_verts = reference_induced(cur, members)
        chosen_local = None
        if cls_sub.n <= 24:
            res = exact.max_independent_set(cls_sub, meter)
            if res is not exact.EXHAUSTED:
                chosen_local = set(res)
        if chosen_local is None:
            chosen_local = _greedy_independent(cls_sub)
        fresh = total - 1 - removals
        for local in chosen_local:
            colors[verts[cls_verts[local]]] = fresh
        alive -= {verts[cls_verts[local]] for local in chosen_local}
        removals += 1
        r_now -= 1
    return Coloring(tuple(colors), total)


def reference_balance(H):
    """core.balance reading is_balanced from a second pass over the whole
    edge set."""
    from fractions import Fraction

    from hyperchrome.core import Balance

    if H.k != 3:
        raise ValueError("balance is defined for 3-graphs")
    m = len(H.edges)
    if m < 2:
        raise ValueError("balance needs at least 2 edges")
    best = None
    best_sub = None
    for size in range(2, m + 1):
        for sub in itertools.combinations(H.edges, size):
            covered = set()
            for e in sub:
                covered.update(e)
            val = Fraction(size - 1, len(covered) - 3)
            if best is None or val > best:
                best, best_sub = val, sub
    whole_covered = set()
    for e in H.edges:
        whole_covered.update(e)
    whole = Fraction(m - 1, len(whole_covered) - 3)
    return Balance(best, best_sub, whole == best)


def packing_number(n, lam):
    """Schönheim's bound for the lambda-fold packing number D_lambda(n, 3, 2),
    the most triples on n points with every pair in at most lambda of them:
    floor((n/3) floor(lambda (n-1)/2)), one less when lambda = 1 and
    n = 5 (mod 6).  It is exact for lambda = 1 (Spencer, "Maximal consistent
    families of triples", JCT 1968) and at the lambda = 2, 3 rows pinned."""
    return n * (lam * (n - 1) // 2) // 3 - (lam == 1 and n % 6 == 5)


def bipartite_count(n):
    """The edges of the balanced complete bipartite 3-graph on n vertices:
    every triple but those inside one of two parts of sizes floor(n/2) and
    ceil(n/2).  Fano-free, and extremal for n >= 8 (Bellmann and Reiher,
    "Turan's theorem for the Fano plane", Combinatorica 2019)."""
    return math.comb(n, 3) - math.comb(n // 2, 3) - math.comb((n + 1) // 2, 3)


def turan_cyclic_count(n):
    """The edges of Turan's K4-free construction on n vertices: three parts
    as equal as possible, and the triples meeting all three or holding two
    vertices of part i and one of part i + 1 (mod 3), the larger of the two
    cyclic orientations."""
    sizes = [n // 3 + (i < n % 3) for i in range(3)]
    return max(sizes[0] * sizes[1] * sizes[2]
               + sum(math.comb(s[i], 2) * s[(i + 1) % 3] for i in range(3))
               for s in (sizes, sizes[::-1]))
