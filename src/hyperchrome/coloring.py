"""Constructive coloring machinery: greedy coloring with chain certificates,
constructive local-lemma coloring, degree splits, layered peeling, dyadic
independent-set removal, and the greedy-failure extraction.

Every operation is a pure function of (input, seed).  Operations that can
fail for structural reasons return a :class:`ColoringFailure` value; raising
is reserved for violated call contracts.
"""

import random
from collections import namedtuple
from fractions import Fraction
from heapq import heappop, heappush

from . import exact
from .core import Coloring, OrderedChain, induced
from .constructions import mix_seed, named

# rational upper bound on Euler's number, error < 1e-18; thresholds compare
# degrees against r^2/(3e) and r^2/(12e), and using an upper bound for e keeps
# every acceptance conservative (flag true only when the true inequality holds)
E_UPPER = Fraction(2718281828459045236, 10 ** 18)

# c = (12e)^{-1}, the small/big degree split constant
SMALL_DEGREE_COEFF = Fraction(1, 12) / E_UPPER


class GreedyTrace(namedtuple("GreedyTrace", "coloring")):
    """A first-fit greedy coloring.  Its chain witnesses follow from G, the
    order and the colors, and extract_chain finds them from there."""

    __slots__ = ()


class GreedyFailure(namedtuple("GreedyFailure",
                               "vertex cap witnesses colors")):
    """Greedy hit the palette cap: `vertex` would need color >= cap, with one
    witness edge per blocked color 0..cap-1.  `colors` holds the colors
    given before the failure, -1 for the rest."""

    __slots__ = ()


class ColoringFailure(namedtuple("ColoringFailure", "stage detail")):
    """Structured failure of a coloring procedure."""

    __slots__ = ()


def greedy_pluhar(G, ord, palette_cap=None):
    """First-fit greedy coloring along `ord`.

    Each vertex takes the minimal color that does not complete a
    monochromatic edge.  With `palette_cap` set, returns a GreedyFailure at
    the first vertex that would need a color >= cap, with its cap-many
    witness edges (`_witness`).  An order not on G's vertices raises.
    """
    if G.k != 3:
        raise ValueError("greedy coloring handles 3-graphs")
    n, at = G.n, G.at
    if ord.n != n:
        raise ValueError("order does not match graph")
    colors = [-1] * n
    top = -1
    for v in ord.order:
        blocked = set()
        for a, b, c in at[v]:
            # (a, b) becomes the pair of the edge's vertices other than v
            if a == v:
                a = c
            elif b == v:
                b = c
            ca = colors[a]
            if ca >= 0 and ca == colors[b]:
                blocked.add(ca)
        c = 0
        while c in blocked:
            c += 1
        if palette_cap is not None and c >= palette_cap:
            return GreedyFailure(v, palette_cap, tuple(
                _witness(G, ord, colors, v, i) for i in range(palette_cap)),
                tuple(colors))
        colors[v] = c
        top = max(top, c)
    palette = max(top + 1, 1) if n else 1
    return GreedyTrace(Coloring(tuple(colors), palette))


def _witness(G, ord, colors, v, c):
    # the witness rule: v's first edge in G.at[v] whose two other vertices
    # come before v in the order and have color c
    pos = ord.position
    for e in G.at[v]:
        if all(u == v or (colors[u] == c and pos[u] < pos[v]) for u in e):
            return e
    raise ValueError("coloring is not greedy along the order")


def _descend(G, ord, colors, starts, c):
    # from the earliest of `starts` at color c: take the witness for color
    # c-1 and continue from its minimum-position vertex
    if ord.n != G.n:
        raise ValueError("order does not match graph")
    pos = ord.position
    v = min(starts, key=pos.__getitem__)
    chain = []
    while c > 0:
        c -= 1
        e = _witness(G, ord, colors, v, c)
        chain.append(e)
        v = min(e, key=pos.__getitem__)
    return OrderedChain(tuple(reversed(chain)))


def extract_chain(G, ord, trace):
    """An ordered (C-1)-chain certifying a C-color greedy trace, C >= 2.

    Starts from the earliest vertex of the top color and repeatedly descends
    through witness edges to their minimum-position vertex.  Each witness is
    found in G by `_witness`; a coloring not first-fit along `ord` raises.
    """
    colors = trace.coloring.colors
    if len(colors) != G.n:
        raise ValueError("trace does not match graph")
    top = max(colors, default=0)
    if top < 1:
        raise ValueError("chain extraction needs at least 2 colors")
    return _descend(G, ord, colors,
                    (v for v in range(G.n) if colors[v] == top), top)


def chain_from_failure(G, ord, failure):
    """An ordered cap-chain from a greedy palette-cap failure: the failing
    vertex descends through its witnesses and then through those of the
    earlier vertices it lands on, all found from `failure.colors`."""
    return _descend(G, ord, failure.colors, (failure.vertex,), failure.cap)


def chain_or_independent(G, ord, r, t):
    """Either an ordered r-chain or an independent set of size >= t.

    Requires at least (t-1)r + 1 vertices.  Greedy with palette cap r either
    fails (chain via extraction) or colors everything, in which case the
    largest color class has size >= ceil(n/r) >= t and is independent.
    """
    if G.n < (t - 1) * r + 1:
        raise ValueError("need at least (t-1)r + 1 vertices")
    res = greedy_pluhar(G, ord, palette_cap=r)
    if isinstance(res, GreedyFailure):
        return chain_from_failure(G, ord, res)
    classes = res.coloring.color_classes()
    best = max(range(len(classes)), key=lambda c: (len(classes[c]), -c))
    return frozenset(classes[best])


class LllReport(namedtuple("LllReport", "ok max_degree p d ep_bound")):
    """Bookkeeping for the symmetric local lemma on monochromatic-edge events."""

    # p = 1/r^2 (a Fraction), probability one edge goes monochromatic;
    # d = 3*(max_degree - 1) + 1, the dependency count; ep_bound = e*p*(d+1)
    __slots__ = ()


def lll_check(G, r):
    """True iff max degree <= r^2 / (3e), compared as exact rationals."""
    if G.k != 3:
        raise ValueError("lll_check handles 3-graphs")
    if r < 1:
        raise ValueError("palette must be at least 1")
    delta = G.max_degree()
    ok = Fraction(3 * delta) * E_UPPER <= r * r
    p = Fraction(1, r * r)
    d = max(3 * (delta - 1) + 1, 0)
    return LllReport(ok, delta, p, d, float(E_UPPER) * float(p) * (d + 1))


def lll_color(G, r, seed, max_resamples=None, check=True):
    """Moser-Tardos coloring: random assignment, then repeatedly re-randomize
    the lowest-index monochromatic edge until the coloring is proper.

    One O(m) pass colors every vertex and collects the monochromatic edges
    into a min-heap; the edge list is sorted, so the smallest heap entry is
    the lowest-index one.  Entries are dropped lazily once no longer
    monochromatic, and after a resample only the edges at its three vertices
    are rechecked, so each step costs time proportional to their degrees.

    Deterministic per seed.  Default resample cap is 1000 * |E|; exceeding it
    returns a ColoringFailure("resample-cap").  With check=True (default) a
    failing lll_check raises ValueError; pass check=False to override.
    """
    if G.k != 3:
        raise ValueError("lll_color handles 3-graphs")
    if check and not lll_check(G, r).ok:
        raise ValueError("lll_check fails for this graph and palette; "
                         "pass check=False to override")
    if max_resamples is None:
        max_resamples = 1000 * len(G.edges)
    rng = random.Random(seed)
    colors = [rng.randrange(r) for _ in range(G.n)]
    at = G.at
    # collected in edge order, so already a heap
    mono = [e for e in G.edges
            if colors[e[0]] == colors[e[1]] == colors[e[2]]]
    resamples = 0
    while mono:
        e = heappop(mono)
        a, b, c = e
        if not colors[a] == colors[b] == colors[c]:
            continue  # stale: a resample since the push recolored it
        if resamples >= max_resamples:
            return ColoringFailure("resample-cap",
                                   {"resamples": resamples, "edge": e})
        for v in e:
            colors[v] = rng.randrange(r)
        resamples += 1
        for v in e:
            for f in at[v]:
                if colors[f[0]] == colors[f[1]] == colors[f[2]]:
                    heappush(mono, f)
    return Coloring(tuple(colors), r)


def small_big_split(G, r):
    """(V_small, V_big): vertices of degree <= c*r^2 with c = (12e)^{-1}, and
    the rest.  The small side always passes lll_check at ceil(r/2) colors."""
    threshold = SMALL_DEGREE_COEFF * r * r
    degs = G.degrees()
    small = tuple(v for v in range(G.n) if degs[v] <= threshold)
    big = tuple(v for v in range(G.n) if degs[v] > threshold)
    return small, big


class LayerDecomposition(namedtuple("LayerDecomposition",
                                    "layers threshold core")):
    """Layers L_i = V_i \\ V_{i+1} of the iterated high-degree peeling, plus
    the residual core when peeling reaches a nonempty fixpoint."""

    __slots__ = ()


def peel_layers(G, theta):
    """Iterate V_{i+1} = {v in V_i : deg in G[V_i] >= theta} to exhaustion.

    When every vertex of some nonempty V_i keeps degree >= theta, iteration
    stops and V_i is reported as the residual core.  A vertex's degree in
    G[V_i] is the number of its edges in G.at that lie inside V_i.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    at = G.at
    layers = []
    current = frozenset(range(G.n))
    while current:
        nxt = frozenset(v for v in current
                        if sum(map(current.issuperset, at[v])) >= theta)
        if nxt == current:
            return LayerDecomposition(tuple(layers), theta, current)
        layers.append(current - nxt)
        current = nxt
    return LayerDecomposition(tuple(layers), theta, frozenset())


def layered_color(G, theta, per_layer, seed, check=True):
    """Color each peeling layer with its own palette block via lll_color.

    An edge lies inside G[V_i] for i = the least layer among its vertices; if
    it is not inside G[L_i] it spans two palette blocks and cannot go
    monochromatic, so per-layer proper colorings compose to a proper coloring
    of G.  Total palette is (#layers) * per_layer.  Returns a
    ColoringFailure for a nonempty residual core, a layer failing lll_check
    (unless check=False), or a resample cap.
    """
    decomp = peel_layers(G, theta)
    if decomp.core:
        return ColoringFailure("residual-core", {"core": tuple(sorted(decomp.core))})
    colors = [0] * G.n
    for i, layer in enumerate(decomp.layers):
        sub, verts = induced(G, layer)
        if check and not lll_check(sub, per_layer).ok:
            return ColoringFailure("layer-lll-check",
                                   {"layer": i, "max_degree": sub.max_degree()})
        res = lll_color(sub, per_layer, mix_seed(seed, i), check=False)
        if isinstance(res, ColoringFailure):
            return ColoringFailure("resample-cap", {"layer": i, **res.detail})
        for local, v in enumerate(verts):
            colors[v] = i * per_layer + res.colors[local]
    palette = max(len(decomp.layers) * per_layer, 1)
    return Coloring(tuple(colors), palette)


class DyadicClasses(namedtuple("DyadicClasses", "classes base_threshold")):
    """Dyadic degree classes over V_big: v in class k iff
    2^k * c * r^2 <= deg(v) < 2^(k+1) * c * r^2."""

    # classes = ((k, frozenset), ...) sorted by k, empty classes omitted
    __slots__ = ()


def dyadic_classes(G, r):
    """Partition V_big by dyadic degree bands above c*r^2, exactly: with
    c*r^2 = num/den, deg > c*r^2 iff deg*den > num, compared as integers."""
    if r < 1:
        raise ValueError("palette must be at least 1")
    base = SMALL_DEGREE_COEFF * r * r
    num, den = base.numerator, base.denominator
    buckets = {}
    for v, deg in enumerate(G.degrees()):
        if deg * den > num:
            # deg / base >= 1: the band is the floor of its base-2 logarithm
            buckets.setdefault((deg * den // num).bit_length() - 1, []).append(v)
    classes = tuple((k, frozenset(buckets[k])) for k in sorted(buckets))
    return DyadicClasses(classes, base)


def _greedy_independent(sub):
    # min-degree-first greedy independent set on an induced subgraph
    at = sub.at
    chosen = set()
    for v in sorted(range(sub.n), key=lambda v: (len(at[v]), v)):
        if not any(all(u in chosen or u == v for u in e) for e in at[v]):
            chosen.add(v)
    return chosen


def independent_removal_color(G, r, seed, budget=exact.UNLIMITED):
    """Heuristic coloring along the dyadic independent-set removal argument.

    While the current graph has high-degree vertices, take the dyadic class
    with the most incident edges, color a large independent set of it (exact
    search when the class has <= 24 vertices and the budget allows, greedy
    min-degree-first otherwise) with one fresh color, remove it and decrement
    the palette.  The remaining low-degree graph goes to lll_color with the
    palette that is left.  The exact searches spend one meter, whose
    deadline is also read before each round and after the last.  Each round
    induces the remaining graph once, and the chosen class from G itself.
    """
    if G.k != 3:
        raise ValueError("handles 3-graphs")
    meter = budget.start()
    colors = [-1] * G.n
    alive = set(range(G.n))
    for fresh in reversed(range(r)):  # fresh + 1 colors are left
        if meter.late():
            return ColoringFailure("budget-exhausted", {"stage": "removal"})
        cur, verts = induced(G, alive)
        dc = dyadic_classes(cur, fresh + 1)
        if not dc.classes:
            # everything left is low degree: deg <= r^2/(12e) <= r^2/(3e),
            # so the lemma's condition holds by construction
            res = lll_color(cur, fresh + 1, mix_seed(seed, r - fresh), check=False)
            if isinstance(res, ColoringFailure):
                return ColoringFailure("resample-cap", res.detail)
            for local, v in enumerate(verts):
                colors[v] = res.colors[local]
            return Coloring(tuple(colors), r)
        at = cur.at  # the edges at a class: the union of its members' lists
        _, members = max(dc.classes, key=lambda kv: (
            len(set().union(*map(at.__getitem__, kv[1]))), -kv[0]))
        cls_sub, cls_verts = induced(G, map(verts.__getitem__, members))
        chosen = exact.EXHAUSTED
        if cls_sub.n <= 24:
            chosen = exact.max_independent_set(cls_sub, meter)
        if chosen is exact.EXHAUSTED:
            chosen = _greedy_independent(cls_sub)
        chosen = {cls_verts[i] for i in chosen}
        for v in chosen:
            colors[v] = fresh
        alive -= chosen
    if meter.late():
        return ColoringFailure("budget-exhausted", {"stage": "removal"})
    if alive:
        return ColoringFailure("palette-exhausted",
                               {"remaining_vertices": len(alive)})
    return Coloring(tuple(colors), r)


class SunflowerViolation(ValueError):
    """Raised when the greedy-failure extraction finds an edge: the picked
    vertices plus their witness edges certify a sunflower7 copy."""

    def __init__(self, edge, certificate):
        super().__init__(f"extraction found edge {edge}: input was not sunflower7-free")
        self.edge = edge
        self.certificate = certificate


def e288_extract(G, ord, r_prime):
    """Greedy at cap r'; on failure, one minimum-position vertex from each
    witness edge forms an independent set of size r' when G is sunflower7-free.

    Success returns the Coloring.  The returned set is revalidated; an edge
    inside it is a sunflower7 certificate and raises SunflowerViolation.
    """
    if G.k != 3:
        raise ValueError("handles 3-graphs")
    res = greedy_pluhar(G, ord, palette_cap=r_prime)
    if isinstance(res, GreedyTrace):
        return res.coloring
    pos = ord.position
    v = res.vertex
    picked = []
    for e in res.witnesses:
        others = [u for u in e if u != v]
        picked.append(min(others, key=lambda u: pos[u]))
    chosen = frozenset(picked)
    if len(chosen) != r_prime:
        raise SunflowerViolation(None, {"vertex": v, "witnesses": res.witnesses})
    for e in G.edges:
        if all(u in chosen for u in e):
            raise SunflowerViolation(e, {
                "vertex": v,
                "witnesses": res.witnesses,
                "pattern": named("sunflower7"),
            })
    return chosen
