"""Generators for every hypergraph family the project works with.

All randomized generators are pure functions of their seed: identical seeds
reproduce identical outputs bit for bit.
"""

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb, isqrt

from .core import Hypergraph, new_hypergraph

_MIX = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def mix_seed(seed, salt):
    """Derive a 64-bit sub-seed from a master seed and an integer salt."""
    x = (seed * _MIX + salt + 1) & _MASK64
    x ^= x >> 31
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 29
    return x


def complete(n):
    """K_n^3: all C(n,3) triples."""
    if n < 3:
        raise ValueError("complete 3-graph needs n >= 3")
    return Hypergraph(n, 3, tuple(combinations(range(n), 3)))


def loose_cycle(l):
    """C_l: 2l vertices, l edges, consecutive edges sharing one vertex cyclically."""
    if l < 3:
        raise ValueError("loose cycle needs length >= 3")
    edges = []
    for i in range(l):
        a = 2 * i
        edges.append(tuple(sorted((a, a + 1, (a + 2) % (2 * l)))))
    return new_hypergraph(2 * l, 3, edges)


def loose_path(l):
    """P_l: 2l+1 vertices, l edges, consecutive edges sharing one vertex."""
    if l < 1:
        raise ValueError("loose path needs length >= 1")
    edges = [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(l)]
    return new_hypergraph(2 * l + 1, 3, edges)


_FANO_LINES = ((0, 1, 2), (0, 3, 4), (0, 5, 6),
               (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5))

# the named 3-graphs, name -> (n, edges); `gen` offers each with - for _
NAMED = {
    "k4": (4, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))),
    "k4_minus": (4, ((0, 1, 2), (0, 1, 3), (0, 2, 3))),
    "linear_pair": (4, ((0, 1, 2), (0, 1, 3))),
    "neighborhood5": (5, ((0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4))),
    "sunflower7": (7, ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5))),
    "fano": (7, _FANO_LINES),
}


def named(name):
    """One of: k4, k4_minus, linear_pair, neighborhood5, sunflower7, fano."""
    try:
        n, edges = NAMED[name]
    except KeyError:
        raise ValueError(f"unknown named hypergraph {name!r}") from None
    return new_hypergraph(n, 3, edges)


def partition_example(r, t):
    """(t-1)r vertices in r parts of size t-1; edges = triples meeting >= 2 parts.

    The lower-bound construction for the ordered Ramsey identity: each part
    is a maximum independent set, and coloring by part is optimal.
    """
    if r < 1 or t < 3:
        raise ValueError("need r >= 1 and t >= 3")
    n = (t - 1) * r
    part_of = [v // (t - 1) for v in range(n)]
    edges = [e for e in combinations(range(n), 3)
             if not (part_of[e[0]] == part_of[e[1]] == part_of[e[2]])]
    return Hypergraph(n, 3, tuple(edges))


def _is_prime(q):
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def gq(q):
    """The symplectic generalized quadrangle W(3,q) as a (q+1)-uniform hypergraph.

    Vertices are the points of projective 3-space over the q-element prime
    field; edges are the totally isotropic lines of the symplectic form
    x0*y1 - x1*y0 + x2*y3 - x3*y2.  Gives a (q+1)-regular, (q+1)-uniform,
    linear, triangle-free geometry on q^3 + q^2 + q + 1 points.
    """
    if not _is_prime(q):
        raise ValueError("gq supports prime q only")

    def normalize(vec):
        # scale so the first nonzero coordinate is 1
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
            # the span {a*p_i + b*p_j} is totally isotropic since the form
            # is alternating and vanishes on the pair
            line = set()
            pi, pj = points[i], points[j]
            for a in range(q):
                comb = normalize(tuple((a * x + y) % q for x, y in zip(pi, pj)))
                line.add(index[comb])
            line.add(i)
            lines.add(tuple(sorted(line)))
    return Hypergraph(npts, q + 1, tuple(sorted(lines)))


def gq_axiom_holds(G):
    """Generalized-quadrangle axiom: for every vertex p off a line L there is
    exactly one line through p meeting L."""
    at = G.at
    for p in range(G.n):
        for line in G.edges:
            if p in line:
                continue
            meeting = sum(1 for e in at[p] if any(v in line for v in e))
            if meeting != 1:
                return False
    return True


@dataclass(frozen=True)
class BlowupSpec:
    """Parameters of the random grid blow-up of one edge."""

    m: int
    tau: int
    seed: int

    def __post_init__(self):
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
        if self.m < self.tau ** 2 + 2 * self.tau:
            raise ValueError("vertex count must be at least tau^2 + 2*tau")


def fq_blowup(spec):
    """Random 3-graph on m vertices: a tau x tau grid of singletons v_ij plus
    side sets S_1..S_tau, T_1..T_tau of near-equal size; edges are all
    {v_ij, a, b} with a in S_i, b in T_j.

    The seeded shuffle decides the split; leftover vertices after equal
    division go one each to S_1, T_1, S_2, T_2, ... in that fixed sequence.
    """
    m, tau = spec.m, spec.tau
    rng = random.Random(spec.seed)
    perm = list(range(m))
    rng.shuffle(perm)
    grid = perm[:tau * tau]
    rest = perm[tau * tau:]
    base, extra = divmod(len(rest), 2 * tau)
    sizes = [base + (1 if i < extra else 0) for i in range(2 * tau)]
    groups = []
    pos = 0
    for size in sizes:
        groups.append(rest[pos:pos + size])
        pos += size
    S = [groups[2 * i] for i in range(tau)]
    T = [groups[2 * i + 1] for i in range(tau)]
    edges = []
    for i in range(tau):
        for j in range(tau):
            vij = grid[i * tau + j]
            for a in S[i]:
                for b in T[j]:
                    edges.append(tuple(sorted((vij, a, b))))
    return new_hypergraph(m, 3, edges)


def blow_up(G, tau, seed):
    """Replace every edge of G by an independent seeded fq_blowup on its vertices.

    Per-edge sub-seeds mix the master seed with the edge's index in the
    sorted edge list, so the result is deterministic and edges are split
    independently.
    """
    if G.k < tau ** 2 + 2 * tau:
        raise ValueError("uniformity of G too small for this tau")
    edges = set()
    for idx, e in enumerate(G.edges):
        verts = sorted(e)
        sub = fq_blowup(BlowupSpec(G.k, tau, mix_seed(seed, idx)))
        for t in sub.edges:
            edges.add(tuple(sorted(verts[v] for v in t)))
    return Hypergraph(G.n, 3, tuple(sorted(edges)))


def random_3graph(n, m, seed):
    """m distinct uniform-random triples on n vertices, seeded.

    Samples m lexicographic ranks among the C(n,3) triples and unranks them
    in one sorted sweep, in O(m) memory.  ``random.sample`` picks the same
    positions from a range as from a list of equal length, so the result is
    the one sampling from the full list of triples would give.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if m < 0:
        raise ValueError("edge count must be nonnegative")
    total = comb(n, 3)
    if m > total:
        raise ValueError(f"at most {total} edges fit on {n} vertices")
    ranks = sorted(random.Random(seed).sample(range(total), m))
    edges = []
    a = 0
    start = 0  # rank of the first triple whose least vertex is a
    for r in ranks:
        while r >= start + comb(n - 1 - a, 2):
            start += comb(n - 1 - a, 2)
            a += 1
        # (b, c) is pair r - start among the pairs of the n-1-a vertices after
        # a; i * (w - i) / 2 of those pairs have first offset below i
        r -= start
        w = 2 * (n - 1 - a) - 1
        i = (w - isqrt(w * w - 8 * r)) // 2
        while i * (w - i) // 2 > r:
            i -= 1
        j = i + 1 + r - i * (w - i) // 2
        edges.append((a, a + 1 + i, a + 1 + j))
    return Hypergraph(n, 3, tuple(edges))


def random_hypertree(e, seed):
    """Connected 3-uniform hyperforest with e edges on 2e+1 vertices, built by
    attaching each new edge at a uniformly chosen existing vertex."""
    if e < 1:
        raise ValueError("need at least one edge")
    rng = random.Random(seed)
    edges = [(0, 1, 2)]
    used = 3
    for _ in range(e - 1):
        anchor = rng.randrange(used)
        edges.append(tuple(sorted((anchor, used, used + 1))))
        used += 2
    return new_hypergraph(used, 3, edges)
