"""The search kernels: exact k-coloring and maximum independent set.

Callers reach them through this module's attributes, so that a tracer or a
test can substitute them in one place.

Both searches run on an explicit stack, so their depth is bounded by memory,
not by the interpreter's recursion limit.  A search node is counted when it
is entered; ``max_nodes`` caps that count, and a search that hits the cap or
its deadline returns EXHAUSTED.  Every pruning rule below only skips
subtrees that hold no better answer, so the tree is a subset of the plain
backtracking tree, visited in the same order: the answers equal the plain
search's, and a node cap under which the plain search finishes is never hit.
"""

import sys
from time import monotonic

from .core import EXHAUSTED, Coloring, pairs_at

_TIME_CHECK_MASK = 4095

# read only by perfbench/; goes at its next declared change (ROADMAP item 1)
_native = None
pure = sys.modules[__name__]


# read only by perfbench/; goes at its next declared change (ROADMAP item 1)
def backend_name(n=0):
    return "pure"


def kcolor_search(n, edges, k, order, max_nodes=0, deadline=0.0):
    """Backtracking k-colorability along a fixed vertex order.

    Colors are tried in increasing order.  First-use symmetry: a vertex may
    take colors 0..min(used, k-1), where used is the number of colors the
    earlier vertices use, so solutions come out in first-use normal form.
    A color c is banned at v iff some edge holds v plus two vertices already
    colored c.  Forward checking keeps, per (vertex, color), the count of
    such edges: coloring v with c bans c at b for every edge {v, a, b} with
    a colored c and b uncolored, and a child in which some uncolored vertex
    has all k colors banned is not entered.  Returns the lexicographically
    least proper k-coloring along the order as a Coloring with palette k,
    None if there is none, or EXHAUSTED.
    """
    palette = k
    if n == 0:
        return Coloring((), palette)
    k = min(k, n)  # at most n - 1 colors are ever in use, so no search change
    pairs = pairs_at(n, edges)
    colors = [-1] * n
    bans = [0] * (n * k)   # bans[u*k + c]: edges banning c at uncolored u
    nbanned = [0] * n      # colors with a nonzero ban count, per vertex
    tried = [-1] * n       # tried[p]: color at position p, or the last tried
    used = [0] * (n + 1)   # used[p]: colors in use at positions < p
    logs = [None] * n      # logs[p]: vertices whose ban count p's color raised
    nodes = 1              # the root, position 0, is entered
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
                _unban(log, c, k, bans, nbanned)
                log = None
            c += 1
        if log is None:
            # every color tried: back up to the previous position
            tried[p] = -1
            p -= 1
            if p < 0:
                return None
            colors[order[p]] = -1
            _unban(logs[p], tried[p], k, bans, nbanned)
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


def _unban(log, c, k, bans, nbanned):
    for u in log:
        i = u * k + c
        bans[i] -= 1
        if not bans[i]:
            nbanned[u] -= 1


def mis_search(n, edges, max_nodes=0, deadline=0.0):
    """Maximum independent set by include/exclude branch and bound.

    Vertices are considered in index order, include branch first.  A node
    carries the chosen set and the dead set: later vertices that some edge
    rules out because its other vertices are all chosen.  The bound is
    |chosen| + |remaining vertices not dead|.  Independence means containing
    no full edge.  Returns the first maximum set in include-first order as a
    frozenset, or EXHAUSTED.
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
    full = (1 << n) - 1
    best_size = -1
    best_mask = 0
    nodes = 0
    stack = [(0, 0, 0, 0)]  # (idx, chosen mask, |chosen|, dead mask)
    while stack:
        idx, chosen, count, dead = stack.pop()
        nodes += 1
        if max_nodes and nodes > max_nodes:
            return EXHAUSTED
        if deadline and (nodes & _TIME_CHECK_MASK) == 0 and monotonic() > deadline:
            return EXHAUSTED
        if count + ((full >> idx << idx) & ~dead).bit_count() <= best_size:
            continue
        if idx == n:
            best_size = count
            best_mask = chosen
            continue
        stack.append((idx + 1, chosen, count, dead))
        with_v = chosen | (1 << idx)
        new_dead = dead
        for mask in masks_at[idx]:
            rest = mask & ~with_v
            if not rest:
                break
            if not rest & (rest - 1):
                new_dead |= rest
        else:
            stack.append((idx + 1, with_v, count + 1, new_dead))
    return frozenset(i for i in range(n) if best_mask >> i & 1)
