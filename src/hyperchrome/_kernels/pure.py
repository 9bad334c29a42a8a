"""Pure-Python search kernels: exact k-coloring and maximum independent set.

The compiled twin in ``_native.pyx`` implements the same two algorithms step
for step; results must be bit-identical for equal inputs (budget-by-wall-clock
aside).  These run whenever the extension is not built or n > 64.

Statuses: 0 = found/exact, 1 = definitive none, 2 = budget exhausted.
"""

from time import monotonic

from ..core import pairs_at

FOUND = 0
NONE = 1
EXHAUSTED = 2

_TIME_CHECK_MASK = 4095


def kcolor_search(n, edges, k, order, max_nodes=0, deadline=0.0):
    """Backtracking k-colorability along a fixed vertex order.

    Symmetry broken by capping the vertex at position p to colors 0..min(p, k-1).
    A color c is infeasible at v iff some edge holds v plus two vertices
    already colored c.  Returns (status, colors-or-None).
    """
    if n == 0:
        return FOUND, []
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
        return FOUND, colors
    return (EXHAUSTED, None) if exhausted else (NONE, None)


def mis_search(n, edges, max_nodes=0, deadline=0.0):
    """Maximum independent set by include/exclude branch and bound.

    Vertices are considered in index order, include branch first; the bound
    is |current| + |remaining|.  Independence means containing no full edge.
    Returns (status, best-vertex-list); on exhaustion the best found so far.
    """
    if n == 0:
        return FOUND, []
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
    return (EXHAUSTED, best) if exhausted else (FOUND, best)
