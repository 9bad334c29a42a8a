"""The search kernels: exact k-coloring and maximum independent set.

Callers reach them through this module's attributes, so that a tracer or a
test can substitute them in one place.

Both searches run on an explicit stack, so their depth is bounded by memory,
not by the interpreter's recursion limit.  A search adds each node it
enters to the budget's core.Meter and reads the clock only through it.  A
search returns EXHAUSTED at the first node past the cap, at once if the cap
is reached, and when the deadline passes, also while it builds its tables
from the edges.
Every pruning rule below only skips subtrees that hold no better answer, so
the tree is a subset of the plain backtracking tree, visited in the same
order: the answers equal the plain search's, and a node cap under which the
plain search finishes is never hit.

Each search builds its table per call.  The coloring search keeps one entry
per edge, at the edge's middle position in the search order, and reads it
only at the positions that hold the color it tries; the independent-set
search keeps each edge's vertex mask at each of its vertices, and in a list.
"""

import sys

from .core import EXHAUSTED, UNLIMITED, Coloring, Meter

_TIME_CHECK_MASK = 4095

# read only by perfbench/; goes at its next declared change (ROADMAP item 1)
_native = None
pure = sys.modules[__name__]


# read only by perfbench/; goes at its next declared change (ROADMAP item 1)
def backend_name(n=0):
    return "pure"


def _clocked(edges, meter):
    """The edges in order; after every _TIME_CHECK_MASK + 1 of them, raises
    TimeoutError if the meter's deadline has passed."""
    for i, e in enumerate(edges, 1):
        yield e
        if not i & _TIME_CHECK_MASK and meter.late():
            raise TimeoutError


def kcolor_search(n, edges, k, order, budget=UNLIMITED, *legacy):
    """Backtracking k-colorability along a fixed vertex order.

    Colors are tried in increasing order.  First-use symmetry: a vertex may
    take colors 0..min(used, k-1), where used is the number of colors the
    earlier vertices use, so solutions come out in first-use normal form.
    A color c is banned at v iff some edge holds v plus two vertices already
    colored c.  Forward checking keeps, per (position, color), the count of
    such edges, and a child in which some uncolored position has all k
    colors banned is not entered.  Coloring position y with c bans c at z
    for every edge at positions x < y < z with x colored c; no other edge
    can add a ban.  So the table holds each edge once, at its middle
    position y, keyed by x, and trying c reads only its keys colored c:
    through the members of c, or through the keys at y when those are
    fewer, so that a try never reads more than the vertex's own edges.
    Returns the lexicographically least proper k-coloring along the order
    as a Coloring with palette k, None if there is none, or EXHAUSTED.
    """
    # an int budget is a node cap, and legacy its deadline: read only by
    # perfbench/ and tests; goes at ROADMAP item 1's declared change
    meter = Meter(budget, *legacy) if type(budget) is int else budget.start()
    palette = k
    if n == 0:
        return Coloring((), palette)
    if meter.full():
        return EXHAUSTED
    k = min(k, n)  # at most n - 1 colors are ever in use, so no search change
    pos = [0] * n
    for p, v in enumerate(order):
        pos[v] = p
    fwd = [{} for _ in range(n)]  # fwd[y][x]: z per edge at x < y < z
    try:
        for a, b, c in _clocked(edges, meter) if meter.deadline else edges:
            x, y, z = pos[a], pos[b], pos[c]
            if x > y:
                x, y = y, x
            if y > z:
                y, z = z, y
                if x > y:
                    x, y = y, x
            at = fwd[y]
            if x in at:
                at[x].append(z)
            else:
                at[x] = [z]
    except TimeoutError:
        return EXHAUSTED
    bans = [0] * (n * k)   # bans[z*k + c]: edges banning c at uncolored z
    nbanned = [0] * n      # colors with a nonzero ban count, per position
    members = [[] for _ in range(k)]  # members[c]: positions colored c
    tried = [-1] * n       # tried[p]: color at position p, or the last tried
    used = [0] * (n + 1)   # used[p]: colors in use at positions < p
    logs = [None] * n      # logs[p]: positions whose ban count p's color raised
    cap = meter.max_nodes
    meter.nodes += 1       # the root, position 0, is entered
    p = 0
    while True:
        base = p * k
        at = fwd[p]
        cmax = min(used[p], k - 1)
        c = tried[p] + 1
        log = None
        while c <= cmax:
            if not bans[base + c]:
                log = []
                wiped = False
                mem = members[c]
                if len(mem) > len(at):
                    mem = [x for x in at if tried[x] == c]
                for x in mem:
                    for z in at.get(x, ()):
                        i = z * k + c
                        bans[i] += 1
                        log.append(z)
                        if bans[i] == 1:
                            nbanned[z] += 1
                            if nbanned[z] == k:
                                wiped = True
                                break
                    if wiped:
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
            c = tried[p]
            members[c].pop()
            _unban(logs[p], c, k, bans, nbanned)
            continue
        members[c].append(p)
        tried[p] = c
        logs[p] = log
        used[p + 1] = used[p] if c < used[p] else c + 1
        meter.nodes += 1
        if 0 < cap < meter.nodes or (
                not meter.nodes & _TIME_CHECK_MASK and meter.late()):
            return EXHAUSTED
        p += 1
        if p == n:
            return Coloring(tuple(c for _, c in sorted(zip(order, tried))), palette)


def _unban(log, c, k, bans, nbanned):
    for u in log:
        i = u * k + c
        bans[i] -= 1
        if not bans[i]:
            nbanned[u] -= 1


def mis_search(n, edges, budget=UNLIMITED, *legacy, at_least=None):
    """Maximum independent set by include/exclude branch and bound.

    Vertices are considered in index order, include branch first.  A node
    carries the chosen set and the dead set: later vertices that some edge
    rules out because its other vertices are all chosen.  The other later
    vertices are alive, and an edge inside chosen | alive keeps one of its
    alive vertices out of every set below the node; so the bound is
    |chosen| + |alive| less a greedy packing of such edges' alive parts.
    Vertices in no edge, which lie in every maximum set, are set aside
    first.  Independence means containing no full edge.  Returns the first
    maximum set in include-first order as a frozenset, or EXHAUSTED; with
    at_least=s, the first set of at least s vertices, or None.
    """
    # as in kcolor_search: read only by perfbench/ and tests; goes at
    # ROADMAP item 1's declared change
    meter = Meter(budget, *legacy) if type(budget) is int else budget.start()
    if meter.full():
        return EXHAUSTED
    seen = set()
    try:
        for e in _clocked(edges, meter) if meter.deadline else edges:
            seen.update(e)
            if len(seen) == n:
                break
        isolated = frozenset(range(n)).difference(seen)
        covered = sorted(seen) if isolated else range(n)
        if isolated:
            label = {v: i for i, v in enumerate(covered)}
            edges = [tuple(label[v] for v in e) for e in (
                _clocked(edges, meter) if meter.deadline else edges)]
            n = len(covered)
        masks_at = [[] for _ in range(n)]
        emasks = []
        for e in _clocked(edges, meter) if meter.deadline else edges:
            mask = 0
            for v in e:
                mask |= 1 << v
            emasks.append(mask)
            for v in e:
                masks_at[v].append(mask)
    except TimeoutError:
        return EXHAUSTED
    full = (1 << n) - 1
    goal = n + 1 if at_least is None else at_least - len(isolated)
    best_size = -1 if at_least is None else goal - 1
    best_mask = 0
    cap = meter.max_nodes
    stack = [(0, 0, 0, 0)]  # (idx, chosen mask, |chosen|, dead mask)
    while stack and best_size < goal:
        idx, chosen, count, dead = stack.pop()
        meter.nodes += 1
        if 0 < cap < meter.nodes or (
                not meter.nodes & _TIME_CHECK_MASK and meter.late()):
            return EXHAUSTED
        alive = (full >> idx << idx) & ~dead
        free = alive.bit_count()
        bound = count + free
        # the packing scans every edge: computed, with a clock read, only
        # where it could prune; no packing exceeds free // 2
        if best_size < bound <= best_size + free // 2:
            if meter.late():
                return EXHAUSTED
            room = chosen | alive
            packed = 0
            for mask in emasks:
                if mask & room == mask and not mask & packed:
                    packed |= mask & alive
                    bound -= 1
                    if bound <= best_size:
                        break
        if bound <= best_size:
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
    if at_least is not None and best_size < goal:
        return None
    return isolated.union(covered[i] for i in range(n) if best_mask >> i & 1)
