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

Each search builds its table per call.  The coloring search keeps each edge
under each of its three vertex pairs, keyed at both ends by search position,
and a position that takes a color reads only its pairs with positions that
hold that color; with least=True it builds that table once for every
palette it tries.  The independent-set search keeps each edge's vertex mask
at each of its vertices, and in a list.
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


def _covered(n, edges, meter):
    """The vertices in some edge; raises TimeoutError as _clocked does."""
    seen = set()
    for e in _clocked(edges, meter) if meter.deadline else edges:
        seen.update(e)
        if len(seen) == n:
            break
    return seen


def kcolor_search(n, edges, k, order, budget=UNLIMITED, *legacy, least=False):
    """Backtracking k-colorability along a fixed vertex order.

    Colors are tried in increasing order.  First-use symmetry: a vertex may
    take colors 0..min(used, k-1), where used is the number of colors the
    earlier vertices use, so solutions come out in first-use normal form.
    A vertex is fixed when it is colored or forced.  A color c is banned at
    an uncolored vertex iff some edge holds it plus two vertices fixed to
    c, and an uncolored vertex whose bans leave it one color is forced to
    that color; at k = 1 a ban leaves none, so no vertex is forced.  Each
    try propagates its bans and forcings to a fixpoint and is not entered
    if some vertex is left with no color, which also covers an edge whose
    three vertices are fixed alike.  A forced vertex's own try reads
    nothing, since its edges were read when it was forced.  A skipped
    subtree holds no proper coloring, so the answer is plain
    backtracking's.  The table holds each edge under each of its three
    vertex pairs, keyed at both ends; a newly fixed vertex reads only its
    pairs with vertices fixed to its color, through that color's members
    or through its own keys, whichever are fewer.  Vertices in no edge
    are set aside first: they take color 0 in the least coloring, and
    dropping them changes no other color.
    Returns the lexicographically least proper k-coloring along the order
    as a Coloring with palette k, None if there is none, or EXHAUSTED.
    With least=True, palettes k, k + 1, ... are tried in turn on one table,
    the deadline is read before each new one, and the first coloring found
    is returned.
    """
    # an int budget is a node cap, and legacy its deadline: read only by
    # perfbench/ and tests; goes at ROADMAP item 1's declared change
    meter = Meter(budget, *legacy) if type(budget) is int else budget.start()
    if meter.full():
        return EXHAUSTED
    try:
        seen = _covered(n, edges, meter)
        order = [v for v in order if v in seen]
        pos = [0] * n
        for p, v in enumerate(order):
            pos[v] = p
        # pairs[u][w]: the third positions of the edges at u and w, one
        # list per pair shared by both ends
        pairs = [{} for _ in order]
        for a, b, c in _clocked(edges, meter) if meter.deadline else edges:
            x, y, z = pos[a], pos[b], pos[c]
            at_x, at_y = pairs[x], pairs[y]
            if y in at_x:
                at_x[y].append(z)
            else:
                at_x[y] = at_y[x] = [z]
            if z in at_x:
                at_x[z].append(y)
            else:
                at_x[z] = pairs[z][x] = [y]
            if z in at_y:
                at_y[z].append(x)
            else:
                at_y[z] = pairs[z][y] = [x]
    except TimeoutError:
        return EXHAUSTED
    if not order:
        return Coloring((0,) * n, k)
    got = _least_coloring(pairs, k, meter)
    while least and got is None:
        if meter.late() or meter.full():
            return EXHAUSTED
        k += 1
        got = _least_coloring(pairs, k, meter)
    if got is None or got is EXHAUSTED:
        return got
    colors = [0] * n
    for v, c in zip(order, got):
        colors[v] = c
    return Coloring(tuple(colors), k)


def _least_coloring(pairs, k, meter):
    # kcolor_search at one palette on its table: the colors by position,
    # None or EXHAUSTED.  A position is pushed on todo when a ban forces
    # it, and its color is fixed when popped: a try that wipes out first
    # never pays for the forcings it did not reach.
    n = len(pairs)
    k = min(k, n)  # at most n - 1 colors are ever in use, so no search change
    last = k - 1 or -1     # the count of banned colors that forces
    bans = [0] * (k * n)   # bans[c*n + z]: whether c is banned at uncolored z
    nbanned = [0] * n      # colors banned, per position
    col = [-1] * n         # col[p]: color of a fixed (colored or forced) p
    members = [[] for _ in range(k)]  # members[c]: positions fixed to c
    tried = [-1] * n       # tried[p]: color at position p, or the last tried
    used = [0] * (n + 1)   # used[p]: colors in use at positions < p
    logs = [None] * n      # logs[p]: p's bans (c*n + z) and forcings (~z)
    cap = meter.max_nodes
    meter.nodes += 1       # the root, position 0, is entered
    p = 0
    while True:
        free = nbanned[p] != last
        cmax = min(used[p], k - 1)
        c = tried[p] + 1
        log = None
        while c <= cmax:
            if not bans[c * n + p]:
                log = []
                if not free:
                    break
                col[p] = c
                members[c].append(p)
                wiped = False
                todo = []
                u, e = p, c
                while True:
                    at = pairs[u]
                    mem = members[e]
                    if len(mem) > len(at):
                        mem = [w for w in at if col[w] == e]
                    off = e * n
                    for w in mem:
                        for z in at.get(w, ()):
                            if z > p:
                                i = off + z
                                if not bans[i]:
                                    bans[i] = 1
                                    log.append(i)
                                    nb = nbanned[z] + 1
                                    nbanned[z] = nb
                                    if nb == last:
                                        todo.append(z)
                                    elif nb == k:
                                        wiped = True
                                        break
                        if wiped:
                            break
                    if wiped or not todo:
                        break
                    u = todo.pop()
                    e = 0
                    while bans[e * n + u]:
                        e += 1
                    col[u] = e
                    members[e].append(u)
                    log.append(~u)
                if not wiped:
                    break
                _undo(log, n, bans, nbanned, col, members)
                members[c].pop()
                col[p] = -1
                log = None
            c += 1
        if log is None:
            # every color tried: back up to the previous position
            tried[p] = -1
            p -= 1
            if p < 0:
                return None
            _undo(logs[p], n, bans, nbanned, col, members)
            if nbanned[p] != last:
                members[col[p]].pop()
                col[p] = -1
            continue
        tried[p] = c
        logs[p] = log
        used[p + 1] = used[p] if c < used[p] else c + 1
        meter.nodes += 1
        if 0 < cap < meter.nodes or (
                not meter.nodes & _TIME_CHECK_MASK and meter.late()):
            return EXHAUSTED
        p += 1
        if p == n:
            return tried


def _undo(log, n, bans, nbanned, col, members):
    for i in log:
        if i < 0:
            members[col[~i]].pop()
            col[~i] = -1
        else:
            bans[i] = 0
            nbanned[i % n] -= 1


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
    try:
        seen = _covered(n, edges, meter)
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
