# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled search kernels, exact k-coloring and maximum independent set:
step-for-step twins of pure.py for n <= 64.  This file is the only native
source; Cython turns it into C at build time (setup.py).

kcolor_search keeps the forward-checking ban counts in a flat int[n*k] and
the per-position ban logs on one int stack; mis_search keeps the chosen and
dead sets in 64-bit masks and bounds by a popcount.  Both search on explicit
stacks and count a node when it is entered, as pure.py does."""

from libc.stdlib cimport malloc, free
from time import monotonic

FOUND = 0
NONE = 1
EXHAUSTED = 2

DEF TIME_CHECK_MASK = 4095

cdef extern from *:
    int __builtin_popcountll(unsigned long long x) nogil


cdef inline void _unban(int *bans, int *nbanned, int *log, int lo, int hi,
                        int c, int k) noexcept:
    cdef int j, i, u
    for j in range(lo, hi):
        u = log[j]
        i = u * k + c
        bans[i] -= 1
        if bans[i] == 0:
            nbanned[u] -= 1


def kcolor_search(int n, list edges, int k, list order,
                  long long max_nodes=0, double deadline=0.0):
    if n == 0:
        return FOUND, []
    if k > n:
        k = n  # at most n - 1 colors are ever in use, so no search change
    cdef int m = len(edges)
    cdef int i, v, a, b, c, u, pos, p, base, cmax, top
    cdef bint wiped, entered
    cdef long long nodes
    cdef int *pcount = <int *> malloc(n * sizeof(int))
    cdef int *ords = <int *> malloc(n * sizeof(int))
    cdef int *colors = <int *> malloc(n * sizeof(int))
    cdef int *pa = <int *> malloc((6 * m if m else 1) * sizeof(int))
    cdef int *pstart = <int *> malloc((n + 1) * sizeof(int))
    # bans[u*k + c]: edges banning c at uncolored u
    cdef int *bans = <int *> malloc((n * k if k > 0 else 1) * sizeof(int))
    cdef int *nbanned = <int *> malloc(n * sizeof(int))
    cdef int *tried = <int *> malloc(n * sizeof(int))
    cdef int *used = <int *> malloc((n + 1) * sizeof(int))
    # the ban log of position p is log[logstart[p]:logstart[p + 1]]; a path
    # bans at most once per pair of each of its vertices, 3m in all
    cdef int *log = <int *> malloc((3 * m if m else 1) * sizeof(int))
    cdef int *logstart = <int *> malloc((n + 1) * sizeof(int))
    try:
        for i in range(n):
            ords[i] = order[i]
            colors[i] = -1
            pcount[i] = 0
            nbanned[i] = 0
            tried[i] = -1
        for i in range(n * k):
            bans[i] = 0
        for i in range(m):
            a, b, c = edges[i]
            pcount[a] += 1
            pcount[b] += 1
            pcount[c] += 1
        pstart[0] = 0
        for v in range(n):
            pstart[v + 1] = pstart[v] + pcount[v]
            pcount[v] = 0
        for i in range(m):
            a, b, c = edges[i]
            pos = pstart[a] + pcount[a]; pa[2 * pos] = b; pa[2 * pos + 1] = c; pcount[a] += 1
            pos = pstart[b] + pcount[b]; pa[2 * pos] = a; pa[2 * pos + 1] = c; pcount[b] += 1
            pos = pstart[c] + pcount[c]; pa[2 * pos] = a; pa[2 * pos + 1] = b; pcount[c] += 1
        used[0] = 0
        logstart[0] = 0
        nodes = 1
        p = 0
        while True:
            v = ords[p]
            base = v * k
            cmax = used[p] if used[p] < k - 1 else k - 1
            c = tried[p] + 1
            top = logstart[p]
            entered = False
            while c <= cmax:
                if bans[base + c] == 0:
                    top = logstart[p]
                    wiped = False
                    for pos in range(pstart[v], pstart[v + 1]):
                        a = pa[2 * pos]
                        b = pa[2 * pos + 1]
                        if colors[a] == c:
                            if colors[b] >= 0:
                                continue
                            u = b
                        elif colors[a] < 0 and colors[b] == c:
                            u = a
                        else:
                            continue
                        i = u * k + c
                        bans[i] += 1
                        log[top] = u
                        top += 1
                        if bans[i] == 1:
                            nbanned[u] += 1
                            if nbanned[u] == k:
                                wiped = True
                                break
                    if not wiped:
                        entered = True
                        break
                    _unban(bans, nbanned, log, logstart[p], top, c, k)
                c += 1
            if not entered:
                # every color tried: back up to the previous position
                tried[p] = -1
                p -= 1
                if p < 0:
                    return NONE, None
                colors[ords[p]] = -1
                _unban(bans, nbanned, log, logstart[p], logstart[p + 1], tried[p], k)
                continue
            colors[v] = c
            tried[p] = c
            logstart[p + 1] = top
            used[p + 1] = used[p] if c < used[p] else c + 1
            nodes += 1
            if max_nodes and nodes > max_nodes:
                return EXHAUSTED, None
            if deadline and (nodes & TIME_CHECK_MASK) == 0 and monotonic() > deadline:
                return EXHAUSTED, None
            p += 1
            if p == n:
                return FOUND, [colors[i] for i in range(n)]
    finally:
        free(pcount); free(ords); free(colors); free(pa); free(pstart)
        free(bans); free(nbanned); free(tried); free(used); free(log)
        free(logstart)


def mis_search(int n, list edges, long long max_nodes=0, double deadline=0.0):
    if n == 0:
        return FOUND, []
    cdef int i, v, total, pos, idx, count, sp
    cdef int best_size = -1
    cdef long long nodes = 0
    cdef bint exhausted = False
    cdef unsigned long long mask, chosen, dead, with_v, new_dead, rest, rem
    cdef unsigned long long best_mask = 0
    cdef unsigned long long full = \
        ~(<unsigned long long> 0) if n == 64 else ((<unsigned long long> 1) << n) - 1
    cdef bint legal
    cdef unsigned long long *emasks
    cdef int *ecount = <int *> malloc(n * sizeof(int))
    cdef int *estart = <int *> malloc((n + 1) * sizeof(int))
    # the stack holds at most one pending exclude child per level, plus one
    cdef int *s_idx = <int *> malloc((n + 2) * sizeof(int))
    cdef int *s_count = <int *> malloc((n + 2) * sizeof(int))
    cdef unsigned long long *s_chosen = \
        <unsigned long long *> malloc((n + 2) * sizeof(unsigned long long))
    cdef unsigned long long *s_dead = \
        <unsigned long long *> malloc((n + 2) * sizeof(unsigned long long))
    total = 0
    for e in edges:
        total += len(e)
    emasks = <unsigned long long *> malloc(
        (total if total else 1) * sizeof(unsigned long long))
    try:
        for i in range(n):
            ecount[i] = 0
        for e in edges:
            for v in e:
                ecount[v] += 1
        estart[0] = 0
        for i in range(n):
            estart[i + 1] = estart[i] + ecount[i]
            ecount[i] = 0
        for e in edges:
            mask = 0
            for v in e:
                mask |= (<unsigned long long> 1) << v
            for v in e:
                pos = estart[v] + ecount[v]
                emasks[pos] = mask
                ecount[v] += 1
        s_idx[0] = 0; s_chosen[0] = 0; s_count[0] = 0; s_dead[0] = 0
        sp = 1
        while sp:
            sp -= 1
            idx = s_idx[sp]; chosen = s_chosen[sp]; count = s_count[sp]; dead = s_dead[sp]
            nodes += 1
            if max_nodes and nodes > max_nodes:
                exhausted = True
                break
            if deadline and (nodes & TIME_CHECK_MASK) == 0 and monotonic() > deadline:
                exhausted = True
                break
            rem = (full >> idx) << idx if idx < 64 else 0
            if count + __builtin_popcountll(rem & ~dead) <= best_size:
                continue
            if idx == n:
                best_size = count
                best_mask = chosen
                continue
            s_idx[sp] = idx + 1; s_chosen[sp] = chosen; s_count[sp] = count; s_dead[sp] = dead
            sp += 1
            with_v = chosen | ((<unsigned long long> 1) << idx)
            new_dead = dead
            legal = True
            for pos in range(estart[idx], estart[idx + 1]):
                rest = emasks[pos] & ~with_v
                if rest == 0:
                    legal = False
                    break
                if rest & (rest - 1) == 0:
                    new_dead |= rest
            if legal:
                s_idx[sp] = idx + 1; s_chosen[sp] = with_v; s_count[sp] = count + 1
                s_dead[sp] = new_dead
                sp += 1
        best = [i for i in range(n) if (best_mask >> i) & 1]
        return (EXHAUSTED, best) if exhausted else (FOUND, best)
    finally:
        free(ecount); free(estart); free(emasks)
        free(s_idx); free(s_count); free(s_chosen); free(s_dead)
