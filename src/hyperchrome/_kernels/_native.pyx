# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled search kernels, exact k-coloring and maximum independent set:
step-for-step twins of pure.py for n <= 64.  This file is the only native
source; Cython turns it into C at build time (setup.py)."""

from libc.stdlib cimport malloc, free
from time import monotonic

FOUND = 0
NONE = 1
EXHAUSTED = 2

DEF TIME_CHECK_MASK = 4095


cdef struct KState:
    int n
    int k
    int *order
    int *colors
    int *pa
    int *pstart
    long long nodes
    long long max_nodes
    double deadline
    bint exhausted


cdef bint _kcolor_dfs(KState *st, int p):
    cdef int v, c, cmax, pos, a, b
    cdef bint ok
    st.nodes += 1
    if st.max_nodes and st.nodes > st.max_nodes:
        st.exhausted = True
        return False
    if st.deadline and (st.nodes & TIME_CHECK_MASK) == 0 and monotonic() > st.deadline:
        st.exhausted = True
        return False
    if p == st.n:
        return True
    v = st.order[p]
    cmax = p if p < st.k - 1 else st.k - 1
    for c in range(cmax + 1):
        ok = True
        for pos in range(st.pstart[v], st.pstart[v + 1]):
            a = st.pa[2 * pos]
            b = st.pa[2 * pos + 1]
            if st.colors[a] == c and st.colors[b] == c:
                ok = False
                break
        if ok:
            st.colors[v] = c
            if _kcolor_dfs(st, p + 1):
                return True
            st.colors[v] = -1
            if st.exhausted:
                return False
    return False


def kcolor_search(int n, list edges, int k, list order,
                  long long max_nodes=0, double deadline=0.0):
    if n == 0:
        return FOUND, []
    cdef int m = len(edges)
    cdef KState st
    cdef int i, v, a, b, c, pos
    cdef int *pcount = <int *> malloc(n * sizeof(int))
    st.n = n
    st.k = k
    st.nodes = 0
    st.max_nodes = max_nodes
    st.deadline = deadline
    st.exhausted = False
    st.order = <int *> malloc(n * sizeof(int))
    st.colors = <int *> malloc(n * sizeof(int))
    st.pa = <int *> malloc(3 * m * 2 * sizeof(int)) if m else <int *> malloc(sizeof(int))
    st.pstart = <int *> malloc((n + 1) * sizeof(int))
    try:
        for i in range(n):
            st.order[i] = order[i]
            st.colors[i] = -1
            pcount[i] = 0
        for i in range(m):
            a, b, c = edges[i]
            pcount[a] += 1
            pcount[b] += 1
            pcount[c] += 1
        st.pstart[0] = 0
        for v in range(n):
            st.pstart[v + 1] = st.pstart[v] + pcount[v]
            pcount[v] = 0
        for i in range(m):
            a, b, c = edges[i]
            pos = st.pstart[a] + pcount[a]; st.pa[2 * pos] = b; st.pa[2 * pos + 1] = c; pcount[a] += 1
            pos = st.pstart[b] + pcount[b]; st.pa[2 * pos] = a; st.pa[2 * pos + 1] = c; pcount[b] += 1
            pos = st.pstart[c] + pcount[c]; st.pa[2 * pos] = a; st.pa[2 * pos + 1] = b; pcount[c] += 1
        if _kcolor_dfs(&st, 0):
            return FOUND, [st.colors[i] for i in range(n)]
        if st.exhausted:
            return EXHAUSTED, None
        return NONE, None
    finally:
        free(st.order); free(st.colors); free(st.pa); free(st.pstart); free(pcount)


cdef struct MState:
    int n
    unsigned long long *emasks
    int *estart
    long long nodes
    long long max_nodes
    double deadline
    bint exhausted
    int best_size
    unsigned long long best_mask


cdef void _mis_dfs(MState *st, int idx, unsigned long long chosen, int count):
    cdef unsigned long long bit
    cdef int pos
    cdef bint legal
    st.nodes += 1
    if st.max_nodes and st.nodes > st.max_nodes:
        st.exhausted = True
        return
    if st.deadline and (st.nodes & TIME_CHECK_MASK) == 0 and monotonic() > st.deadline:
        st.exhausted = True
        return
    if count + (st.n - idx) <= st.best_size:
        return
    if idx == st.n:
        st.best_size = count
        st.best_mask = chosen
        return
    bit = (<unsigned long long> 1) << idx
    legal = True
    for pos in range(st.estart[idx], st.estart[idx + 1]):
        if st.emasks[pos] & ~(chosen | bit) == 0:
            legal = False
            break
    if legal:
        _mis_dfs(st, idx + 1, chosen | bit, count + 1)
        if st.exhausted:
            return
    _mis_dfs(st, idx + 1, chosen, count)


def mis_search(int n, list edges, long long max_nodes=0, double deadline=0.0):
    if n == 0:
        return FOUND, []
    cdef int m = len(edges)
    cdef MState st
    cdef int i, v, total, pos
    cdef unsigned long long mask
    cdef int *ecount = <int *> malloc(n * sizeof(int))
    st.n = n
    st.nodes = 0
    st.max_nodes = max_nodes
    st.deadline = deadline
    st.exhausted = False
    st.best_size = -1
    st.best_mask = 0
    st.estart = <int *> malloc((n + 1) * sizeof(int))
    total = 0
    for e in edges:
        total += len(e)
    st.emasks = <unsigned long long *> malloc(total * sizeof(unsigned long long)) if total \
        else <unsigned long long *> malloc(sizeof(unsigned long long))
    try:
        for i in range(n):
            ecount[i] = 0
        for e in edges:
            for v in e:
                ecount[v] += 1
        st.estart[0] = 0
        for i in range(n):
            st.estart[i + 1] = st.estart[i] + ecount[i]
            ecount[i] = 0
        for e in edges:
            mask = 0
            for v in e:
                mask |= (<unsigned long long> 1) << v
            for v in e:
                pos = st.estart[v] + ecount[v]
                st.emasks[pos] = mask
                ecount[v] += 1
        _mis_dfs(&st, 0, 0, 0)
        best = [i for i in range(n) if (st.best_mask >> i) & 1]
        return (EXHAUSTED, best) if st.exhausted else (FOUND, best)
    finally:
        free(st.estart); free(st.emasks); free(ecount)
