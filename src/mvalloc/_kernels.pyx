# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled twin of mvalloc._kernels_py.

Same tree walk, same ordering, same strict-improvement rule, and the
same cuts: the forward check with its still-fitting cost bound `rest`,
skipped when one node covers the `need_*` suffix maxima, and the cost
cut before each variant and after each child.  The facade feeds it the
same scaled integers, so both backends return identical results,
visited counts included.  Values must fit in int64, which the caller has
checked.
"""

from libc.stdint cimport int64_t
from libc.stdlib cimport free, malloc

import time

OPTIMAL = 0
INFEASIBLE = 1
TIMED_OUT = 2

cdef int CHECK_INTERVAL = 8192


cdef struct _State:
    int n
    int k
    int *nv
    int *off
    int64_t *vmem
    int64_t *vcpu
    int64_t *vgpu
    int64_t *vcost
    int64_t *rem_mem
    int64_t *rem_cpu
    int64_t *rem_gpu
    int64_t *suffix_min
    int64_t *need_mem
    int64_t *need_cpu
    int64_t *need_gpu
    int *by_cost
    int *choice_v
    int *choice_h
    int *best_v
    int *best_h
    int64_t best_cost
    bint has_best
    int64_t deadline_ns
    bint use_deadline
    bint timed_out
    int check_left
    long long visited


cdef void *_alloc(size_t count, size_t size) except NULL:
    cdef void *ptr = malloc(count * size if count > 0 else size)
    if ptr == NULL:
        raise MemoryError()
    return ptr


cdef int _fill_state(
    _State *s,
    nv,
    off,
    vmem,
    vcpu,
    vgpu,
    vcost,
    cap_mem,
    cap_cpu,
    cap_gpu,
) except -1:
    cdef int i, j, u
    cdef int n = len(nv)
    cdef int k = len(cap_mem)
    cdef int total = len(vmem)
    s.n = n
    s.k = k
    s.nv = <int *>_alloc(n, sizeof(int))
    s.off = <int *>_alloc(n, sizeof(int))
    s.vmem = <int64_t *>_alloc(total, sizeof(int64_t))
    s.vcpu = <int64_t *>_alloc(total, sizeof(int64_t))
    s.vgpu = <int64_t *>_alloc(total, sizeof(int64_t))
    s.vcost = <int64_t *>_alloc(total, sizeof(int64_t))
    s.rem_mem = <int64_t *>_alloc(k, sizeof(int64_t))
    s.rem_cpu = <int64_t *>_alloc(k, sizeof(int64_t))
    s.rem_gpu = <int64_t *>_alloc(k, sizeof(int64_t))
    s.suffix_min = <int64_t *>_alloc(n + 1, sizeof(int64_t))
    s.need_mem = <int64_t *>_alloc(n + 1, sizeof(int64_t))
    s.need_cpu = <int64_t *>_alloc(n + 1, sizeof(int64_t))
    s.need_gpu = <int64_t *>_alloc(n + 1, sizeof(int64_t))
    s.by_cost = <int *>_alloc(total, sizeof(int))
    s.choice_v = <int *>_alloc(n, sizeof(int))
    s.choice_h = <int *>_alloc(n, sizeof(int))
    s.best_v = <int *>_alloc(n, sizeof(int))
    s.best_h = <int *>_alloc(n, sizeof(int))
    for i in range(n):
        s.nv[i] = nv[i]
        s.off[i] = off[i]
    for i in range(total):
        s.vmem[i] = vmem[i]
        s.vcpu[i] = vcpu[i]
        s.vgpu[i] = vgpu[i]
        s.vcost[i] = vcost[i]
    for i in range(k):
        s.rem_mem[i] = cap_mem[i]
        s.rem_cpu[i] = cap_cpu[i]
        s.rem_gpu[i] = cap_gpu[i]
    # each unit's variant indices, cheapest first (stable insertion sort),
    # for the forward scan; the first that fits a node gives the bound
    for u in range(n):
        for i in range(s.off[u], s.off[u] + s.nv[u]):
            j = i
            while j > s.off[u] and s.vcost[s.by_cost[j - 1]] > s.vcost[i]:
                s.by_cost[j] = s.by_cost[j - 1]
                j -= 1
            s.by_cost[j] = i
    s.best_cost = 0
    s.has_best = False
    s.deadline_ns = 0
    s.use_deadline = False
    s.timed_out = False
    s.check_left = CHECK_INTERVAL
    s.visited = 0
    return 0


cdef void _free_state(_State *s):
    free(s.nv)
    free(s.off)
    free(s.vmem)
    free(s.vcpu)
    free(s.vgpu)
    free(s.vcost)
    free(s.rem_mem)
    free(s.rem_cpu)
    free(s.rem_gpu)
    free(s.suffix_min)
    free(s.need_mem)
    free(s.need_cpu)
    free(s.need_gpu)
    free(s.by_cost)
    free(s.choice_v)
    free(s.choice_h)
    free(s.best_v)
    free(s.best_h)


cdef int _dfs_solve(_State *s, int u, int64_t cur) except -1:
    cdef int v, h, i, j, w
    cdef int64_t c, m, p, g, rest
    s.visited += 1
    if s.use_deadline:
        s.check_left -= 1
        if s.check_left <= 0:
            s.check_left = CHECK_INTERVAL
            if time.monotonic_ns() >= s.deadline_ns:
                s.timed_out = True
    if s.timed_out:
        return 0
    if u == s.n:
        if not s.has_best or cur < s.best_cost:
            s.best_cost = cur
            s.has_best = True
            for j in range(s.n):
                s.best_v[j] = s.choice_v[j]
                s.best_h[j] = s.choice_h[j]
        return 0
    rest = s.suffix_min[u + 1]
    m = s.need_mem[u + 1]
    p = s.need_cpu[u + 1]
    g = s.need_gpu[u + 1]
    for h in range(s.k):
        if m <= s.rem_mem[h] and p <= s.rem_cpu[h] and g <= s.rem_gpu[h]:
            break
    else:
        rest = 0
        for w in range(u + 1, s.n):
            for j in range(s.off[w], s.off[w] + s.nv[w]):
                i = s.by_cost[j]
                m = s.vmem[i]
                p = s.vcpu[i]
                g = s.vgpu[i]
                for h in range(s.k):
                    if m <= s.rem_mem[h] and p <= s.rem_cpu[h] and g <= s.rem_gpu[h]:
                        break
                else:
                    continue
                rest += s.vcost[i]
                break
            else:
                return 0
    cdef int base = s.off[u]
    for v in range(s.nv[u]):
        i = base + v
        c = cur + s.vcost[i]
        if s.has_best and c + rest >= s.best_cost:
            continue
        m = s.vmem[i]
        p = s.vcpu[i]
        g = s.vgpu[i]
        for h in range(s.k):
            if m <= s.rem_mem[h] and p <= s.rem_cpu[h] and g <= s.rem_gpu[h]:
                s.rem_mem[h] -= m
                s.rem_cpu[h] -= p
                s.rem_gpu[h] -= g
                s.choice_v[u] = v
                s.choice_h[u] = h
                _dfs_solve(s, u + 1, c)
                s.rem_mem[h] += m
                s.rem_cpu[h] += p
                s.rem_gpu[h] += g
                if s.timed_out:
                    return 0
                if s.has_best and c + rest >= s.best_cost:
                    break
    return 0


cdef int _dfs_brute(_State *s, int u, int64_t cur) except -1:
    cdef int v, h, i, j
    cdef int64_t m, p, g, c
    s.visited += 1
    if u == s.n:
        if not s.has_best or cur < s.best_cost:
            s.best_cost = cur
            s.has_best = True
            for j in range(s.n):
                s.best_v[j] = s.choice_v[j]
                s.best_h[j] = s.choice_h[j]
        return 0
    cdef int base = s.off[u]
    for v in range(s.nv[u]):
        i = base + v
        m = s.vmem[i]
        p = s.vcpu[i]
        g = s.vgpu[i]
        c = s.vcost[i]
        for h in range(s.k):
            if m <= s.rem_mem[h] and p <= s.rem_cpu[h] and g <= s.rem_gpu[h]:
                s.rem_mem[h] -= m
                s.rem_cpu[h] -= p
                s.rem_gpu[h] -= g
                s.choice_v[u] = v
                s.choice_h[u] = h
                _dfs_brute(s, u + 1, cur + c)
                s.rem_mem[h] += m
                s.rem_cpu[h] += p
                s.rem_gpu[h] += g
    return 0


def solve_search(
    nv,
    off,
    vmem,
    vcpu,
    vgpu,
    vcost,
    cap_mem,
    cap_cpu,
    cap_gpu,
    suffix_min,
    need_mem,
    need_cpu,
    need_gpu,
    deadline_ns=None,
):
    cdef _State s
    cdef int i
    _fill_state(&s, nv, off, vmem, vcpu, vgpu, vcost, cap_mem, cap_cpu, cap_gpu)
    try:
        for i in range(s.n + 1):
            s.suffix_min[i] = suffix_min[i]
            s.need_mem[i] = need_mem[i]
            s.need_cpu[i] = need_cpu[i]
            s.need_gpu[i] = need_gpu[i]
        if deadline_ns is not None:
            s.use_deadline = True
            s.deadline_ns = deadline_ns
        _dfs_solve(&s, 0, 0)
        choices = []
        if s.has_best:
            choices = [(s.best_v[i], s.best_h[i]) for i in range(s.n)]
        if s.timed_out:
            status = TIMED_OUT
        elif not s.has_best:
            status = INFEASIBLE
        else:
            status = OPTIMAL
        best = s.best_cost if s.has_best else None
        return status, best, choices, s.visited
    finally:
        _free_state(&s)


def brute_search(nv, off, vmem, vcpu, vgpu, vcost, cap_mem, cap_cpu, cap_gpu):
    cdef _State s
    cdef int i
    _fill_state(&s, nv, off, vmem, vcpu, vgpu, vcost, cap_mem, cap_cpu, cap_gpu)
    try:
        for i in range(s.n + 1):
            s.suffix_min[i] = 0
        _dfs_brute(&s, 0, 0)
        choices = []
        if s.has_best:
            choices = [(s.best_v[i], s.best_h[i]) for i in range(s.n)]
        status = INFEASIBLE if not s.has_best else OPTIMAL
        best = s.best_cost if s.has_best else None
        return status, best, choices, s.visited
    finally:
        _free_state(&s)
