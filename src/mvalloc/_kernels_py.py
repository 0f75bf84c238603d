"""Pure-Python search kernels.

Both kernels walk the assignment tree unit by unit, trying each unit's
variants in a given order and nodes in platform order, on demands and
capacities that the caller has already scaled to integers.  Each
reports the lexicographically first optimum over (declared variant,
node) pairs in unit order, so results are reproducible, and
`solve_search` must match the compiled kernel of _kernels.c bit for
bit, `visited` included.

`solve_search` is branch and bound with forward checking.  `by_cost`
lists, in each unit's slice off[u]:off[u] + nv[u], that unit's flat
variant indices cheapest first, ties in declared order, and the walk
tries each unit's variants in that order.  On entering a node the search
takes `rest`, the sum over the units after the current one of the first
variant in `by_cost` order that still fits some node's remaining
capacity, and returns at once if one of them fits nowhere.  When one
node can hold the largest demand of every remaining unit's cheapest
variant (`need_*`), `rest` is simply `suffix_min` and the scan is
skipped.  The scan reads each unit's variants as (cost, mem, cpu, gpu)
records in `by_cost` order.  The first scan builds them, so a walk that
never scans builds none; the variant loop reads the columns.

The walk minimizes one lexicographic objective: the cost, then the
path's (declared variant, node) pairs in unit order.  A child whose cost
so far plus `rest` exceeds the incumbent's cost is cut; one whose sum
ties it is cut unless the path's pairs through the child come before
the incumbent's.  Before a variant that ties, its node is taken as -1,
below every node.  Both tests run before each variant and again after
each child returns, and the pairs are compared only on a tie.  After a
child even a tie needs no comparison: the entry test held, so the path
still comes before the incumbent unless the child replaced it, and then
the incumbent holds the very pair made for that child.  A leaf
that is reached is therefore cheaper than the incumbent, or as cheap and
before it, and always replaces it.  As the slice is sorted by cost, the
first variant whose sum exceeds the incumbent's cost ends the unit's
loop.  Every cut drops only subtrees whose leaves all cost more than the
incumbent or come after it at its cost, so the walk returns the
lexicographically first optimum, whatever order it meets the optima in.

The walk skips a variant that is strictly dominated within its unit:
some variant ahead of it in `by_cost` costs less and needs no more mem,
cpu or GPU threads.  Swapping it for the one that dominates it on the
same node stays feasible and is strictly cheaper, so no optimum takes
it, and the skip changes only `visited`.  A variant is tested on first
need, when it passes the cost cut and is not first in its unit's slice,
and its answer is kept for the rest of the walk.  Choices are (declared
variant index, node) pairs, and every unit has at least one variant,
which `solver._scale` checks.

`brute_search` enumerates every capacity-feasible assignment in declared
order and shares nothing with the bound logic, which is what makes it
useful as an oracle for the solver.  It walks the tree in one loop with
a per-unit record of its position instead of recursing, so it answers
at any number of units; every unit has at least one variant, which
`solver._scale` checks.  It is the only brute-force oracle:
it has no compiled twin, and `solver.brute_force` runs it whichever
backend `solve` used.

`solve_search` reads the clock at every node whose count `visited` is a
multiple of _CHECK_INTERVAL, a power of two, first at node 8192, and
stops there once the deadline has passed, as the compiled kernel does.

Status codes: 0 optimal, 1 infeasible, 2 deadline hit.
"""

from __future__ import annotations

import time
from operator import sub

OPTIMAL = 0
INFEASIBLE = 1
TIMED_OUT = 2

# a power of two: the clock is read when `visited` is a multiple of it
_CHECK_INTERVAL = 8192


class _Stop(Exception):
    pass


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
    by_cost,
    suffix_min,
    need_mem,
    need_cpu,
    need_gpu,
    deadline_ns=None,
):
    n = len(nv)
    k = len(cap_mem)
    rem_mem = list(cap_mem)
    rem_cpu = list(cap_cpu)
    rem_gpu = list(cap_gpu)
    choice: list[tuple[int, int]] = [(-1, -1)] * n
    best_choice = None
    # the incumbent's cost; before the first leaf, one past the sum of
    # every cost, which no cost so far plus `rest` reaches
    limit = sum(vcost) + 1
    timed_out = False
    visited = 0
    monotonic_ns = time.monotonic_ns
    nodes = range(k)
    # per unit, its variants' (cost, mem, cpu, gpu) records in by_cost
    # order, for the forward scan, where the first that fits a node gives
    # the unit's bound; built by the first scan, as the shortcut often
    # makes none
    ranked = []
    # flags[i] is 0 until variant i is first tested, then 1 if it is kept
    # and 2 if it is strictly dominated and skipped (a bytearray, which the
    # collector ignores)
    flags = bytearray(len(vcost))

    def dfs(u: int, cur: int) -> None:
        nonlocal best_choice, limit, timed_out, visited
        visited += 1
        if not visited & (_CHECK_INTERVAL - 1) and deadline_ns is not None:
            if monotonic_ns() >= deadline_ns:
                timed_out = True
                raise _Stop
        if u == n:
            # every leaf reached is cheaper, or as cheap and before
            limit = cur
            best_choice = choice.copy()
            return
        rest = suffix_min[u + 1]
        m = need_mem[u + 1]
        p = need_cpu[u + 1]
        g = need_gpu[u + 1]
        for h in nodes:
            if m <= rem_mem[h] and p <= rem_cpu[h] and g <= rem_gpu[h]:
                break
        else:
            if not ranked:
                ranked.extend(
                    [(vcost[i], vmem[i], vcpu[i], vgpu[i]) for i in by_cost[a : a + count]]
                    for a, count in zip(off, nv)
                )
            rest = 0
            for w in range(u + 1, n):
                for cost, m, p, g in ranked[w]:
                    for h in nodes:
                        if m <= rem_mem[h] and p <= rem_cpu[h] and g <= rem_gpu[h]:
                            break
                    else:
                        continue
                    rest += cost
                    break
                else:
                    return
        base = off[u]
        variants = by_cost[base : base + nv[u]]
        first = variants[0]  # the unit's cheapest, never dominated
        for i in variants:
            c = cur + vcost[i]
            bound = c + rest
            if bound >= limit:
                if bound > limit:  # cheapest first: every later one fails too
                    break
                # a tie: enter only if some node puts the path before the incumbent
                choice[u] = (i - base, -1)
                if choice[: u + 1] >= best_choice[: u + 1]:
                    continue
            m = vmem[i]
            p = vcpu[i]
            g = vgpu[i]
            if i != first:
                skip = flags[i]
                if not skip:  # first need: is it strictly dominated?
                    skip = 1
                    for a in variants:
                        if vcost[a] >= c - cur:
                            break
                        if vmem[a] <= m and vcpu[a] <= p and vgpu[a] <= g:
                            skip = 2
                            break
                    flags[i] = skip
                if skip == 2:
                    continue
            for h in nodes:
                if m <= rem_mem[h] and p <= rem_cpu[h] and g <= rem_gpu[h]:
                    rem_mem[h] -= m
                    rem_cpu[h] -= p
                    rem_gpu[h] -= g
                    choice[u] = (i - base, h)
                    dfs(u + 1, c)
                    rem_mem[h] += m
                    rem_cpu[h] += p
                    rem_gpu[h] += g
                    # on a tie, a later node comes before the incumbent
                    # unless this child replaced it
                    if bound >= limit and (bound > limit or best_choice[u] is choice[u]):
                        break

    try:
        dfs(0, 0)
    except _Stop:
        pass
    if best_choice is None:  # a model with no units has the incumbent []
        return (TIMED_OUT if timed_out else INFEASIBLE), None, [], visited
    return (TIMED_OUT if timed_out else OPTIMAL), limit, best_choice, visited


def brute_search(nv, off, vmem, vcpu, vgpu, vcost, cap_mem, cap_cpu, cap_gpu):
    n = len(nv)
    if n == 0:
        return OPTIMAL, 0, [], 1
    nodes = range(len(cap_mem))
    rem_mem = list(cap_mem)
    rem_cpu = list(cap_cpu)
    rem_gpu = list(cap_gpu)
    # unit u tries flat variant at[u] on the nodes that left[u] has not yet
    # yielded, and holds node held[u] (-1 for none); cost[u] is the cost
    # of the units before u
    at = list(off)
    left = [iter(nodes)] + [None] * (n - 1)
    held = [-1] * n
    cost = [0] * n
    best_cost = None
    best_choice = None
    visited = 1
    u = 0
    while u >= 0:
        i = at[u]
        m = vmem[i]
        p = vcpu[i]
        g = vgpu[i]
        h = held[u]
        if h >= 0:  # every assignment below this placement is done
            rem_mem[h] += m
            rem_cpu[h] += p
            rem_gpu[h] += g
        for h in left[u]:
            if m <= rem_mem[h] and p <= rem_cpu[h] and g <= rem_gpu[h]:
                break
        else:  # no node left for this variant: the next one, or back up
            held[u] = -1
            if i + 1 < off[u] + nv[u]:
                at[u] = i + 1
                left[u] = iter(nodes)
            else:
                u -= 1
            continue
        rem_mem[h] -= m
        rem_cpu[h] -= p
        rem_gpu[h] -= g
        held[u] = h
        visited += 1
        c = cost[u] + vcost[i]
        if u + 1 < n:
            u += 1
            cost[u] = c
            at[u] = off[u]
            left[u] = iter(nodes)
        elif best_cost is None or c < best_cost:
            # a leaf; the next pass takes this placement back
            best_cost = c
            best_choice = list(zip(map(sub, at, off), held))
    status = INFEASIBLE if best_cost is None else OPTIMAL
    return status, best_cost, best_choice or [], visited
