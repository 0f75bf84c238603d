/* Compiled search kernel: the branch and bound of mvalloc/_kernels_py.py
 * in C99.
 *
 * Same tree walk, same ordering, same cuts: each unit's slice of the
 * columns in walk order, cheapest first, ties in declared order, with
 * `decl` giving each variant's declared index; the forward check with its
 * still-fitting cost bound `rest`, skipped when one node covers the
 * `need_*` suffix maxima; the lexicographic tie rule before each variant
 * and after each child; the skip of every variant that is strictly
 * dominated within its unit; and the clock read at every node whose count
 * `visited` is a multiple of CHECK_INTERVAL, a power of two.  Fed the
 * same scaled integers, both kernels return identical results, visited
 * counts included.  One thing differs from the Python kernel, not in
 * what the walk visits: after a child this one learns whether the child
 * replaced the incumbent from the count of leaves reached, where the
 * Python kernel compares the incumbent's pair for the unit with the
 * path's.
 * Every value fits in int64 and the costs sum below INT64_MAX, which
 * mvalloc.engine checks, so no cost plus `rest` reaches the INT64_MAX
 * limit that the walk starts with.  `decl` is only stored and compared,
 * never used as an index, and every loop over a unit stays within its
 * slice, so an order that is not the walk order changes the answer but
 * reads nothing out of bounds.  The brute-force oracle has no compiled
 * twin; it lives in _kernels_py.py only.
 *
 * mvalloc.engine loads this file's shared library through ctypes and
 * owns every buffer: the capacity arrays, which the walk uses as the
 * remaining capacities, the zeroed per-variant dominance flags, the
 * (variant, node) pairs of the current path, the incumbent's (variant,
 * node) pairs, and out = {status, best cost or -1 without an incumbent,
 * visited}.  A deadline of INT64_MAX never passes.
 *
 * kernel_version() returns KERNEL_VERSION, and mvalloc.engine loads the
 * library only when that equals its _KERNEL_VERSION, so a library built
 * from an older copy of this file is refused.  Bump both whenever the
 * arguments or the results of solve_search change.
 */
#define _POSIX_C_SOURCE 199309L

#include <stdint.h>
#include <time.h>

enum { OPTIMAL = 0, INFEASIBLE = 1, TIMED_OUT = 2 };
enum { CHECK_INTERVAL = 8192 }; /* a power of two: see solve_dfs */
enum { KERNEL_VERSION = 4 };

typedef struct {
    int64_t n, k;
    const int64_t *nv, *off, *vmem, *vcpu, *vgpu, *vcost;
    int64_t *rem_mem, *rem_cpu, *rem_gpu;
    const int64_t *suffix_min, *need_mem, *need_cpu, *need_gpu;
    const int64_t *decl; /* per variant: its declared index within its unit */
    int64_t *dominated; /* per variant: 0 untested, 1 kept, 2 skipped */
    int64_t *choice, *best;
    int64_t limit;     /* the incumbent's cost, INT64_MAX before the first leaf */
    int64_t deadline_ns, visited;
    int64_t leaves; /* leaves reached, each one a new incumbent */
    int timed_out;
} State;

static int64_t monotonic_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* The first node from `h` on with room for the demand, or k if none. */
static int64_t first_fit(const State *s, int64_t h, int64_t m, int64_t p, int64_t g)
{
    while (h < s->k && !(m <= s->rem_mem[h] && p <= s->rem_cpu[h] && g <= s->rem_gpu[h]))
        h++;
    return h;
}

/* Whether the path's (variant, node) pairs through unit u come before the
 * incumbent's; the node of unit u may be -1, before every node. */
static int before_best(const State *s, int64_t u)
{
    for (int64_t j = 0; j < 2 * u + 2; j++)
        if (s->choice[j] != s->best[j])
            return s->choice[j] < s->best[j];
    return 0;
}

static void solve_dfs(State *s, int64_t u, int64_t cur)
{
    s->visited++;
    if ((s->visited & (CHECK_INTERVAL - 1)) == 0 && monotonic_ns() >= s->deadline_ns) {
        s->timed_out = 1;
        return;
    }
    if (u == s->n) { /* every leaf reached is cheaper, or as cheap and before */
        s->limit = cur;
        for (int64_t j = 0; j < 2 * s->n; j++)
            s->best[j] = s->choice[j];
        s->leaves++;
        return;
    }
    int64_t rest = s->suffix_min[u + 1];
    if (first_fit(s, 0, s->need_mem[u + 1], s->need_cpu[u + 1], s->need_gpu[u + 1]) == s->k) {
        rest = 0;
        for (int64_t w = u + 1; w < s->n; w++) {
            int64_t i = s->off[w], end = s->off[w] + s->nv[w];
            while (i < end && first_fit(s, 0, s->vmem[i], s->vcpu[i], s->vgpu[i]) == s->k)
                i++;
            if (i == end)
                return;
            rest += s->vcost[i];
        }
    }
    for (int64_t i = s->off[u]; i < s->off[u] + s->nv[u]; i++) {
        int64_t c = cur + s->vcost[i], m = s->vmem[i], p = s->vcpu[i], g = s->vgpu[i];
        if (c + rest >= s->limit) {
            if (c + rest > s->limit) /* cheapest first: every later one fails too */
                break;
            /* a tie: enter only if some node puts the path before the incumbent */
            s->choice[2 * u] = s->decl[i];
            s->choice[2 * u + 1] = -1;
            if (!before_best(s, u))
                continue;
        }
        if (i != s->off[u] && s->dominated[i] == 0) {
            /* tested on first need, as in the Python kernel; b stops at i */
            s->dominated[i] = 1;
            for (int64_t b = s->off[u]; s->vcost[b] < s->vcost[i]; b++) {
                if (s->vmem[b] <= m && s->vcpu[b] <= p && s->vgpu[b] <= g) {
                    s->dominated[i] = 2;
                    break;
                }
            }
        }
        if (s->dominated[i] == 2)
            continue;
        for (int64_t h = first_fit(s, 0, m, p, g); h < s->k; h = first_fit(s, h + 1, m, p, g)) {
            s->rem_mem[h] -= m;
            s->rem_cpu[h] -= p;
            s->rem_gpu[h] -= g;
            s->choice[2 * u] = s->decl[i];
            s->choice[2 * u + 1] = h;
            int64_t leaves = s->leaves;
            solve_dfs(s, u + 1, c);
            s->rem_mem[h] += m;
            s->rem_cpu[h] += p;
            s->rem_gpu[h] += g;
            if (s->timed_out)
                return;
            /* on a tie, a later node comes before the incumbent unless
             * this child replaced it */
            if (c + rest >= s->limit && (c + rest > s->limit || s->leaves != leaves))
                break;
        }
    }
}

int64_t kernel_version(void)
{
    return KERNEL_VERSION;
}

void solve_search(int64_t n, int64_t k, int64_t deadline_ns,
                  const int64_t *nv, const int64_t *off, const int64_t *vmem,
                  const int64_t *vcpu, const int64_t *vgpu, const int64_t *vcost,
                  int64_t *cap_mem, int64_t *cap_cpu, int64_t *cap_gpu,
                  const int64_t *decl, const int64_t *suffix_min,
                  const int64_t *need_mem, const int64_t *need_cpu,
                  const int64_t *need_gpu, int64_t *dominated, int64_t *choice,
                  int64_t *best, int64_t *out)
{
    State s = {.n = n, .k = k, .nv = nv, .off = off, .vmem = vmem, .vcpu = vcpu,
               .vgpu = vgpu, .vcost = vcost, .rem_mem = cap_mem, .rem_cpu = cap_cpu,
               .rem_gpu = cap_gpu, .suffix_min = suffix_min, .need_mem = need_mem,
               .need_cpu = need_cpu, .need_gpu = need_gpu, .decl = decl,
               .dominated = dominated, .choice = choice, .best = best, .limit = INT64_MAX,
               .deadline_ns = deadline_ns};
    solve_dfs(&s, 0, 0);
    /* no leaf reached leaves the limit at INT64_MAX */
    int found = s.limit != INT64_MAX;
    out[0] = s.timed_out ? TIMED_OUT : found ? OPTIMAL : INFEASIBLE;
    out[1] = found ? s.limit : -1;
    out[2] = s.visited;
}
