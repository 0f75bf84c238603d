/* Compiled search kernel: the branch and bound of mvalloc/_kernels_py.py
 * in C99.
 *
 * Same tree walk, same ordering, same cuts: the forward check with its
 * still-fitting cost bound `rest`, read in `by_cost` order and skipped
 * when one node covers the `need_*` suffix maxima, and the lexicographic
 * tie rule before each variant and after each child.  A child is cut when
 * its cost so far plus `rest` exceeds the incumbent's cost, or ties it
 * while the path's (declared variant, node) pairs through the child do
 * not come before the incumbent's.  Before a variant, the pairs are
 * compared only on a tie, with the variant's node taken as -1.  After a
 * child even a tie needs no comparison: the path still comes before the
 * incumbent unless the child replaced it, which the count of leaves
 * shows.  A leaf that is reached always replaces the incumbent, so the
 * walk returns the lexicographically first optimum.  Fed the same scaled integers, both
 * kernels return identical results, visited counts included.  The walk
 * tries each unit's variants in `by_cost` order, cheapest first, ending
 * a unit's loop at the first variant whose sum exceeds the incumbent's
 * cost, and skips every variant that is strictly dominated within its
 * unit: some variant ahead of it in `by_cost` costs less and needs no
 * more mem, cpu or GPU threads.  The Python kernel tests a variant on
 * first need; this one flags every dominated variant before the walk,
 * which visits the same nodes.  Choices are declared variant indices.
 * Values must fit in int64, which the caller has checked, so no cost plus
 * `rest` reaches the INT64_MAX limit that the walk starts with.  A
 * `by_cost` entry outside its unit's slice is refused before the walk
 * with status INVALID.  The brute-force oracle has no compiled twin; it
 * lives in _kernels_py.py only.
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

enum { INVALID = -1, OPTIMAL = 0, INFEASIBLE = 1, TIMED_OUT = 2 };
enum { CHECK_INTERVAL = 8192 };
enum { KERNEL_VERSION = 3 };

typedef struct {
    int64_t n, k;
    const int64_t *nv, *off, *vmem, *vcpu, *vgpu, *vcost;
    int64_t *rem_mem, *rem_cpu, *rem_gpu;
    const int64_t *suffix_min, *need_mem, *need_cpu, *need_gpu;
    const int64_t *by_cost;
    int64_t *dominated; /* per variant: 1 when the walk skips it */
    int64_t *choice, *best;
    int64_t limit;     /* the incumbent's cost, INT64_MAX before the first leaf */
    int64_t deadline_ns, check_left, visited;
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
    if (--s->check_left <= 0) {
        s->check_left = CHECK_INTERVAL;
        if (monotonic_ns() >= s->deadline_ns) {
            s->timed_out = 1;
            return;
        }
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
            int64_t j = s->off[w], end = s->off[w] + s->nv[w], i = 0;
            for (; j < end; j++) {
                i = s->by_cost[j];
                if (first_fit(s, 0, s->vmem[i], s->vcpu[i], s->vgpu[i]) < s->k)
                    break;
            }
            if (j == end)
                return;
            rest += s->vcost[i];
        }
    }
    for (int64_t j = s->off[u]; j < s->off[u] + s->nv[u]; j++) {
        int64_t i = s->by_cost[j];
        int64_t c = cur + s->vcost[i], m = s->vmem[i], p = s->vcpu[i], g = s->vgpu[i];
        if (c + rest >= s->limit) {
            if (c + rest > s->limit) /* cheapest first: every later one fails too */
                break;
            /* a tie: enter only if some node puts the path before the incumbent */
            s->choice[2 * u] = i - s->off[u];
            s->choice[2 * u + 1] = -1;
            if (!before_best(s, u))
                continue;
        }
        if (s->dominated[i])
            continue;
        for (int64_t h = first_fit(s, 0, m, p, g); h < s->k; h = first_fit(s, h + 1, m, p, g)) {
            s->rem_mem[h] -= m;
            s->rem_cpu[h] -= p;
            s->rem_gpu[h] -= g;
            s->choice[2 * u] = i - s->off[u];
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
                  const int64_t *by_cost, const int64_t *suffix_min,
                  const int64_t *need_mem, const int64_t *need_cpu,
                  const int64_t *need_gpu, int64_t *dominated, int64_t *choice,
                  int64_t *best, int64_t *out)
{
    State s = {.n = n, .k = k, .nv = nv, .off = off, .vmem = vmem, .vcpu = vcpu,
               .vgpu = vgpu, .vcost = vcost, .rem_mem = cap_mem, .rem_cpu = cap_cpu,
               .rem_gpu = cap_gpu, .suffix_min = suffix_min, .need_mem = need_mem,
               .need_cpu = need_cpu, .need_gpu = need_gpu, .by_cost = by_cost,
               .dominated = dominated, .choice = choice, .best = best, .limit = INT64_MAX,
               .deadline_ns = deadline_ns, .check_left = CHECK_INTERVAL};
    for (int64_t u = 0; u < n; u++) {
        int64_t a = off[u], end = off[u] + nv[u];
        for (int64_t j = a; j < end; j++) {
            if (by_cost[j] < a || by_cost[j] >= end) {
                out[0] = INVALID;
                return;
            }
        }
        /* the walk skips a variant when a variant of the unit ahead of it
         * in by_cost costs less and needs no more of any resource */
        for (int64_t j = a; j < end; j++) {
            int64_t i = by_cost[j];
            for (int64_t q = a; q < end && vcost[by_cost[q]] < vcost[i]; q++) {
                int64_t b = by_cost[q];
                if (vmem[b] <= vmem[i] && vcpu[b] <= vcpu[i] && vgpu[b] <= vgpu[i]) {
                    dominated[i] = 1;
                    break;
                }
            }
        }
    }
    solve_dfs(&s, 0, 0);
    /* no leaf reached leaves the limit at INT64_MAX */
    int found = s.limit != INT64_MAX;
    out[0] = s.timed_out ? TIMED_OUT : found ? OPTIMAL : INFEASIBLE;
    out[1] = found ? s.limit : -1;
    out[2] = s.visited;
}
