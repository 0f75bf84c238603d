"""Exact optimal allocation of multi-variant units onto hardware nodes.

`solve` is depth-first branch and bound over (variant, node) choices.
Feasibility at this layer sums memory, CPU load and GPU threads per node
across the units placed there; a unit's own members already share the
accelerator through its variant aggregation, while distinct units on one
node contend for it.  The objective is the weighted sum of chosen
variants' execution times, minimized exactly.

All arithmetic is exact.  Demands and capacities are rationals; `_scale`
checks the inputs and multiplies each resource through by the least
common denominator of every value involved, once, so the kernels compare
plain integers and two equal objectives are equal bit for bit, not
within a tolerance.  Its record keeps declared order.  `_search`, which
only `solve` calls, takes each unit's cheapest demand per resource.
Those minima prove some instances infeasible before any search: the
cheapest total demand of a resource exceeds its total capacity, or no
node holds some unit's three minima at once.  They also order the rest,
fail first.  A unit's eligible nodes are those that hold its minimum
mem, cpu and GPU threads at once; its score is the sum over the three
resources of that minimum divided by the eligible nodes' summed capacity
(0 where that is 0), compared exactly; units come by descending score,
ties in declared order.  The kernels get their arrays already in that
order, with two suffix tables for the bound: the summed cheapest cost of
the remaining units, and the largest demand per resource among their
cheapest variants.

At each node the search checks forward: every remaining unit must still
fit some node's remaining capacity, and the bound adds each one's
cheapest still-fitting variant to the cost so far.  When a single node
can hold the largest cheapest-variant demand, that sum is the suffix
table's and the scan is skipped.

The contract's answer is the lexicographically first optimum: least
cost, then, over the units in search order, the least declared variant
index and then the least node index.  So solve is deterministic.  A walk
in declared order reaches good incumbents late when a unit lists a slow
variant first, so `_search` also lays each unit's variants out cheapest
first, ties in declared order, with each one's declared index beside it
as `decl`, and `solve` makes one walk in that order with the whole order
as its objective: a branch is cut
when its cost plus the bound exceeds the incumbent's, or ties it and the
branch's (declared variant, node) pairs do not come before the
incumbent's, tested before each variant and again after each child
returns.  Every leaf the walk reaches replaces the incumbent, and the
cuts remove only subtrees with no leaf that would, so the walk ends on
the lexicographically first optimum whatever order it meets the optima
in.  It skips every variant that is strictly dominated within its unit:
another variant of the unit costs less and needs no more mem, cpu or GPU
threads.  Swapping the dominated variant for that one on the same node
stays feasible and is strictly cheaper, so no optimum takes it and the
skip changes only `visited`.  The walk reports choices in declared
variant indices; on a timeout its incumbent, if any, with status
"timeout".

`brute_force` enumerates every capacity-feasible assignment in declared
order with no cost bound, guarded against oversized instances.  It is the
one independent oracle for `solve` on either backend: it always runs the
Python enumeration on `_scale`'s declared-order record, the only code the
two share.  `lp.export_lp` writes that same record, so `_scale` is the
one place a rational becomes a solver number.

The result record `AllocationScheme`, its `Placement`s and the status
names are defined in `compaction`, beside `unfold`, which consumes them;
this module re-exports them, and `STATUSES[code]` names a kernel's
status code.
"""

from __future__ import annotations

import bisect
import itertools
import logging
import math
import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import _kernels_py, engine
from .compaction import (
    INFEASIBLE,
    OPTIMAL,
    STATUSES,
    TIMED_OUT,
    AllocationScheme,
    HighLayerModel,
    Placement,
)
from .model import Platform, ResourceDemand
from .rationals import exact_sum

__all__ = [
    "OPTIMAL",
    "INFEASIBLE",
    "TIMED_OUT",
    "BRUTE_FORCE_GUARD",
    "Placement",
    "AllocationScheme",
    "SolverConfig",
    "SolverError",
    "EnumerationGuardError",
    "solve",
    "brute_force",
    "check_scheme",
]

log = logging.getLogger(__name__)

# brute_force refuses instances with more raw assignments than this
BRUTE_FORCE_GUARD = 10_000_000


class SolverError(ValueError):
    pass


class EnumerationGuardError(SolverError):
    """The instance is too large for exhaustive enumeration."""


@dataclass
class SolverConfig:
    """Knobs for `solve`.

    unit_weights multiply each unit's exec_ms in the objective (default
    1).  time_limit_ms bounds the wall-clock search time; on expiry the
    scheme has status "timeout" and, when the walk has reached a leaf,
    its incumbent without any optimality claim: of the leaves it has
    reached, the cheapest, ties broken as for the optimum.
    No setting changes the search order (module docstring), so none
    changes which optimum is reported.
    """

    unit_weights: dict[str, Fraction] = field(default_factory=dict)
    time_limit_ms: int | None = None


@dataclass
class _Scaled:
    """One model scaled to integers, units and variants in declared order.

    `kernel_args` are the arrays both kernels take (nv, off, vmem, vcpu,
    vgpu, vcost, cap_mem, cap_cpu, cap_gpu): unit u owns the flat variant
    slice off[u]:off[u] + nv[u], and a cost divided by `cost_den` is in
    milliseconds.  `brute_force` and `lp.export_lp` read this record as it
    is; `solve` first builds its `_Search` from it.
    """

    unit_ids: list[str]
    node_ids: list[str]
    kernel_args: tuple[list[int], ...]
    cost_den: int


@dataclass
class _Search:
    """A scaled model in search order, with the tables `solve`'s walk reads.

    `args` are the 14 arrays `solve_search` takes: `_Scaled.kernel_args`
    with the units in search order and each unit's slice in walk order,
    cheapest first, ties in declared order; `decl`, each variant's declared
    index within its unit; `suffix_min` and the three `suffix_need`
    columns.  `unit_ids[i]` is the unit searched i-th.  `suffix_min[i]` sums
    the cheapest cost of units i..; the `suffix_need` column of resource r
    holds at i the largest resource-r demand among those units' cheapest
    variants (the first one on a cost tie).  `infeasible` says why the
    units' minima alone prove the model infeasible, or is None: the first
    resource whose cheapest total demand exceeds total capacity, else the
    first unit, in declared order, that no single node can hold.  `engine`
    checks that the values fit int64 and the costs sum below INT64_MAX.
    """

    unit_ids: list[str]
    args: tuple[list[int], ...]
    infeasible: str | None


def _check_config(cfg: SolverConfig) -> None:
    if cfg.time_limit_ms is not None and cfg.time_limit_ms < 0:
        raise SolverError("time_limit_ms must be non-negative")
    for unit_id, weight in cfg.unit_weights.items():
        if weight <= 0:
            raise SolverError(f"weight of unit {unit_id!r} must be positive")


def _scale(model: HighLayerModel, platform: Platform, cfg: SolverConfig) -> _Scaled:
    """Check the inputs and scale every demand and capacity to integers, once.

    Per resource the common denominator is the lcm of every value's
    denominator.  Values sit in flat per-variant columns in declared order.
    """
    _check_config(cfg)
    units = model.units
    unit_ids = {u.id for u in units}
    if len(unit_ids) != len(units):
        raise SolverError("duplicate unit ids in the model")
    unknown = set(cfg.unit_weights) - unit_ids
    if unknown:
        raise SolverError(f"weights for unknown units: {', '.join(sorted(unknown))}")
    nodes = platform.nodes
    node_ids = [n.id for n in nodes]
    if len(set(node_ids)) != len(node_ids):
        raise SolverError("duplicate node ids in the platform")
    for unit in units:
        if not unit.variants:
            raise SolverError(f"unit {unit.id!r} has no variants")

    props = [v.props for u in units for v in u.variants]
    weights = cfg.unit_weights
    costs = [
        weights[u.id] * v.props.exec_ms if u.id in weights else v.props.exec_ms
        for u in units
        for v in u.variants
    ]
    mem_den = math.lcm(
        *{n.use_mem.denominator for n in nodes}, *{p.mem.denominator for p in props}
    )
    cpu_den = math.lcm(
        *{n.use_cpu.denominator for n in nodes}, *{p.cpu.denominator for p in props}
    )
    cost_den = math.lcm(*{c.denominator for c in costs})

    caps = (
        [n.use_mem.numerator * (mem_den // n.use_mem.denominator) for n in nodes],
        [n.use_cpu.numerator * (cpu_den // n.use_cpu.denominator) for n in nodes],
        [n.use_gpu for n in nodes],
    )
    cols = (  # scaled mem, cpu, gpu, cost per variant
        [p.mem.numerator * (mem_den // p.mem.denominator) for p in props],
        [p.cpu.numerator * (cpu_den // p.cpu.denominator) for p in props],
        [p.gpu_threads for p in props],
        [c.numerator * (cost_den // c.denominator) for c in costs],
    )
    if any(min(col, default=0) < 0 for col in cols):
        raise SolverError("negative demand values; validate the model first")
    if any(c < 0 for cap in caps for c in cap):
        raise SolverError("negative capacity values; validate the model first")
    nv = [len(u.variants) for u in units]
    off = list(itertools.accumulate(nv, initial=0))[:-1]
    return _Scaled([u.id for u in units], node_ids, (nv, off, *cols, *caps), cost_den)


def _search(scaled: _Scaled) -> _Search:
    """Order a scaled model for `solve` and build what its walk reads.

    Each unit's minima per resource give the pre-search verdict and the
    demand order (`_demand_order`); `engine` checks the int64 limit.  One
    gather pass then puts the units in that order and each unit's
    variants in walk order, by a stable sort on cost.
    """
    nv, off, *cols, cap_mem, cap_cpu, cap_gpu = scaled.kernel_args
    caps = (cap_mem, cap_cpu, cap_gpu)
    spans = [(a, a + count) for a, count in zip(off, nv)]
    # per resource, per unit
    minima = [[min(col[s:e]) for s, e in spans] for col in cols[:3]]
    infeasible = None
    for label, need, cap in zip(("mem", "cpu", "gpu_threads"), minima, caps):
        if sum(need) > sum(cap):
            infeasible = f"total {label} demand exceeds capacity"
            break
    order, homeless = _demand_order(minima, caps)
    if infeasible is None and homeless is not None:
        # every variant needs at least the unit's minima, so none fits a node alone
        infeasible = f"no node holds unit {scaled.unit_ids[homeless]!r} alone"

    # each unit's flat declared indices in walk order, by a stable sort on cost
    walk = [sorted(range(*spans[u]), key=cols[3].__getitem__) for u in order]
    columns = [[col[i] for w in walk for i in w] for col in cols]  # mem, cpu, gpu, cost
    decl = [i - spans[u][0] for u, w in zip(order, walk) for i in w]
    nv = [nv[u] for u in order]
    off = list(itertools.accumulate(nv, initial=0))[:-1]
    first = off[::-1]  # each unit's cheapest variant, back to front
    suffix_min = list(itertools.accumulate((columns[3][a] for a in first), initial=0))[::-1]
    suffix_need = (
        list(itertools.accumulate((col[a] for a in first), max, initial=0))[::-1]
        for col in columns[:3]
    )
    args = (nv, off, *columns, *caps, decl, suffix_min, *suffix_need)
    unit_ids = [scaled.unit_ids[u] for u in order]
    return _Search(unit_ids, args, infeasible)


def _demand_order(
    minima: list[list[int]], caps: tuple[list[int], list[int], list[int]]
) -> tuple[list[int], int | None]:
    """The demand order of the units, and the first unit no node can hold.

    `minima[r][u]` is unit u's smallest resource-r demand over its
    variants and `caps[r][h]` node h's capacity, both scaled.  A unit's
    eligible nodes hold all three of its minima at once; its score sums,
    over the resources, the minimum divided by the eligible nodes' summed
    capacity (0 where that is 0).  Units come by descending score, ties in
    declared order.  The second value is the index of the first unit,
    in declared order, with no eligible node, or None.

    Eligible sets are bit masks over the nodes.  Per resource, with the
    nodes sorted by capacity, the nodes holding a minimum are a suffix of
    that order, found by one `bisect` into it, and each suffix's mask is
    computed once; a unit's eligible set is the AND of its three.
    Capacities are summed once per distinct set, and scores are compared
    exactly, as integers over the lcm of the sums that occur.
    """
    eligible = [-1] * len(minima[0])
    for cap, need in zip(caps, minima):
        order = sorted(range(len(cap)), key=cap.__getitem__)
        at_least = [cap[h] for h in order]
        # suffix[s] is the mask of order[s:], the nodes holding at least at_least[s]
        bits = (1 << h for h in reversed(order))
        suffix = list(itertools.accumulate(bits, operator.or_, initial=0))[::-1]
        eligible = [m & suffix[bisect.bisect_left(at_least, v)] for m, v in zip(eligible, need)]
    homeless = eligible.index(0) if 0 in eligible else None
    sums = {
        m: [sum(c for h, c in enumerate(cap) if m >> h & 1) for cap in caps]
        for m in set(eligible)
    }
    common = math.lcm(*{c for s in sums.values() for c in s if c})
    factors = {m: [common // c if c else 0 for c in s] for m, s in sums.items()}
    score = [
        m_mem * f_mem + m_cpu * f_cpu + m_gpu * f_gpu
        for m_mem, m_cpu, m_gpu, (f_mem, f_cpu, f_gpu) in zip(*minima, map(factors.get, eligible))
    ]
    # a stable sort keeps ties in declared order, reversed or not
    return sorted(range(len(score)), key=score.__getitem__, reverse=True), homeless


def _scheme(result: tuple, unit_ids: list[str], scaled: _Scaled, backend: str) -> AllocationScheme:
    """The scheme of a kernel's (status code, cost, choices, visited), whose
    choices place `unit_ids` in turn; a cost comes with every incumbent."""
    code, cost, choices, visited = result
    placements: dict[str, Placement] = {}
    objective = None
    if cost is not None:
        node_ids = scaled.node_ids
        placements = {u: Placement(v, node_ids[h]) for u, (v, h) in zip(unit_ids, choices)}
        objective = Fraction(cost, scaled.cost_den)
    status = STATUSES[code]
    return AllocationScheme(status, objective, placements, visited=visited, backend=backend)


def solve(
    model: HighLayerModel,
    platform: Platform,
    config: SolverConfig | None = None,
    *,
    backend: str = "auto",
) -> AllocationScheme:
    """Find a minimum-cost feasible allocation, exactly.

    Returns a scheme with status "optimal" (placements cover every unit
    and objective_ms is the proven minimum), "infeasible" (no placements)
    or "timeout".
    """
    cfg = config or SolverConfig()
    deadline_ns = None
    if cfg.time_limit_ms is not None:
        deadline_ns = time.monotonic_ns() + cfg.time_limit_ms * 1_000_000

    scaled = _scale(model, platform, cfg)
    search = _search(scaled)
    be = engine.get_backend(backend)
    if search.infeasible is not None:
        log.info("infeasible before search: %s", search.infeasible)
        return AllocationScheme(INFEASIBLE, None, {}, visited=0, backend=be.name)
    if deadline_ns is not None and time.monotonic_ns() >= deadline_ns:
        return AllocationScheme(TIMED_OUT, None, {}, visited=0, backend=be.name)
    try:
        result = be.solve_search(*search.args, deadline_ns=deadline_ns)
    except OverflowError:  # raised by the compiled kernel before it runs
        if backend == "c":
            raise SolverError(
                "scaled values do not fit the compiled kernel; use backend=python"
            ) from None
        log.debug("values exceed the compiled kernel's int64 range, using the python kernel")
        be = engine.get_backend("python")
        result = be.solve_search(*search.args, deadline_ns=deadline_ns)
    scheme = _scheme(result, search.unit_ids, scaled, be.name)
    log.debug("%s after %d search nodes on backend %s", scheme.status, scheme.visited, be.name)
    return scheme


def brute_force(
    model: HighLayerModel, platform: Platform, config: SolverConfig | None = None
) -> AllocationScheme:
    """Exhaustive reference solver; ignores time_limit_ms.

    Walks every capacity-feasible assignment in declared order and keeps
    the first one reaching the minimum, always on the Python enumeration
    (big integers, no int64 limit), whichever backend `solve` uses.
    Refuses instances whose raw assignment count exceeds
    BRUTE_FORCE_GUARD.
    """
    cfg = config or SolverConfig()
    scaled = _scale(model, platform, cfg)
    assignments = 1
    k = len(scaled.node_ids)
    for count in scaled.kernel_args[0]:  # nv
        assignments *= count * k
        if assignments > BRUTE_FORCE_GUARD:
            raise EnumerationGuardError(
                f"instance has more than {BRUTE_FORCE_GUARD} raw assignments"
            )
    result = _kernels_py.brute_search(*scaled.kernel_args)
    return _scheme(result, scaled.unit_ids, scaled, "python")


def check_scheme(
    scheme: AllocationScheme, model: HighLayerModel, platform: Platform
) -> list[tuple[str, str]]:
    """Re-verify a scheme's placements against node capacities.

    Uses the compacted-layer reading: every resource, GPU threads
    included, sums across the distinct units sharing a node.  Returns
    (node id, resource) pairs for each overrun.
    """
    units = {u.id: u for u in model.units}
    placed: dict[str, list[ResourceDemand]] = {node.id: [] for node in platform.nodes}
    for unit_id, placement in scheme.placements.items():
        if unit_id not in units:
            raise SolverError(f"scheme places unknown unit {unit_id!r}")
        unit = units[unit_id]
        if not 0 <= placement.variant < len(unit.variants):
            raise SolverError(f"unit {unit_id!r} has no variant {placement.variant}")
        placed[platform.node(placement.node).id].append(unit.variants[placement.variant].props)
    violations: list[tuple[str, str]] = []
    for node in platform.nodes:
        props = placed[node.id]
        if exact_sum([p.mem for p in props]) > node.use_mem:
            violations.append((node.id, "mem"))
        if exact_sum([p.cpu for p in props]) > node.use_cpu:
            violations.append((node.id, "cpu"))
        if sum(p.gpu_threads for p in props) > node.use_gpu:
            violations.append((node.id, "gpu_threads"))
    return violations
