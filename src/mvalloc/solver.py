"""Exact optimal allocation of multi-variant units onto hardware nodes.

`solve` is depth-first branch and bound over (variant, node) choices.
Feasibility at this layer sums memory, CPU load and GPU threads per node
across the units placed there; a unit's own members already share the
accelerator through its variant aggregation, while distinct units on one
node contend for it.  The objective is the weighted sum of chosen
variants' execution times, minimized exactly.

All arithmetic is exact.  Demands and capacities are rationals; `_scale`
multiplies each resource through by the least common denominator of
every value involved, once, so the kernels compare plain integers and two
equal objectives are equal bit for bit, not within a tolerance.  The same
pass takes each unit's cheapest demand per resource, which proves some
instances infeasible before any search (cheapest total demand above total
capacity) and orders the rest: units by descending max over resources of
cheapest demand / total capacity, ties in declared order.  The kernels
get their arrays already in that order, with two suffix tables for the
bound: the summed cheapest cost of the remaining units, and the largest
demand per resource among their cheapest variants.

At each node the search checks forward: every remaining unit must still
fit some node's remaining capacity, and the bound adds each one's
cheapest still-fitting variant to the cost so far.  When a single node
can hold the largest cheapest-variant demand, that sum is the suffix
table's and the scan is skipped.  A branch is cut when its cost plus that
bound cannot beat the incumbent, tested before each variant and again
after each child returns.  The incumbent is replaced only on strict
improvement and the tree is walked in a fixed order (search order of
units, then variant index, then platform node order); the cuts remove
only subtrees with no strictly cheaper feasible leaf, so the reported
optimum is the lexicographically first one and solve is deterministic.

`brute_force` enumerates every capacity-feasible assignment in declared
order with no cost bound, guarded against oversized instances.  It is the
one independent oracle for `solve` on either backend: it always runs the
Python enumeration, and the only code the two share is the scaling.
`lp.export_lp` writes the same scaled integers, so `_scale` is the one
place a rational becomes a solver number.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import _kernels_py, engine
from .compaction import HighLayerModel
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

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
TIMED_OUT = "timeout"

_STATUS = {0: OPTIMAL, 1: INFEASIBLE, 2: TIMED_OUT}

# brute_force refuses instances with more raw assignments than this
BRUTE_FORCE_GUARD = 10_000_000


class SolverError(ValueError):
    pass


class EnumerationGuardError(SolverError):
    """The instance is too large for exhaustive enumeration."""


@dataclass(frozen=True)
class Placement:
    variant: int
    node: str


@dataclass
class AllocationScheme:
    status: str
    objective_ms: Fraction | None
    placements: dict[str, Placement]
    visited: int = field(default=0, compare=False)
    backend: str = field(default="", compare=False)


@dataclass
class SolverConfig:
    """Knobs for `solve`.

    unit_weights multiply each unit's exec_ms in the objective (default
    1).  time_limit_ms bounds the wall-clock search time; on expiry the
    scheme has status "timeout" and, only when incumbent_on_timeout is
    set, the best placements found so far without any optimality claim.
    unit_order "demand" sorts units hardest-first before the search,
    "declared" keeps model order; nodes are always tried in platform
    order.  The order does not affect which objective value is optimal,
    only how fast it is reached.
    """

    unit_weights: dict[str, Fraction] = field(default_factory=dict)
    time_limit_ms: int | None = None
    unit_order: str = "demand"
    incumbent_on_timeout: bool = False


@dataclass
class _Scaled:
    """One model scaled to integers, units in search order.

    `kernel_args` are the arrays both kernels take (nv, off, vmem, vcpu,
    vgpu, vcost, cap_mem, cap_cpu, cap_gpu); `unit_ids[i]` is the unit
    searched i-th.  `suffix_min[i]` sums the cheapest cost of units i..,
    and `suffix_need[r][i]` is the largest resource-r demand among those
    units' cheapest variants (the first one on a cost tie).  `overloaded`
    names the first resource whose cheapest total demand exceeds total
    capacity, which proves infeasibility.
    """

    unit_ids: list[str]
    node_ids: list[str]
    kernel_args: tuple[list[int], ...]
    suffix_min: list[int]
    suffix_need: tuple[list[int], list[int], list[int]]
    cost_den: int
    overloaded: str | None
    int64_safe: bool


def _check_config(cfg: SolverConfig) -> None:
    if cfg.unit_order not in ("demand", "declared"):
        raise SolverError(f"unknown unit_order {cfg.unit_order!r}")
    if cfg.time_limit_ms is not None and cfg.time_limit_ms < 0:
        raise SolverError("time_limit_ms must be non-negative")
    for unit_id, weight in cfg.unit_weights.items():
        if weight <= 0:
            raise SolverError(f"weight of unit {unit_id!r} must be positive")


def _scale(
    model: HighLayerModel, platform: Platform, cfg: SolverConfig, unit_order: str
) -> _Scaled:
    """Scale every demand and capacity to integers, once.

    Per resource the common denominator is the lcm of every value's
    denominator.  Values sit in flat per-variant columns in declared
    order, unit u owning the slice spans[u].  The same pass takes each unit's minimum and maximum per
    resource: the minima give the pre-search infeasibility check, the
    demand score and the cost bound, the maxima the int64 check.  It also
    notes each unit's cheapest variant, whose demands' suffix maxima let
    the search skip its forward scan.
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
    starts = list(itertools.accumulate((len(u.variants) for u in units), initial=0))
    spans = list(zip(starts, starts[1:]))
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
    # per resource, per unit
    minima = [[min(col[s:e]) for s, e in spans] for col in cols]
    maxima = [sum(max(col[s:e]) for s, e in spans) for col in cols]
    # per unit: the flat index of its first minimum-cost variant
    cheapest = [cols[3].index(m, s, e) for m, (s, e) in zip(minima[3], spans)]

    if any(min(col, default=0) < 0 for col in cols):
        raise SolverError("negative demand values; validate the model first")
    if any(c < 0 for cap in caps for c in cap):
        raise SolverError("negative capacity values; validate the model first")
    totals = [sum(cap) for cap in caps]
    overloaded = None
    for r, label in enumerate(("mem", "cpu", "gpu_threads")):
        if sum(minima[r]) > totals[r]:
            overloaded = label
            break
    bound = engine.INT64_SAFE_BOUND
    int64_safe = max(maxima) < bound and all(c < bound for cap in caps for c in cap)

    order = range(len(units))
    if unit_order == "demand":
        # max over resources of min demand / total capacity, compared
        # exactly over the common denominator; the sort is stable, so
        # ties keep declared order
        common = math.prod(t for t in totals if t)
        factors = [common // t if t else 0 for t in totals]
        score = [max(m * f for m, f in zip(ms, factors)) for ms in zip(*minima[:3])]
        order = sorted(order, key=lambda u: -score[u])

    nv = [len(units[u].variants) for u in order]
    off = list(itertools.accumulate(nv, initial=0))[:-1]
    flat = [i for u in order for i in range(*spans[u])]
    vmem, vcpu, vgpu, vcost = ([col[i] for i in flat] for col in cols)
    back = order[::-1]
    suffix_min = list(itertools.accumulate((minima[3][u] for u in back), initial=0))[::-1]
    suffix_need = tuple(
        list(itertools.accumulate((col[cheapest[u]] for u in back), max, initial=0))[::-1]
        for col in cols[:3]
    )
    return _Scaled(
        unit_ids=[units[u].id for u in order],
        node_ids=node_ids,
        kernel_args=(nv, off, vmem, vcpu, vgpu, vcost, *caps),
        suffix_min=suffix_min,
        suffix_need=suffix_need,
        cost_den=cost_den,
        overloaded=overloaded,
        int64_safe=int64_safe,
    )


def _placements(scaled: _Scaled, choices: list[tuple[int, int]]) -> dict[str, Placement]:
    return {
        unit_id: Placement(v, scaled.node_ids[h])
        for unit_id, (v, h) in zip(scaled.unit_ids, choices)
    }


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

    scaled = _scale(model, platform, cfg, cfg.unit_order)
    be = engine.get_backend(backend)
    if be.name == "c" and not scaled.int64_safe:
        if backend == "c":
            raise SolverError(
                "scaled values do not fit the compiled kernel; use backend=python"
            )
        log.debug("values exceed int64 range, using python kernels")
        be = engine.get_backend("python")
    if scaled.overloaded is not None:
        log.info(
            "infeasible before search: total %s demand exceeds capacity", scaled.overloaded
        )
        return AllocationScheme(INFEASIBLE, None, {}, visited=0, backend=be.name)
    if deadline_ns is not None and time.monotonic_ns() >= deadline_ns:
        return AllocationScheme(TIMED_OUT, None, {}, visited=0, backend=be.name)
    code, cost, choices, visited = be.solve_search(
        *scaled.kernel_args, scaled.suffix_min, *scaled.suffix_need, deadline_ns
    )
    status = _STATUS[code]
    log.debug("status %s after %d search nodes on backend %s", status, visited, be.name)

    expose = status == OPTIMAL or (
        status == TIMED_OUT and cfg.incumbent_on_timeout and choices
    )
    placements: dict[str, Placement] = {}
    objective = None
    if expose and choices:
        placements = _placements(scaled, choices)
        objective = Fraction(cost, scaled.cost_den)
    elif status == OPTIMAL:
        objective = Fraction(cost, scaled.cost_den)  # zero units
    return AllocationScheme(status, objective, placements, visited=visited, backend=be.name)


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
    scaled = _scale(model, platform, cfg, "declared")
    assignments = 1
    k = len(scaled.node_ids)
    for count in scaled.kernel_args[0]:  # nv
        assignments *= count * k
        if assignments > BRUTE_FORCE_GUARD:
            raise EnumerationGuardError(
                f"instance has more than {BRUTE_FORCE_GUARD} raw assignments"
            )
    code, cost, choices, visited = _kernels_py.brute_search(*scaled.kernel_args)
    status = _STATUS[code]
    placements = {}
    objective = None
    if status == OPTIMAL:
        placements = _placements(scaled, choices)
        objective = Fraction(cost, scaled.cost_den)
    return AllocationScheme(status, objective, placements, visited=visited, backend="python")


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
