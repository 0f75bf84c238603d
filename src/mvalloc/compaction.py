"""Compacting alternative assemblies into multi-variant units.

A unit behaves as a regular component: each of its variants carries a
`ResourceDemand`, the member list's demands folded into one.  mem, cpu
and exec_ms are the exact sums of the members', with one exception: GPU
threads take the maximum over the members, because components inside
one unit run as a pipeline on the same accelerator and never need their
thread budgets at the same time.  Each sum adds integer numerators over
the members' common denominator (`rationals.exact_sum`): exactly the
value of adding the Fractions one by one, with one Fraction built per
column.  A standalone component is a one-variant unit sharing the
component's own demand.  Choosing a variant and a node for every unit is
what the solver does, and `unfold` maps a solved scheme back onto
individual components.

The scheme that `unfold` takes is defined here too, beside the layer it
describes: `AllocationScheme` holds a status, the objective and one
`Placement` (variant index, node id) per unit.  `STATUSES` lists the
status names in the order of the search kernels' status codes 0, 1, 2.
The solver produces schemes and `formats` reads and writes them; both
take these names from here, so neither the file formats nor unfolding
need the solver.

A unit's enumeration policy is its name in `UnitSpec.policy`.
"declared" takes the hand-written list; "all_combinations" crosses all
version choices of a chain topology; "contiguous_gpu_segment" keeps only
combinations whose GPU-resident stretch is a single contiguous run of the
chain, which is the shape a camera pipeline actually wants (one upload,
one download).

One rule covers every policy: each alternative realizes the unit's
functions, which are its topology when it has one and otherwise the
functions of its first declared alternative.  The rule is checked where
the input arrives: each declared alternative as a multiset of functions
(`model.unrealized_alternatives`, which `validate_architecture` also
reports from), and for a generated policy once per version, as "this
version's function is the topology function it stands for", so every
chain realizes the topology by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .model import (
    POLICIES,
    Kind,
    Repository,
    ResourceDemand,
    SystemArchitecture,
    UnitSpec,
    unrealized_alternatives,
)
from .rationals import exact_sum

__all__ = [
    "OPTIMAL",
    "INFEASIBLE",
    "TIMED_OUT",
    "STATUSES",
    "Placement",
    "AllocationScheme",
    "Variant",
    "MultiVariantUnit",
    "HighLayerModel",
    "CompactionError",
    "UnfoldError",
    "aggregate_variant",
    "enumerate_alternatives",
    "compact",
    "build_high_layer",
    "unfold",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
TIMED_OUT = "timeout"
# indexed by the search kernels' status codes
STATUSES = (OPTIMAL, INFEASIBLE, TIMED_OUT)


class CompactionError(ValueError):
    """A unit specification cannot be turned into variants."""


class UnfoldError(ValueError):
    """A scheme cannot be mapped back onto the detailed architecture."""


@dataclass
class Variant:
    """One alternative of a unit: its member ids and their aggregated
    demand, which the solver reads like a single component's."""

    members: list[str]
    props: ResourceDemand


@dataclass
class MultiVariantUnit:
    id: str
    variants: list[Variant]


@dataclass
class HighLayerModel:
    """The compacted layer handed to the solver: one ordered list of
    units (compacted subsystems first, then standalone components as
    one-variant units, each in declared order) and the connections
    between them."""

    units: list[MultiVariantUnit]
    connections: list[tuple[str, str]] = field(default_factory=list)

    def all_units(self) -> list[MultiVariantUnit]:
        """The same list as `units`; kept because the benchmark tracer
        counts variants through it."""
        return self.units


@dataclass(frozen=True)
class Placement:
    variant: int
    node: str


@dataclass
class AllocationScheme:
    """A solved (or parsed) allocation: a status from STATUSES, the
    objective and the placement of every unit, keyed by unit id."""

    status: str
    objective_ms: Fraction | None
    placements: dict[str, Placement]
    visited: int = field(default=0, compare=False)
    backend: str = field(default="", compare=False)


def aggregate_variant(members: list[str], repo: Repository) -> ResourceDemand:
    """Fold the members' demands into one, as the module docstring says."""
    demands = [repo.component(cid).demand for cid in members]
    return ResourceDemand(
        mem=exact_sum([d.mem for d in demands]),
        cpu=exact_sum([d.cpu for d in demands]),
        gpu_threads=max([0] + [d.gpu_threads for d in demands]),
        exec_ms=exact_sum([d.exec_ms for d in demands]),
    )


def enumerate_alternatives(spec: UnitSpec, repo: Repository) -> list[list[str]]:
    """Produce the member lists of one unit's alternatives by its policy.

    Every alternative realizes the unit's functions (see the module
    docstring); a violation raises CompactionError, and a declared
    member the repository lacks raises UnknownIdError first.  Generated
    policies emit chains in a fixed order: the cartesian product of
    version choices, each version list in repository order, varying the
    last function fastest.  "contiguous_gpu_segment" emits that product's
    contiguous chains in the same order, without building the chains it
    drops.
    """
    if spec.policy not in POLICIES:
        raise CompactionError(f"unknown enumeration policy {spec.policy!r}")
    if spec.policy == "declared":
        if not spec.alternatives:
            raise CompactionError("declared policy with no alternatives")
        for alt in spec.alternatives:
            for cid in alt.components:
                repo.component(cid)  # raises on unknown ids
        unrealized = unrealized_alternatives(spec, repo)
        if unrealized:
            raise CompactionError(
                f"unit {spec.id!r}: alternative {unrealized[0]} does not realize "
                f"the unit's functions"
            )
        return [list(alt.components) for alt in spec.alternatives]

    if not spec.topology:
        raise CompactionError(f"unit {spec.id!r}: {spec.policy} policy with no topology")
    version_lists: list[list[str]] = []
    for function in spec.topology:
        versions = repo.versions_of(function)
        if not versions:
            raise CompactionError(f"no component realizes function {function!r}")
        for cid in versions:
            realized = repo.component(cid).function
            if realized != function:
                raise CompactionError(
                    f"unit {spec.id!r}: version {cid!r} of {function!r} "
                    f"realizes {realized!r}"
                )
        version_lists.append(versions)
    if spec.policy == "all_combinations":
        return [list(chain) for chain in itertools.product(*version_lists)]
    gpu = [[repo.component(cid).kind is Kind.GPU for cid in vs] for vs in version_lists]
    kept: list[list[str]] = []
    chain: list[str] = []

    def walk(i: int, run: int) -> None:
        # run: 0 no GPU version yet, 1 GPU run open, 2 run closed
        if i == len(version_lists):
            kept.append(list(chain))
            return
        for cid, on_gpu in zip(version_lists[i], gpu[i]):
            if on_gpu and run == 2:
                continue
            chain.append(cid)
            walk(i + 1, 1 if on_gpu else 2 if run == 1 else run)
            chain.pop()

    walk(0, 0)
    return kept


def compact(
    unit_id: str, alternatives: list[list[str]], repo: Repository
) -> MultiVariantUnit:
    """Collapse alternatives into one multi-variant unit; a variant's
    index is its alternative's position in the list."""
    if not alternatives:
        raise CompactionError(f"unit {unit_id!r} has no alternatives")
    variants = [Variant(members, aggregate_variant(members, repo)) for members in alternatives]
    return MultiVariantUnit(id=unit_id, variants=variants)


def build_high_layer(arch: SystemArchitecture, repo: Repository) -> HighLayerModel:
    """Compact a whole architecture into the model the solver takes."""
    units = [
        compact(spec.id, enumerate_alternatives(spec, repo), repo) for spec in arch.units
    ]
    units += [
        MultiVariantUnit(cid, [Variant([cid], repo.component(cid).demand)])
        for cid in arch.singletons
    ]
    return HighLayerModel(units=units, connections=list(arch.connections))


def unfold(scheme: AllocationScheme, model: HighLayerModel) -> dict[str, str]:
    """Expand a solved scheme into a component-to-node assignment.

    Every unit's chosen variant contributes its members on the unit's
    node.  A component shared by several units must land on one node;
    conflicting placements are an error, as is a scheme that does not
    cover the model or was never solved to optimality.
    """
    if scheme.status != OPTIMAL:
        raise UnfoldError(f"cannot unfold a scheme with status {scheme.status!r}")
    placements = scheme.placements
    units = {unit.id: unit for unit in model.units}
    missing = sorted(set(units) - set(placements))
    if missing:
        raise UnfoldError(f"scheme places no unit for: {', '.join(missing)}")
    extra = sorted(set(placements) - set(units))
    if extra:
        raise UnfoldError(f"scheme places unknown units: {', '.join(extra)}")
    assignment: dict[str, str] = {}
    for unit in model.units:
        placement = placements[unit.id]
        if not 0 <= placement.variant < len(unit.variants):
            raise UnfoldError(
                f"unit {unit.id!r} has no variant {placement.variant}"
            )
        for member in unit.variants[placement.variant].members:
            previous = assignment.get(member)
            if previous is not None and previous != placement.node:
                raise UnfoldError(
                    f"component {member!r} pulled to both {previous!r} and "
                    f"{placement.node!r}"
                )
            assignment[member] = placement.node
    return assignment
