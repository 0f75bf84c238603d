"""Compacting alternative assemblies into multi-variant units.

An assembly of components collapses into a single variant whose demands
are the exact sums of its members, with one exception: GPU threads take
the maximum over the members, because components inside one unit run as a
pipeline on the same accelerator and never need their thread budgets at
the same time.  Each sum adds integer numerators over the members' common
denominator (`rationals.exact_sum`): exactly the value of adding the
Fractions one by one, with one Fraction built per column.  A unit
carries one such variant per alternative; choosing a variant and a
node for every unit is what the solver does, and `unfold` maps a solved
scheme back onto individual components.

A unit's enumeration policy is its name in `UnitSpec.policy`.
"declared" takes the hand-written list; "all_combinations" crosses all
version choices of a chain topology; "contiguous_gpu_segment" keeps only
combinations whose GPU-resident stretch is a single contiguous run of the
chain, which is the shape a camera pipeline actually wants (one upload,
one download).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping

from .model import (
    POLICIES,
    Assembly,
    Component,
    Kind,
    Repository,
    SystemArchitecture,
    UnitSpec,
)
from .rationals import exact_sum

if TYPE_CHECKING:
    from .solver import AllocationScheme

__all__ = [
    "VariantProperties",
    "Variant",
    "MultiVariantUnit",
    "HighLayerModel",
    "CompactionError",
    "UnfoldError",
    "aggregate_variant",
    "enumerate_alternatives",
    "compact",
    "singleton_unit",
    "build_high_layer",
    "unfold",
]


class CompactionError(ValueError):
    """A unit specification cannot be turned into variants."""


class UnfoldError(ValueError):
    """A scheme cannot be mapped back onto the detailed architecture."""


@dataclass(frozen=True)
class VariantProperties:
    """Aggregated demands of one alternative: mem, cpu and exec_ms are
    member sums, gpu_threads the member maximum."""

    mem: Fraction
    cpu: Fraction
    gpu_threads: int
    exec_ms: Fraction
    gpu_member_count: int


@dataclass
class Variant:
    members: list[str]
    props: VariantProperties


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
        """The same list as `units`."""
        return self.units


def aggregate_variant(assembly: Assembly, repo: Repository) -> VariantProperties:
    """Fold an assembly's member demands into variant properties; each
    sum is `exact_sum`'s, one Fraction per column."""
    comps = [repo.component(cid) for cid in assembly.components]
    demands = [comp.demand for comp in comps]
    return VariantProperties(
        mem=exact_sum([d.mem for d in demands]),
        cpu=exact_sum([d.cpu for d in demands]),
        gpu_threads=max([0] + [d.gpu_threads for d in demands]),
        exec_ms=exact_sum([d.exec_ms for d in demands]),
        gpu_member_count=sum(comp.kind is Kind.GPU for comp in comps),
    )


def _chain_assembly(members: tuple[str, ...]) -> Assembly:
    connections = [(members[i], members[i + 1]) for i in range(len(members) - 1)]
    return Assembly(components=list(members), connections=connections)


def _function_counts(assembly: Assembly, repo: Repository) -> Counter:
    return Counter(repo.component(cid).function for cid in assembly.components)


def enumerate_alternatives(spec: UnitSpec, repo: Repository) -> list[Assembly]:
    """Produce the alternative assemblies of one unit by its policy.

    Generated policies emit assemblies in a fixed order: the cartesian
    product of version choices, each version list in repository order,
    varying the last function fastest.  "contiguous_gpu_segment" emits
    that product's contiguous chains in the same order, without building
    the chains it drops.
    """
    if spec.policy not in POLICIES:
        raise CompactionError(f"unknown enumeration policy {spec.policy!r}")
    topology = spec.topology or []
    if spec.policy == "declared":
        if not spec.alternatives:
            raise CompactionError("declared policy with no alternatives")
        want = Counter(topology) if topology else None
        for alt in spec.alternatives:
            counts = _function_counts(alt, repo)  # raises on unknown ids
            if want is not None and counts != want:
                raise CompactionError(
                    f"alternative {alt.components} does not realize the topology"
                )
        return list(spec.alternatives)

    version_lists: list[list[str]] = []
    for function in topology:
        versions = repo.versions_of(function)
        if not versions:
            raise CompactionError(f"no component realizes function {function!r}")
        version_lists.append(versions)
    if spec.policy == "all_combinations":
        return [_chain_assembly(c) for c in itertools.product(*version_lists)]
    gpu = [[repo.component(cid).kind is Kind.GPU for cid in vs] for vs in version_lists]
    kept: list[Assembly] = []
    chain: list[str] = []

    def walk(i: int, run: int) -> None:
        # run: 0 no GPU version yet, 1 GPU run open, 2 run closed
        if i == len(version_lists):
            kept.append(_chain_assembly(tuple(chain)))
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
    unit_id: str, alternatives: list[Assembly], repo: Repository
) -> MultiVariantUnit:
    """Collapse alternatives into one multi-variant unit.

    All alternatives must realize the same multiset of functions; a
    variant's index is its alternative's position in the list.
    """
    if not alternatives:
        raise CompactionError(f"unit {unit_id!r} has no alternatives")
    reference = _function_counts(alternatives[0], repo)
    variants: list[Variant] = []
    for index, assembly in enumerate(alternatives):
        if _function_counts(assembly, repo) != reference:
            raise CompactionError(
                f"unit {unit_id!r}: alternative {index} realizes different functions"
            )
        variants.append(
            Variant(
                members=list(assembly.components),
                props=aggregate_variant(assembly, repo),
            )
        )
    return MultiVariantUnit(id=unit_id, variants=variants)


def singleton_unit(comp: Component) -> MultiVariantUnit:
    """Wrap a standalone component as a unit with a single variant."""
    props = VariantProperties(
        mem=comp.demand.mem,
        cpu=comp.demand.cpu,
        gpu_threads=comp.demand.gpu_threads,
        exec_ms=comp.demand.exec_ms,
        gpu_member_count=1 if comp.kind is Kind.GPU else 0,
    )
    return MultiVariantUnit(
        id=comp.id,
        variants=[Variant(members=[comp.id], props=props)],
    )


def build_high_layer(arch: SystemArchitecture, repo: Repository) -> HighLayerModel:
    """Compact a whole architecture into the model the solver takes."""
    units = [
        compact(spec.id, enumerate_alternatives(spec, repo), repo) for spec in arch.units
    ]
    units += [singleton_unit(repo.component(cid)) for cid in arch.singletons]
    return HighLayerModel(units=units, connections=list(arch.connections))


def unfold(scheme: "AllocationScheme", model: HighLayerModel) -> dict[str, str]:
    """Expand a solved scheme into a component-to-node assignment.

    Every unit's chosen variant contributes its members on the unit's
    node.  A component shared by several units must land on one node;
    conflicting placements are an error, as is a scheme that does not
    cover the model or was never solved to optimality.
    """
    if scheme.status != "optimal":
        raise UnfoldError(f"cannot unfold a scheme with status {scheme.status!r}")
    placements: Mapping[str, object] = scheme.placements
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
