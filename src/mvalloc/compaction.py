"""Compacting alternative assemblies into multi-variant units.

A unit behaves as a regular component: each of its variants carries a
`ResourceDemand`, the member list's demands folded into one.  mem, cpu
and exec_ms are the exact sums of the members', with one exception: GPU
threads take the maximum over the members, because components inside
one unit run as a pipeline on the same accelerator and never need their
thread budgets at the same time.  A unit is folded in integers: per
resource one denominator, the lcm over every member its alternatives
draw on, each member's value turned into an integer over it once, and
each variant then a plain integer sum with one Fraction per column at
the end.  That is exactly the value of adding the members' Fractions
one by one, at one lcm per unit and resource where a per-variant sum
would take one per variant.  `aggregate_variant` is the fold of a
single alternative.  A standalone component is a one-variant unit
sharing the component's own demand.  Choosing a variant and a node for
every unit is what the solver does, and `unfold` maps a solved scheme
back onto individual components.

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
import math
from fractions import Fraction
from typing import NamedTuple

from .model import (
    MAX_VARIANTS,
    POLICIES,
    Kind,
    Repository,
    ResourceDemand,
    SystemArchitecture,
    UnitSpec,
    _Record,
    chain_count,
    unrealized_alternatives,
)
from .rationals import format_number

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
    "fold_difference",
    "repository_difference",
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


class Variant(NamedTuple):
    """One alternative of a unit: its member ids and their aggregated
    demand, which the solver reads like a single component's."""

    members: list[str]
    props: ResourceDemand


class MultiVariantUnit(NamedTuple):
    id: str
    variants: list[Variant]


class HighLayerModel(_Record):
    """The compacted layer handed to the solver: one ordered list of
    units (compacted subsystems first, then standalone components as
    one-variant units, each in declared order) and the connections
    between them."""

    __slots__ = _fields = ("units", "connections")

    def __init__(
        self, units: list[MultiVariantUnit], connections: list[tuple[str, str]] | None = None
    ) -> None:
        self.units = units
        self.connections = [] if connections is None else connections

    def all_units(self) -> list[MultiVariantUnit]:
        """The same list as `units`; kept because the benchmark tracer
        counts variants through it."""
        return self.units


class Placement(NamedTuple):
    variant: int
    node: str


class AllocationScheme(_Record):
    """A solved (or parsed) allocation: a status from STATUSES, the
    objective and the placement of every unit, keyed by unit id.  Two
    schemes are equal when these three are; `visited`, the search nodes
    a solve took, and `backend`, the kernel it ran on, do not count."""

    __slots__ = _fields = ("status", "objective_ms", "placements", "visited", "backend")

    def __init__(
        self,
        status: str,
        objective_ms: Fraction | None,
        placements: dict[str, Placement],
        visited: int = 0,
        backend: str = "",
    ) -> None:
        self.status = status
        self.objective_ms = objective_ms
        self.placements = placements
        self.visited = visited
        self.backend = backend

    def _key(self) -> tuple:
        return self.status, self.objective_ms, self.placements


def _fold(alternatives: list[list[str]], repo: Repository) -> list[ResourceDemand]:
    """Each alternative's members' demands folded into one, as the module
    docstring says: per resource one denominator over all the members
    the alternatives draw on, each member's value an integer over it
    once, and each alternative an integer sum."""
    # each distinct member once, in the order the alternatives name them,
    # so the first unknown member is the one reported
    distinct = dict.fromkeys(itertools.chain.from_iterable(alternatives))
    demands = {cid: repo.component(cid).demand for cid in distinct}
    mem_den = math.lcm(*{d.mem.denominator for d in demands.values()})
    cpu_den = math.lcm(*{d.cpu.denominator for d in demands.values()})
    exec_den = math.lcm(*{d.exec_ms.denominator for d in demands.values()})
    scaled = {
        cid: (
            d.mem.numerator * (mem_den // d.mem.denominator),
            d.cpu.numerator * (cpu_den // d.cpu.denominator),
            d.gpu_threads,
            d.exec_ms.numerator * (exec_den // d.exec_ms.denominator),
        )
        for cid, d in demands.items()
    }
    folded = []
    for members in alternatives:
        mem = cpu = gpu = exec_ms = 0
        for m, c, g, e in map(scaled.__getitem__, members):
            mem += m
            cpu += c
            exec_ms += e
            if g > gpu:
                gpu = g
        folded.append(
            ResourceDemand(
                Fraction(mem, mem_den), Fraction(cpu, cpu_den), gpu, Fraction(exec_ms, exec_den)
            )
        )
    return folded


def aggregate_variant(members: list[str], repo: Repository) -> ResourceDemand:
    """Fold the members' demands into one, as the module docstring says."""
    return _fold([members], repo)[0]


def _refuse_past_cap(spec: UnitSpec, count: int) -> None:
    if count > MAX_VARIANTS:
        raise CompactionError(
            f"unit {spec.id!r} has {count} variants, more than the cap of {MAX_VARIANTS}"
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
    drops.  A unit with more than MAX_VARIANTS alternatives, counted
    before any chain is built (`model.chain_count`), raises
    CompactionError.
    """
    if spec.policy not in POLICIES:
        raise CompactionError(f"unknown enumeration policy {spec.policy!r}")
    if spec.policy == "declared":
        if not spec.alternatives:
            raise CompactionError("declared policy with no alternatives")
        _refuse_past_cap(spec, len(spec.alternatives))
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
    _refuse_past_cap(spec, chain_count(spec.policy, version_lists, repo))
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
    variants = list(map(Variant, alternatives, _fold(alternatives, repo)))
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


def fold_difference(model: HighLayerModel, fold: HighLayerModel) -> str | None:
    """The first place, in unit and then variant order, where `model`
    differs from `fold` (the architecture's own `build_high_layer`), as
    "unit U variant V: what differs"; None when the two are equal.  A unit
    missing, extra or out of place is reported at its variant 0."""
    for unit, want in itertools.zip_longest(model.units, fold.units):
        if unit is None or want is None or unit.id != want.id:
            if want is None:
                return f"unit {unit.id!r} variant 0: not in the fold"
            found = "missing" if unit is None else f"found unit {unit.id!r} in its place"
            return f"unit {want.id!r} variant 0: {found}"
        pairs = itertools.zip_longest(unit.variants, want.variants)
        for index, (got, expected) in enumerate(pairs):
            where = f"unit {unit.id!r} variant {index}"
            if got is None or expected is None:
                return f"{where}: {'missing' if got is None else 'not in the fold'}"
            if got.members != expected.members:
                return f"{where}: members {got.members}, the fold's {expected.members}"
            difference = _props_difference(where, got.props, expected.props)
            if difference is not None:
                return difference
    if model.connections != fold.connections:
        return f"connections {model.connections}, the fold's {fold.connections}"
    return None


def _props_difference(where: str, props: ResourceDemand, folded: ResourceDemand) -> str | None:
    for name, value, want in zip(ResourceDemand._fields, props, folded):
        if value != want:
            return f"{where}: {name} {format_number(value)}, the fold's {format_number(want)}"
    return None


def repository_difference(model: HighLayerModel, repo: Repository) -> str | None:
    """The first variant, in unit and then variant order, that `repo`
    disproves, in `fold_difference`'s wording; None when there is none.
    A variant is disproved by a member the repository lacks, by an
    aggregate other than its members' fold, or by functions, as a
    multiset, other than those of its unit's variant 0.  This is what a
    compacted file can be checked against when the model has no
    architecture to fold."""
    for unit in model.units:
        for index, variant in enumerate(unit.variants):
            where = f"unit {unit.id!r} variant {index}"
            for member in variant.members:
                if not repo.has(member):
                    return f"{where}: member {member!r} is not in the repository"
            folded = aggregate_variant(variant.members, repo)
            difference = _props_difference(where, variant.props, folded)
            if difference is not None:
                return difference
            functions = sorted(repo.component(cid).function for cid in variant.members)
            if index == 0:
                first = functions
            elif functions != first:
                return f"{where}: functions {functions}, variant 0's {first}"
    return None


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
