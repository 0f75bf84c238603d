"""Component repository, assemblies, and hardware platform.

The detailed layer of the model: software components with exact resource
demands, assemblies wiring them into pipe-and-filter graphs, and the
heterogeneous platform they are allocated to.  Constructors are
deliberately permissive; `validate_repository` and friends report every
invariant violation as a diagnostic instead of aborting on the first one,
so a malformed file yields a complete report.

Feasibility at this layer is boundary-inclusive and treats GPU threads as
a peak figure: components time-share a GPU, so a node must cover the
largest single demand among its residents, not their sum.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .rationals import exact_sum

__all__ = [
    "Kind",
    "ResourceDemand",
    "Component",
    "Repository",
    "Assembly",
    "HardwareNode",
    "Platform",
    "UnitSpec",
    "SystemArchitecture",
    "Diagnostic",
    "FeasibilityResult",
    "UnknownIdError",
    "validate_repository",
    "validate_platform",
    "validate_assembly",
    "validate_architecture",
    "unrealized_alternatives",
    "check_feasibility",
    "MAX_VARIANTS",
    "chain_count",
]

POLICIES = ("declared", "all_combinations", "contiguous_gpu_segment")
# the most variants one unit may have; compaction refuses a unit past it
# before building any (README "File formats")
MAX_VARIANTS = 100_000


class UnknownIdError(KeyError):
    """Raised when a component or node id is not part of the model."""


class Kind(str, enum.Enum):
    CPU = "CPU"
    GPU = "GPU"


class ResourceDemand(NamedTuple):
    """What one component consumes on the node it runs on.

    mem is in MB, cpu in load units relative to one reference core,
    gpu_threads a whole number of threads, exec_ms the execution time
    contributed to the system objective.  An immutable tuple, the
    cheapest record Python builds, so it also equals a plain tuple of
    its four values; `_replace` gives a changed copy.
    """

    mem: Fraction
    cpu: Fraction
    gpu_threads: int
    exec_ms: Fraction


class Component(NamedTuple):
    id: str
    kind: Kind
    function: str
    demand: ResourceDemand


def _index(items: list) -> dict:
    """Items by id; a duplicated id keeps its first declared item."""
    return {item.id: item for item in reversed(items)}


class _Record:
    """A record whose fields may be reassigned after construction, kept in
    slots; a tuple where nothing is reassigned costs less.  It equals a
    record of its own class with equal `_key()`, which is every field of
    `_fields` unless the class says otherwise; it is unhashable, and its
    repr names each field of `_fields` in order, as a dataclass's does."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None  # type: ignore[assignment]

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Repository(_Record):
    """All developed components plus the version groups that tie together
    alternative realizations of the same function.

    Ids are indexed at construction: build a new Repository rather than
    editing `components` in place.
    """

    __slots__ = ("components", "version_groups", "_by_id")
    _fields = ("components", "version_groups")

    def __init__(
        self, components: list[Component], version_groups: dict[str, list[str]] | None = None
    ) -> None:
        self.components = components
        self.version_groups = {} if version_groups is None else version_groups
        self._by_id = _index(components)

    def component(self, component_id: str) -> Component:
        found = self._by_id.get(component_id)
        if found is None:
            raise UnknownIdError(component_id)
        return found

    def has(self, component_id: str) -> bool:
        return component_id in self._by_id

    def versions_of(self, function: str) -> list[str]:
        """Component ids realizing `function`, explicit group first.

        A function never listed in version_groups falls back to the
        components declaring it, in repository order (a single ungrouped
        component is its own group of one).
        """
        if function in self.version_groups:
            return list(self.version_groups[function])
        return [c.id for c in self.components if c.function == function]


class Assembly(_Record):
    """A concrete pipe-and-filter graph over repository components."""

    __slots__ = _fields = ("components", "connections")

    def __init__(
        self, components: list[str], connections: list[tuple[str, str]] | None = None
    ) -> None:
        self.components = components
        self.connections = [] if connections is None else connections


class HardwareNode(NamedTuple):
    id: str
    use_mem: Fraction
    use_cpu: Fraction
    use_gpu: int = 0


class Platform(_Record):
    """Hardware nodes, indexed by id at construction like Repository."""

    __slots__ = ("nodes", "_by_id")
    _fields = ("nodes",)

    def __init__(self, nodes: list[HardwareNode]) -> None:
        self.nodes = nodes
        self._by_id = _index(nodes)

    def node(self, node_id: str) -> HardwareNode:
        found = self._by_id.get(node_id)
        if found is None:
            raise UnknownIdError(node_id)
        return found


class UnitSpec(NamedTuple):
    """How one subsystem's variant set is obtained.

    policy "declared" takes `alternatives` verbatim; the generated
    policies ("all_combinations", "contiguous_gpu_segment") derive the
    alternatives from `topology`, an ordered list of function names
    forming a processing chain.
    """

    id: str
    policy: str
    topology: list[str] | None = None
    alternatives: list[Assembly] | None = None


class SystemArchitecture(_Record):
    """The detailed architecture: subsystems to compact, standalone
    components, and the data flow between them."""

    __slots__ = _fields = ("units", "singletons", "connections")

    def __init__(
        self,
        units: list[UnitSpec],
        singletons: list[str] | None = None,
        connections: list[tuple[str, str]] | None = None,
    ) -> None:
        self.units = units
        self.singletons = [] if singletons is None else singletons
        self.connections = [] if connections is None else connections


class Diagnostic(NamedTuple):
    """One violated invariant.  `subject` is the offending id, when any."""

    rule: str
    subject: str | None
    message: str

    def __str__(self) -> str:
        if self.subject is None:
            return f"{self.rule}: {self.message}"
        return f"{self.rule} [{self.subject}]: {self.message}"


def _check_demand(diags: list[Diagnostic], comp: Component) -> None:
    # a rational's sign is its numerator's, read without Fraction.__lt__
    d = comp.demand
    if d.mem.numerator < 0:
        diags.append(Diagnostic("mem-negative", comp.id, f"mem is {d.mem}"))
    if d.cpu.numerator < 0:
        diags.append(Diagnostic("cpu-negative", comp.id, f"cpu is {d.cpu}"))
    if d.exec_ms.numerator < 0:
        diags.append(Diagnostic("exec-negative", comp.id, f"exec_ms is {d.exec_ms}"))
    if d.gpu_threads < 0:
        diags.append(
            Diagnostic("gpu-threads-negative", comp.id, f"gpu_threads is {d.gpu_threads}")
        )
    elif comp.kind is Kind.GPU and d.gpu_threads == 0:
        diags.append(
            Diagnostic("gpu-kind-threads", comp.id, "GPU component demands no threads")
        )
    elif comp.kind is Kind.CPU and d.gpu_threads > 0:
        diags.append(
            Diagnostic(
                "cpu-kind-threads",
                comp.id,
                f"CPU component demands {d.gpu_threads} GPU threads",
            )
        )


def validate_repository(repo: Repository) -> list[Diagnostic]:
    """Report every repository invariant violation; never raises."""
    diags: list[Diagnostic] = []
    seen: set[str] = set()
    for comp in repo.components:
        if comp.id in seen:
            diags.append(Diagnostic("duplicate-component-id", comp.id, "declared twice"))
        seen.add(comp.id)
        _check_demand(diags, comp)
    membership: dict[str, str] = {}
    for function, members in repo.version_groups.items():
        for member in members:
            if member not in seen:
                diags.append(
                    Diagnostic(
                        "group-unknown-component",
                        member,
                        f"group {function!r} lists a component that does not exist",
                    )
                )
                continue
            if member in membership:
                diags.append(
                    Diagnostic(
                        "group-duplicate-membership",
                        member,
                        f"already in group {membership[member]!r}",
                    )
                )
            membership[member] = function
            comp = repo.component(member)
            if comp.function != function:
                diags.append(
                    Diagnostic(
                        "group-function-mismatch",
                        member,
                        f"declares function {comp.function!r}, grouped under {function!r}",
                    )
                )
    return diags


def validate_platform(platform: Platform) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    if not platform.nodes:
        diags.append(Diagnostic("platform-empty", None, "no hardware nodes"))
    seen: set[str] = set()
    for node in platform.nodes:
        if node.id in seen:
            diags.append(Diagnostic("duplicate-node-id", node.id, "declared twice"))
        seen.add(node.id)
        if node.use_mem.numerator < 0:  # the sign, as in _check_demand
            diags.append(Diagnostic("node-mem-negative", node.id, f"use_mem is {node.use_mem}"))
        if node.use_cpu.numerator < 0:
            diags.append(Diagnostic("node-cpu-negative", node.id, f"use_cpu is {node.use_cpu}"))
        if node.use_gpu < 0:
            diags.append(Diagnostic("node-gpu-negative", node.id, f"use_gpu is {node.use_gpu}"))
    return diags


def validate_assembly(
    assembly: Assembly, repo: Repository, label: str | None = None
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    seen: set[str] = set()
    for cid in assembly.components:
        if not repo.has(cid):
            diags.append(
                Diagnostic("assembly-unknown-component", cid, "not in the repository")
            )
        if cid in seen:
            diags.append(Diagnostic("assembly-duplicate-component", cid, "listed twice"))
        seen.add(cid)
    _check_endpoints(
        diags, assembly.connections, seen, "connection endpoint is not an assembly member"
    )
    if _has_cycle(assembly.components, assembly.connections):
        diags.append(
            Diagnostic("assembly-cycle", label, "data-flow graph contains a cycle")
        )
    return diags


def _check_endpoints(
    diags: list[Diagnostic], connections: list[tuple[str, str]], known: set[str], message: str
) -> None:
    """Report each connection end not in `known`, source before destination."""
    for src, dst in connections:
        for endpoint in (src, dst):
            if endpoint not in known:
                diags.append(Diagnostic("connection-unknown-endpoint", endpoint, message))


def _has_cycle(nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> bool:
    """Kahn's algorithm (1962): release a node once every edge into it
    comes from a released node; a node never released lies on a cycle or
    downstream of one.  Only edges between listed nodes count."""
    successors: dict[str, list[str]] = {n: [] for n in nodes}
    indegree = dict.fromkeys(successors, 0)
    for src, dst in edges:
        if src in successors and dst in successors:
            successors[src].append(dst)
            indegree[dst] += 1
    released = [n for n, count in indegree.items() if count == 0]
    for node in released:  # grows as it is walked
        for nxt in successors[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                released.append(nxt)
    return len(released) < len(indegree)


class FeasibilityResult(NamedTuple):
    feasible: bool
    violations: list[tuple[str, str]]


def check_feasibility(
    assignment: Mapping[str, str], repo: Repository, platform: Platform
) -> FeasibilityResult:
    """Check a component-to-node assignment against node capacities.

    Memory and CPU load add up per node; GPU threads are checked as the
    maximum over the components placed there.  All comparisons are
    boundary-inclusive.  The assignment may be partial.  Unknown component
    or node ids raise UnknownIdError.
    """
    placed: dict[str, list[ResourceDemand]] = {node.id: [] for node in platform.nodes}
    for component_id, node_id in assignment.items():
        demand = repo.component(component_id).demand
        placed[platform.node(node_id).id].append(demand)
    violations: list[tuple[str, str]] = []
    for node in platform.nodes:
        demands = placed[node.id]
        if exact_sum([d.mem for d in demands]) > node.use_mem:
            violations.append((node.id, "mem"))
        if exact_sum([d.cpu for d in demands]) > node.use_cpu:
            violations.append((node.id, "cpu"))
        if max([0] + [d.gpu_threads for d in demands]) > node.use_gpu:
            violations.append((node.id, "gpu_threads"))
    return FeasibilityResult(feasible=not violations, violations=violations)


def unrealized_alternatives(spec: UnitSpec, repo: Repository) -> list[list[str]]:
    """The member lists of the declared alternatives of `spec` that do not
    realize the unit's functions, as multisets: its topology when it has
    one, otherwise the functions of its first alternative, of which it
    needs at least one.  Alternatives naming a component the repository
    lacks are skipped, and so is the whole check when the first one is
    the reference."""
    realized: list[list[str] | None] = []
    for alt in spec.alternatives:
        try:
            realized.append(sorted([repo.component(cid).function for cid in alt.components]))
        except UnknownIdError:
            realized.append(None)
    want = sorted(spec.topology) if spec.topology else realized[0]
    if want is None:
        return []
    return [
        list(alt.components)
        for alt, counts in zip(spec.alternatives, realized)
        if counts is not None and counts != want
    ]


def chain_count(policy: str, version_lists: list[list[str]], repo: Repository) -> int:
    """How many chains a generated policy draws from the version lists of
    its topology, counted without building any.  "all_combinations"
    draws the product of the list lengths.  "contiguous_gpu_segment"
    counts prefixes by the run states its walk keeps: no GPU version
    yet, a GPU run open, the run closed, after which no GPU version may
    follow.  A version the repository lacks counts as a CPU one."""
    if policy == "all_combinations":
        return math.prod(map(len, version_lists))
    none, running, closed = 1, 0, 0
    for versions in version_lists:
        gpu = sum(repo.has(cid) and repo.component(cid).kind is Kind.GPU for cid in versions)
        cpu = len(versions) - gpu
        none, running, closed = none * cpu, (none + running) * gpu, (running + closed) * cpu
    return none + running + closed


def validate_architecture(arch: SystemArchitecture, repo: Repository) -> list[Diagnostic]:
    """Check the architecture section against the repository."""
    diags: list[Diagnostic] = []
    seen: set[str] = set()
    for spec in arch.units:
        if spec.id in seen:
            diags.append(Diagnostic("duplicate-unit-id", spec.id, "declared twice"))
        seen.add(spec.id)
        if spec.policy not in POLICIES:
            diags.append(
                Diagnostic(
                    "unknown-policy",
                    spec.id,
                    f"{spec.policy!r} is not one of {', '.join(POLICIES)}",
                )
            )
        count = 0
        if spec.policy == "declared":
            count = len(spec.alternatives or ())
            if not spec.alternatives:
                diags.append(
                    Diagnostic("missing-alternatives", spec.id, "declared policy needs them")
                )
            else:
                for alt in spec.alternatives:
                    diags.extend(validate_assembly(alt, repo, label=spec.id))
                for members in unrealized_alternatives(spec, repo):
                    diags.append(
                        Diagnostic(
                            "alternative-functions-differ",
                            spec.id,
                            f"alternative {members} does not realize the unit's functions",
                        )
                    )
        elif spec.policy in POLICIES:
            if not spec.topology:
                diags.append(
                    Diagnostic("missing-topology", spec.id, "generated policy needs one")
                )
            else:
                version_lists = [repo.versions_of(function) for function in spec.topology]
                for function, versions in zip(spec.topology, version_lists):
                    if not versions:
                        diags.append(
                            Diagnostic(
                                "function-no-versions",
                                spec.id,
                                f"no component realizes {function!r}",
                            )
                        )
                count = chain_count(spec.policy, version_lists, repo)
        if count > MAX_VARIANTS:
            diags.append(
                Diagnostic(
                    "too-many-variants",
                    spec.id,
                    f"{count} variants, more than the cap of {MAX_VARIANTS}",
                )
            )
    for cid in arch.singletons:
        if cid in seen:
            diags.append(Diagnostic("duplicate-unit-id", cid, "declared twice"))
        seen.add(cid)
        if not repo.has(cid):
            diags.append(
                Diagnostic("singleton-unknown-component", cid, "not in the repository")
            )
    _check_endpoints(diags, arch.connections, seen, "data flow references an undeclared unit")
    return diags
