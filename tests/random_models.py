"""Seeded random instances for the property tests.

Everything is drawn from the package's own SplitMix64 stream, so a test
failure always prints a seed that reproduces the exact instance.  The
builders keep brute-force enumeration affordable by capping the raw
assignment count, not by shrinking the declared envelope: an instance may
still use the full unit, variant and node budgets when the product stays
small.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from mvalloc.bench import SplitMix64
from mvalloc.compaction import HighLayerModel, MultiVariantUnit, Variant
from mvalloc.model import (
    Assembly,
    Component,
    HardwareNode,
    Kind,
    Platform,
    Repository,
    ResourceDemand,
    SystemArchitecture,
    UnitSpec,
)
from mvalloc.solver import AllocationScheme, Placement

_DENOMINATORS = (1, 1, 2, 4, 5, 10)


def fraction(rng: SplitMix64, lo: int, hi: int, *, integral: bool = False) -> Fraction:
    """Uniform-ish rational in [lo, hi] with a small denominator."""
    den = 1 if integral else _DENOMINATORS[rng.draw(0, len(_DENOMINATORS) - 1)]
    return Fraction(rng.draw(lo * den, hi * den), den)


def _variant(rng: SplitMix64, unit_index: int, index: int, *, integral: bool) -> Variant:
    member_count = rng.draw(1, 3)
    members = [f"u{unit_index}m{index}p{j}" for j in range(member_count)]
    gpu = rng.draw(0, 2) == 0
    threads = rng.draw(64, 1024) if gpu else 0
    props = ResourceDemand(
        mem=fraction(rng, 1, 40, integral=integral),
        cpu=fraction(rng, 1, 10, integral=integral),
        gpu_threads=threads,
        exec_ms=fraction(rng, 1, 60, integral=integral),
    )
    if gpu:
        # a GPU member count was once drawn here; the draw stays so that
        # every seed keeps giving the same model
        rng.draw(1, member_count)
    return Variant(members=members, props=props)


def random_high_model(
    seed: int,
    *,
    max_units: int = 8,
    max_variants: int = 3,
    max_nodes: int = 4,
    product_cap: int = 200_000,
    integral: bool = False,
) -> tuple[HighLayerModel, Platform]:
    """A compacted model plus platform, sized for brute-force comparison."""
    rng = SplitMix64(seed)
    unit_count = rng.draw(2, max_units)
    node_count = rng.draw(2, max_nodes)
    for _ in range(64):
        variant_counts = [rng.draw(1, max_variants) for _ in range(unit_count)]
        product = 1
        for count in variant_counts:
            product *= count * node_count
        if product <= product_cap:
            break
    else:
        variant_counts = [1] * unit_count

    units = []
    for u, count in enumerate(variant_counts):
        units.append(
            MultiVariantUnit(
                id=f"u{u}",
                variants=[_variant(rng, u, v, integral=integral) for v in range(count)],
            )
        )
    if rng.draw(0, 1) == 1:
        comp_id = f"s{unit_count}"
        gpu = rng.draw(0, 3) == 0
        props = ResourceDemand(
            mem=fraction(rng, 1, 20, integral=integral),
            cpu=fraction(rng, 1, 6, integral=integral),
            gpu_threads=rng.draw(64, 512) if gpu else 0,
            exec_ms=fraction(rng, 1, 30, integral=integral),
        )
        units.append(
            MultiVariantUnit(id=comp_id, variants=[Variant(members=[comp_id], props=props)])
        )

    nodes = []
    for h in range(node_count):
        gpu = rng.draw(0, 1) == 1
        nodes.append(
            HardwareNode(
                id=f"h{h}",
                use_mem=fraction(rng, 30, 120, integral=integral),
                use_cpu=fraction(rng, 8, 40, integral=integral),
                use_gpu=rng.draw(512, 2048) if gpu else 0,
            )
        )
    connections = []
    all_ids = [u.id for u in units]
    if len(all_ids) >= 2 and rng.draw(0, 1) == 1:
        connections.append((all_ids[0], all_ids[1]))
    model = HighLayerModel(units=units, connections=connections)
    return model, Platform(nodes=nodes)


def tie_heavy_model(seed: int, **kwargs) -> tuple[HighLayerModel, Platform]:
    """`random_high_model(seed, integral=True, **kwargs)` with every node
    listed twice (each copy appended after the originals, with a `c`
    suffix) and every variant's exec_ms redrawn from 1 to 3: many optima
    of equal cost, which only the tie-break tells apart.  The costs come
    from a stream of their own, so the model's other values are those of
    the integral seed."""
    model, platform = random_high_model(seed, integral=True, **kwargs)
    rng = SplitMix64(seed ^ 0x5EED)
    units = [
        MultiVariantUnit(
            id=u.id,
            variants=[
                Variant(
                    members=v.members,
                    props=dataclasses.replace(v.props, exec_ms=Fraction(rng.draw(1, 3))),
                )
                for v in u.variants
            ],
        )
        for u in model.units
    ]
    copies = [dataclasses.replace(n, id=f"{n.id}c") for n in platform.nodes]
    return (
        HighLayerModel(units=units, connections=model.connections),
        Platform(nodes=platform.nodes + copies),
    )


def reversed_variants(model: HighLayerModel) -> HighLayerModel:
    """The model with every unit's variants listed backwards."""
    return HighLayerModel(
        units=[MultiVariantUnit(u.id, u.variants[::-1]) for u in model.units],
        connections=model.connections,
    )


def random_detailed(
    seed: int,
    *,
    max_chains: int = 3,
    max_len: int = 3,
) -> tuple[Repository, Platform, SystemArchitecture]:
    """A detailed model whose architecture compacts into a few units.

    Chains are component-disjoint; each function has a CPU version and,
    half the time, a GPU one.  The platform is sized generously enough
    that most instances are solvable, which is what the compaction
    round-trip properties need.
    """
    rng = SplitMix64(seed)
    components: list[Component] = []
    groups: dict[str, list[str]] = {}
    specs: list[UnitSpec] = []
    chain_count = rng.draw(1, max_chains)
    for t in range(chain_count):
        length = rng.draw(1, max_len)
        topology = []
        for p in range(length):
            function = f"s{t}f{p}"
            topology.append(function)
            cpu_id = f"{function}c"
            components.append(
                Component(
                    id=cpu_id,
                    kind=Kind.CPU,
                    function=function,
                    demand=ResourceDemand(
                        mem=fraction(rng, 1, 30),
                        cpu=fraction(rng, 1, 8),
                        gpu_threads=0,
                        exec_ms=fraction(rng, 2, 40),
                    ),
                )
            )
            versions = [cpu_id]
            if rng.draw(0, 1) == 1:
                gpu_id = f"{function}g"
                components.append(
                    Component(
                        id=gpu_id,
                        kind=Kind.GPU,
                        function=function,
                        demand=ResourceDemand(
                            mem=fraction(rng, 1, 30),
                            cpu=fraction(rng, 1, 8),
                            gpu_threads=rng.draw(32, 512),
                            exec_ms=fraction(rng, 1, 20),
                        ),
                    )
                )
                versions.append(gpu_id)
            groups[function] = versions
        policy = "all_combinations" if rng.draw(0, 1) == 0 else "contiguous_gpu_segment"
        specs.append(UnitSpec(id=f"unit{t}", policy=policy, topology=topology))

    singleton_ids = []
    for s in range(rng.draw(0, 3)):
        comp_id = f"alone{s}"
        components.append(
            Component(
                id=comp_id,
                kind=Kind.CPU,
                function=f"galone{s}",
                demand=ResourceDemand(
                    mem=fraction(rng, 1, 15),
                    cpu=fraction(rng, 1, 5),
                    gpu_threads=0,
                    exec_ms=fraction(rng, 1, 25),
                ),
            )
        )
        singleton_ids.append(comp_id)

    unit_ids = [spec.id for spec in specs] + singleton_ids
    connections = [(unit_ids[i], unit_ids[i + 1]) for i in range(len(unit_ids) - 1)]
    architecture = SystemArchitecture(
        units=specs, singletons=singleton_ids, connections=connections
    )

    nodes = []
    for h in range(rng.draw(2, 4)):
        gpu = h == 0 or rng.draw(0, 1) == 1
        nodes.append(
            HardwareNode(
                id=f"h{h}",
                use_mem=fraction(rng, 60, 200),
                use_cpu=fraction(rng, 15, 50),
                use_gpu=rng.draw(512, 2048) if gpu else 0,
            )
        )
    repo = Repository(components=components, version_groups=groups)
    return repo, Platform(nodes=nodes), architecture


def random_scheme(seed: int) -> AllocationScheme:
    """A syntactically arbitrary scheme for serialization tests."""
    rng = SplitMix64(seed)
    kind = rng.draw(0, 2)
    if kind == 1:
        return AllocationScheme(status="infeasible", objective_ms=None, placements={})
    placements = {
        f"u{i}": Placement(variant=rng.draw(0, 5), node=f"h{rng.draw(0, 3)}")
        for i in range(rng.draw(1, 6))
    }
    if kind == 2:
        return AllocationScheme(
            status="timeout", objective_ms=None, placements={}
        )
    objective = fraction(rng, 0, 90) + Fraction(rng.draw(0, 2), 3)
    return AllocationScheme(status="optimal", objective_ms=objective, placements=placements)


def self_named_unit_model() -> tuple[Repository, Platform, SystemArchitecture]:
    """A declared unit `Cam` whose only alternative is the component `Cam`,
    a generated unit `U`, and a singleton `B`; node h0 holds only one of
    `Cam` and `U`.  `Cam` looks like a singleton in the compacted file, so
    a reader that regrouped singletons would put `U` first and move `Cam`
    off h0 in the lexicographically first optimum."""

    def cpu(cid: str, function: str, mem: int, exec_ms: int) -> Component:
        return Component(
            id=cid,
            kind=Kind.CPU,
            function=function,
            demand=ResourceDemand(Fraction(mem), Fraction(1), 0, Fraction(exec_ms)),
        )

    repo = Repository(
        components=[
            cpu("Cam", "cam", 6, 5),
            cpu("ua", "f", 6, 5),
            cpu("ub", "f", 6, 9),
            cpu("B", "b", 1, 1),
        ],
        version_groups={"f": ["ua", "ub"]},
    )
    platform = Platform(
        nodes=[HardwareNode(h, Fraction(10), Fraction(4)) for h in ("h0", "h1")]
    )
    arch = SystemArchitecture(
        units=[
            UnitSpec("Cam", "declared", alternatives=[Assembly(components=["Cam"])]),
            UnitSpec("U", "all_combinations", topology=["f"]),
        ],
        singletons=["B"],
    )
    return repo, platform, arch
