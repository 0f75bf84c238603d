import itertools
import time
from fractions import Fraction

import pytest

from random_models import random_detailed

from mvalloc import compaction, model

from mvalloc.compaction import (
    CompactionError,
    HighLayerModel,
    MultiVariantUnit,
    UnfoldError,
    Variant,
    aggregate_variant,
    build_high_layer,
    compact,
    enumerate_alternatives,
    fold_difference,
    unfold,
)
from mvalloc.model import (
    Assembly,
    Component,
    Kind,
    Repository,
    ResourceDemand,
    SystemArchitecture,
    UnitSpec,
    UnknownIdError,
    chain_count,
)
from mvalloc.solver import AllocationScheme, Placement


def comp(cid, kind=Kind.CPU, function=None, mem=1, cpu=1, gpu=0, exec_ms=1):
    return Component(
        id=cid,
        kind=kind,
        function=function or cid,
        demand=ResourceDemand(
            mem=Fraction(mem), cpu=Fraction(cpu), gpu_threads=gpu, exec_ms=Fraction(exec_ms)
        ),
    )


def dual_repo():
    """Three functions, each with a CPU and a GPU version."""
    components = []
    groups = {}
    for i, threads in enumerate((128, 256, 512)):
        f = f"f{i}"
        components.append(comp(f"{f}c", function=f, mem=2, cpu=2, exec_ms=10))
        components.append(
            comp(f"{f}g", kind=Kind.GPU, function=f, mem=3, cpu=1, gpu=threads, exec_ms=4)
        )
        groups[f] = [f"{f}c", f"{f}g"]
    return Repository(components=components, version_groups=groups)


def test_aggregate_variant_sums_and_takes_gpu_peak():
    repo = dual_repo()
    props = aggregate_variant(["f0c", "f1g", "f2g"], repo)
    assert props == ResourceDemand(Fraction(8), Fraction(4), 512, Fraction(18))


def test_aggregate_variant_exact_fractions():
    repo = Repository(
        components=[
            Component(
                "a",
                Kind.CPU,
                "f",
                ResourceDemand(Fraction(1, 3), Fraction(1, 7), 0, Fraction(1, 3)),
            ),
            Component(
                "b",
                Kind.CPU,
                "g",
                ResourceDemand(Fraction(1, 6), Fraction(2, 7), 0, Fraction(2, 3)),
            ),
        ]
    )
    props = aggregate_variant(["a", "b"], repo)
    assert props.mem == Fraction(1, 2)
    assert props.cpu == Fraction(3, 7)
    assert props.exec_ms == Fraction(1)


def test_all_combinations_order_varies_last_function_fastest():
    repo = dual_repo()
    alts = enumerate_alternatives(UnitSpec("U", "all_combinations", ["f0", "f1"]), repo)
    assert alts == [
        ["f0c", "f1c"],
        ["f0c", "f1g"],
        ["f0g", "f1c"],
        ["f0g", "f1g"],
    ]


def test_contiguous_gpu_segment_drops_split_runs():
    repo = dual_repo()
    alts = enumerate_alternatives(
        UnitSpec("U", "contiguous_gpu_segment", ["f0", "f1", "f2"]), repo
    )
    combos = [tuple("g" if cid.endswith("g") else "c" for cid in chain) for chain in alts]
    assert ("g", "c", "g") not in combos
    assert len(combos) == 7
    assert ("c", "c", "c") in combos
    assert ("g", "g", "g") in combos
    assert ("c", "g", "c") in combos

    # the full product filtered, in product order: "a" lists a GPU
    # version between two CPU ones, "b" has only a GPU version
    extra = [
        comp("a1", function="a"),
        comp("ag", kind=Kind.GPU, function="a", gpu=64),
        comp("a2", function="a"),
        comp("bg", kind=Kind.GPU, function="b", gpu=64),
    ]
    repo = Repository(
        components=repo.components + extra,
        version_groups={**repo.version_groups, "a": ["a1", "ag", "a2"]},
    )
    topology = ["f0", "a", "f1", "b", "f2"]

    def contiguous(chain):
        gpu = [i for i, cid in enumerate(chain) if repo.component(cid).kind is Kind.GPU]
        return not gpu or gpu[-1] - gpu[0] + 1 == len(gpu)

    product = itertools.product(*(repo.versions_of(f) for f in topology))
    expected = [list(chain) for chain in product if contiguous(chain)]
    alts = enumerate_alternatives(UnitSpec("U", "contiguous_gpu_segment", topology), repo)
    assert alts == expected
    assert len(expected) == 12


def test_declared_policy_checks_the_topology():
    repo = dual_repo()
    good = Assembly(components=["f0c", "f1c"])
    declared = UnitSpec("U", "declared", ["f0", "f1"], [good])
    assert enumerate_alternatives(declared, repo) == [["f0c", "f1c"]]
    bad = Assembly(components=["f0c", "f0g"])
    with pytest.raises(CompactionError, match="does not realize"):
        enumerate_alternatives(UnitSpec("U", "declared", ["f0", "f1"], [good, bad]), repo)
    with pytest.raises(CompactionError, match="no alternatives"):
        enumerate_alternatives(UnitSpec("U", "declared", ["f0"], []), repo)


def test_enumerate_unknown_function():
    with pytest.raises(CompactionError, match="nosuch"):
        enumerate_alternatives(UnitSpec("U", "all_combinations", ["nosuch"]), dual_repo())


def test_enumerate_unknown_policy():
    with pytest.raises(CompactionError, match="unknown enumeration policy 'greedy'"):
        enumerate_alternatives(UnitSpec("U", "greedy", ["f0"]), dual_repo())


@pytest.mark.parametrize("topology", [None, []])
@pytest.mark.parametrize("policy", ["all_combinations", "contiguous_gpu_segment"])
def test_generated_policy_without_a_topology_is_refused(policy, topology):
    # not one empty, zero-demand variant
    spec = UnitSpec("X", policy, topology)
    with pytest.raises(CompactionError, match=f"unit 'X': {policy} policy with no topology"):
        enumerate_alternatives(spec, dual_repo())
    with pytest.raises(CompactionError, match="no topology"):
        build_high_layer(SystemArchitecture(units=[spec]), dual_repo())


def test_compact_without_alternatives_is_refused():
    with pytest.raises(CompactionError, match="unit 'U' has no alternatives"):
        compact("U", [], dual_repo())


def test_compact_builds_indexed_variants():
    repo = dual_repo()
    alts = enumerate_alternatives(UnitSpec("U", "all_combinations", ["f0", "f1"]), repo)
    unit = compact("U", alts, repo)
    assert unit.id == "U"
    assert len(unit.variants) == 4
    assert unit.variants[0].members == ["f0c", "f1c"]
    assert unit.variants[3].props.gpu_threads == 256


def test_declared_without_topology_realizes_the_first_alternative():
    repo = dual_repo()
    same = [Assembly(components=["f0c", "f1g"]), Assembly(components=["f1c", "f0g"])]
    assert enumerate_alternatives(UnitSpec("U", "declared", None, same), repo) == [
        ["f0c", "f1g"],
        ["f1c", "f0g"],
    ]
    mixed = [Assembly(components=["f0c"]), Assembly(components=["f1c"])]
    with pytest.raises(CompactionError, match="alternative \\['f1c'\\] does not realize"):
        enumerate_alternatives(UnitSpec("U", "declared", None, mixed), repo)


def test_declared_unknown_member_raises_before_the_function_check():
    # a later alternative that does not realize the functions must not
    # hide the unknown id of an earlier one
    repo = dual_repo()
    alts = [Assembly(components=[cid]) for cid in ("f0c", "ghost", "f1c")]
    with pytest.raises(UnknownIdError, match="ghost"):
        enumerate_alternatives(UnitSpec("U", "declared", None, alts), repo)


def test_generated_policy_rejects_a_version_of_another_function():
    # a one-member group realizes the same wrong function in every
    # chain, so comparing chains with each other cannot catch it
    repo = dual_repo()
    repo = Repository(
        components=repo.components, version_groups={**repo.version_groups, "f1": ["f2c"]}
    )
    for policy in ("all_combinations", "contiguous_gpu_segment"):
        with pytest.raises(CompactionError, match="version 'f2c' of 'f1' realizes 'f2'"):
            enumerate_alternatives(UnitSpec("U", policy, ["f0", "f1"]), repo)


def test_build_high_layer_on_the_robot(robot):
    repo, _, architecture = robot
    model = build_high_layer(architecture, repo)
    assert [u.id for u in model.units] == [spec.id for spec in architecture.units] + list(
        architecture.singletons
    )
    by_id = {u.id: u for u in model.units}
    assert len(by_id["FrontVision"].variants) == 6
    assert len(by_id["BottomVision"].variants) == 5
    assert sum(len(u.variants) == 1 for u in model.units) == 5
    front = by_id["FrontVision"].variants[0].props
    assert (front.mem, front.cpu, front.gpu_threads, front.exec_ms) == (
        Fraction(6),
        Fraction(3, 5),
        0,
        Fraction(22),
    )
    for cid in architecture.singletons:
        [variant] = by_id[cid].variants
        assert variant.members == [cid]
        assert variant.props is repo.component(cid).demand


def _toy_model():
    unit_a = MultiVariantUnit(
        id="A",
        variants=[
            Variant(["shared", "a0"], ResourceDemand(Fraction(1), Fraction(1), 0, Fraction(1))),
        ],
    )
    unit_b = MultiVariantUnit(
        id="B",
        variants=[
            Variant(["shared", "b0"], ResourceDemand(Fraction(1), Fraction(1), 0, Fraction(1))),
        ],
    )
    return HighLayerModel(units=[unit_a, unit_b])


def scheme(placements, status="optimal"):
    objective = Fraction(2) if status == "optimal" else None
    return AllocationScheme(status=status, objective_ms=objective, placements=placements)


def test_unfold_requires_an_optimal_scheme():
    with pytest.raises(UnfoldError, match="status"):
        unfold(scheme({}, status="infeasible"), _toy_model())


def test_unfold_requires_exact_cover():
    model = _toy_model()
    with pytest.raises(UnfoldError, match="places no unit"):
        unfold(scheme({"A": Placement(0, "n")}), model)
    full = {
        "A": Placement(0, "n"),
        "B": Placement(0, "n"),
        "X": Placement(0, "n"),
    }
    with pytest.raises(UnfoldError, match="unknown units"):
        unfold(scheme(full), model)


def test_unfold_rejects_bad_variant_index():
    model = _toy_model()
    placements = {"A": Placement(4, "n"), "B": Placement(0, "n")}
    with pytest.raises(UnfoldError, match="no variant 4"):
        unfold(scheme(placements), model)


def test_unfold_shared_member_must_agree_on_the_node():
    model = _toy_model()
    apart = {"A": Placement(0, "n1"), "B": Placement(0, "n2")}
    with pytest.raises(UnfoldError, match="shared"):
        unfold(scheme(apart), model)
    together = {"A": Placement(0, "n1"), "B": Placement(0, "n1")}
    assignment = unfold(scheme(together), model)
    assert assignment == {"shared": "n1", "a0": "n1", "b0": "n1"}


def _coprime_model():
    """One unit whose members' mem, cpu and exec_ms have pairwise-coprime
    denominators, so no two members share a common denominator."""
    values = [
        (Fraction(1, 3), Fraction(1, 7), Fraction(1, 4), 0),
        (Fraction(2, 11), Fraction(3, 13), Fraction(1, 9), 64),
        (Fraction(5, 17), Fraction(1, 19), Fraction(7, 5), 256),
        (Fraction(-1, 23), Fraction(4, 29), Fraction(2, 31), 128),
    ]
    components = [
        Component(f"m{i}", Kind.GPU if gpu else Kind.CPU, f"f{i % 2}", ResourceDemand(m, c, gpu, e))
        for i, (m, c, e, gpu) in enumerate(values)
    ]
    repo = Repository(components, version_groups={"f0": ["m0", "m2"], "f1": ["m1", "m3"]})
    declared = [Assembly(components=["m0", "m1"]), Assembly(components=["m3", "m2"])]
    arch = SystemArchitecture(
        units=[
            UnitSpec("Chain", "all_combinations", ["f0", "f1"]),
            UnitSpec("Picked", "declared", None, declared),
        ]
    )
    return repo, arch


def _fold_cases(robot):
    yield "robot", robot[0], robot[2]
    yield "coprime", *_coprime_model()
    for seed in range(200):
        repo, _, arch = random_detailed(seed)
        yield f"seed {seed}", repo, arch


def test_the_fold_is_the_members_demands_added_one_by_one(robot):
    # the oracle shares no code with compaction: Fractions added in order
    for name, repo, arch in _fold_cases(robot):
        for unit in build_high_layer(arch, repo).units:
            for index, variant in enumerate(unit.variants):
                demands = [repo.component(cid).demand for cid in variant.members]
                expected = ResourceDemand(
                    mem=sum((d.mem for d in demands), Fraction(0)),
                    cpu=sum((d.cpu for d in demands), Fraction(0)),
                    gpu_threads=max((d.gpu_threads for d in demands), default=0),
                    exec_ms=sum((d.exec_ms for d in demands), Fraction(0)),
                )
                where = f"{name}, unit {unit.id} variant {index}"
                assert variant.props == expected, where
                assert aggregate_variant(variant.members, repo) == variant.props, where


def _long_chain_repo(length, cpu_versions=1):
    """`length` functions, each with `cpu_versions` CPU versions and one
    GPU version, listed CPU first."""
    components, groups = [], {}
    for i in range(length):
        f = f"f{i}"
        cpus = [comp(f"{f}c{k}", function=f) for k in range(cpu_versions)]
        components += cpus + [comp(f"{f}g", kind=Kind.GPU, function=f, gpu=64)]
        groups[f] = [c.id for c in cpus] + [f"{f}g"]
    return Repository(components=components, version_groups=groups)


@pytest.mark.parametrize("policy", ["all_combinations", "contiguous_gpu_segment"])
def test_chain_count_is_the_number_of_chains_built(policy):
    for length, cpu_versions in itertools.product(range(1, 6), range(0, 3)):
        repo = _long_chain_repo(length, cpu_versions)
        topology = [f"f{i}" for i in range(length)]
        version_lists = [repo.versions_of(f) for f in topology]
        chains = enumerate_alternatives(UnitSpec("U", policy, topology), repo)
        assert chain_count(policy, version_lists, repo) == len(chains), (length, cpu_versions)


@pytest.mark.parametrize(
    "policy, length, cpu_versions, count",
    [
        ("all_combinations", 40, 1, 2**40),
        # 3**12 chains without a GPU run, and (j + 1) * 3**j with a run of
        # 12 - j GPU versions, 3 CPU versions at each of the j other places
        ("contiguous_gpu_segment", 12, 3, 3**12 + sum((j + 1) * 3**j for j in range(12))),
    ],
)
def test_a_unit_past_the_cap_is_refused_before_any_chain_is_built(
    policy, length, cpu_versions, count
):
    repo = _long_chain_repo(length, cpu_versions)
    spec = UnitSpec("Long", policy, [f"f{i}" for i in range(length)])
    arch = SystemArchitecture(units=[spec])
    start = time.perf_counter()
    message = f"unit 'Long' has {count} variants, more than the cap of {model.MAX_VARIANTS}"
    with pytest.raises(CompactionError, match=message):
        enumerate_alternatives(spec, repo)
    with pytest.raises(CompactionError, match=message):
        build_high_layer(arch, repo)
    assert time.perf_counter() - start < 1
    [diag] = model.validate_architecture(arch, repo)
    assert (diag.rule, diag.subject) == ("too-many-variants", "Long")
    assert diag.message == f"{count} variants, more than the cap of {model.MAX_VARIANTS}"


def test_the_cap_admits_a_unit_at_it_and_refuses_one_past_it(monkeypatch):
    repo = dual_repo()
    monkeypatch.setattr(model, "MAX_VARIANTS", 4)
    monkeypatch.setattr(compaction, "MAX_VARIANTS", 4)
    spec = UnitSpec("U", "all_combinations", ["f0", "f1"])
    assert len(enumerate_alternatives(spec, repo)) == 4
    assert model.validate_architecture(SystemArchitecture(units=[spec]), repo) == []
    for spec in (
        UnitSpec("U", "all_combinations", ["f0", "f1", "f2"]),
        UnitSpec("U", "declared", None, [Assembly(components=["f0c"])] * 5),
    ):
        with pytest.raises(CompactionError, match="unit 'U' has (8|5) variants, more than the cap of 4"):
            enumerate_alternatives(spec, repo)
        [diag] = model.validate_architecture(SystemArchitecture(units=[spec]), repo)
        assert diag.rule == "too-many-variants"


def test_fold_difference_names_the_unit_variant_and_field(robot):
    repo, _, architecture = robot
    fold = build_high_layer(architecture, repo)
    assert fold_difference(build_high_layer(architecture, repo), fold) is None

    def changed(edit):
        copy = build_high_layer(architecture, repo)
        edit(copy)
        return fold_difference(copy, fold)

    def set_mem(high):
        variant = high.units[0].variants[2]
        props = variant.props
        high.units[0].variants[2] = variant._replace(
            props=ResourceDemand(0, props.cpu, props.gpu_threads, props.exec_ms)
        )

    assert changed(set_mem) == "unit 'FrontVision' variant 2: mem 0, the fold's 6.5"
    assert changed(lambda high: high.units[1].variants.pop()) == (
        "unit 'BottomVision' variant 4: missing"
    )
    last = fold.units[-1].id
    assert changed(lambda high: high.units.pop()) == f"unit {last!r} variant 0: missing"
    assert changed(lambda high: high.units.append(high.units[0])) == (
        "unit 'FrontVision' variant 0: not in the fold"
    )
    assert changed(lambda high: high.connections.pop()).startswith("connections ")
