import itertools
from fractions import Fraction

import pytest

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
    unfold,
)
from mvalloc.model import (
    Assembly,
    Component,
    Kind,
    Repository,
    ResourceDemand,
    UnitSpec,
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
