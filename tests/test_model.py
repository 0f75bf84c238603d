import graphlib
import random
from fractions import Fraction

import pytest

from mvalloc import solver
from mvalloc.compaction import (
    AllocationScheme,
    HighLayerModel,
    MultiVariantUnit,
    Placement,
    Variant,
)
from mvalloc.model import (
    Assembly,
    Component,
    Diagnostic,
    FeasibilityResult,
    HardwareNode,
    Kind,
    Platform,
    Repository,
    ResourceDemand,
    SystemArchitecture,
    UnitSpec,
    UnknownIdError,
    _has_cycle,
    check_feasibility,
    validate_architecture,
    validate_assembly,
    validate_platform,
    validate_repository,
)


def comp(cid, kind=Kind.CPU, function=None, mem=1, cpu=1, gpu=0, exec_ms=1):
    return Component(
        id=cid,
        kind=kind,
        function=function or cid,
        demand=ResourceDemand(
            mem=Fraction(mem), cpu=Fraction(cpu), gpu_threads=gpu, exec_ms=Fraction(exec_ms)
        ),
    )


def rules(diags):
    return sorted(d.rule for d in diags)


def test_valid_repository_has_no_diagnostics():
    repo = Repository(
        components=[comp("a"), comp("b", kind=Kind.GPU, gpu=128)],
        version_groups={},
    )
    assert validate_repository(repo) == []


def test_duplicate_component_id():
    repo = Repository(components=[comp("a"), comp("a")])
    assert "duplicate-component-id" in rules(validate_repository(repo))


def test_duplicate_ids_resolve_to_the_first_declared():
    first, second = comp("a", mem=1), comp("a", mem=2)
    repo = Repository(components=[first, second])
    assert repo.component("a") is first
    assert repo.has("a") and not repo.has("b")
    with pytest.raises(UnknownIdError):
        repo.component("b")
    n1 = HardwareNode("n", Fraction(1), Fraction(1))
    platform = Platform(nodes=[n1, HardwareNode("n", Fraction(2), Fraction(2))])
    assert platform.node("n") is n1
    with pytest.raises(UnknownIdError):
        platform.node("m")


def test_negative_demands_each_get_a_diagnostic():
    repo = Repository(
        components=[comp("a", mem=-1, cpu=-2, gpu=-4, exec_ms=-3)],
    )
    found = rules(validate_repository(repo))
    assert found == ["cpu-negative", "exec-negative", "gpu-threads-negative", "mem-negative"]


def test_gpu_component_without_threads():
    repo = Repository(components=[comp("a", kind=Kind.GPU, gpu=0)])
    assert rules(validate_repository(repo)) == ["gpu-kind-threads"]


def test_cpu_component_with_threads():
    repo = Repository(components=[comp("a", kind=Kind.CPU, gpu=5)])
    assert rules(validate_repository(repo)) == ["cpu-kind-threads"]


def test_version_group_rules():
    repo = Repository(
        components=[comp("a", function="f"), comp("b", function="other")],
        version_groups={"f": ["a", "b", "ghost"]},
    )
    found = rules(validate_repository(repo))
    assert "group-unknown-component" in found
    assert "group-function-mismatch" in found


def test_group_duplicate_membership():
    repo = Repository(
        components=[comp("a", function="f"), comp("b", function="g")],
        version_groups={"f": ["a"], "g": ["a", "b"]},
    )
    found = rules(validate_repository(repo))
    assert "group-duplicate-membership" in found
    assert "group-function-mismatch" in found


def test_versions_of_prefers_group_order():
    repo = Repository(
        components=[comp("b", function="f"), comp("a", function="f")],
        version_groups={"f": ["a", "b"]},
    )
    assert repo.versions_of("f") == ["a", "b"]


def test_versions_of_falls_back_to_declaration_order():
    repo = Repository(components=[comp("b", function="f"), comp("a", function="f")])
    assert repo.versions_of("f") == ["b", "a"]
    assert repo.versions_of("missing") == []


def test_validate_platform():
    (empty,) = validate_platform(Platform(nodes=[]))
    assert str(empty) == "platform-empty: no hardware nodes"
    platform = Platform(
        nodes=[
            HardwareNode("n", Fraction(-1), Fraction(1)),
            HardwareNode("n", Fraction(1), Fraction(-1), use_gpu=-2),
        ]
    )
    assert rules(validate_platform(platform)) == [
        "duplicate-node-id",
        "node-cpu-negative",
        "node-gpu-negative",
        "node-mem-negative",
    ]


def test_validate_assembly_unknown_and_duplicates():
    repo = Repository(components=[comp("a")])
    assembly = Assembly(components=["a", "a", "x"], connections=[("a", "y")])
    found = rules(validate_assembly(assembly, repo))
    assert "assembly-unknown-component" in found
    assert "assembly-duplicate-component" in found
    assert "connection-unknown-endpoint" in found


@pytest.mark.parametrize(
    "edges",
    [
        [("a", "a")],
        [("a", "b"), ("b", "a")],
        [("a", "b"), ("b", "c"), ("c", "a")],
    ],
)
def test_validate_assembly_detects_cycles(edges):
    repo = Repository(components=[comp("a"), comp("b"), comp("c")])
    assembly = Assembly(components=["a", "b", "c"], connections=edges)
    assert "assembly-cycle" in rules(validate_assembly(assembly, repo))


def test_validate_assembly_accepts_dag():
    repo = Repository(components=[comp("a"), comp("b"), comp("c")])
    assembly = Assembly(
        components=["a", "b", "c"], connections=[("a", "b"), ("a", "c"), ("b", "c")]
    )
    assert validate_assembly(assembly, repo) == []


def _cycle_by_graphlib(nodes, edges):
    listed = set(nodes)
    sorter = graphlib.TopologicalSorter({n: () for n in listed})
    for src, dst in edges:
        if src in listed and dst in listed:
            sorter.add(dst, src)
    try:
        sorter.prepare()
    except graphlib.CycleError:
        return True
    return False


def test_has_cycle_matches_a_topological_sort():
    # edges may be self loops, repeat, or name nodes missing from the
    # list (ignored); the list itself may repeat a node
    rng = random.Random(30)
    names = "abcdefg"
    cycles = 0
    for _ in range(20_000):
        nodes = rng.choices(names[:5], k=rng.randint(0, 6))
        edges = [tuple(rng.choices(names, k=2)) for _ in range(rng.randint(0, 8))]
        expected = _cycle_by_graphlib(nodes, edges)
        assert _has_cycle(nodes, edges) == expected, (nodes, edges)
        cycles += expected
    assert 2_000 < cycles < 18_000


def test_validate_architecture():
    repo = Repository(components=[comp("a", function="f")])
    arch = SystemArchitecture(
        units=[
            UnitSpec(id="u", policy="bogus"),
            UnitSpec(id="u", policy="declared"),
            UnitSpec(id="w", policy="all_combinations"),
            UnitSpec(id="v", policy="all_combinations", topology=["f", "nosuch"]),
        ],
        singletons=["ghost", "w", "ghost"],
        connections=[("u", "nobody")],
    )
    diags = validate_architecture(arch, repo)
    found = rules(diags)
    # a repeated unit, a singleton repeating a unit and a repeated singleton
    assert [d.subject for d in diags if d.rule == "duplicate-unit-id"] == ["u", "w", "ghost"]
    assert "unknown-policy" in found
    assert "missing-alternatives" in found
    assert "missing-topology" in found
    assert "function-no-versions" in found
    assert "singleton-unknown-component" in found
    assert "connection-unknown-endpoint" in found


def test_validate_architecture_checks_declared_alternatives_realize_one_function_set():
    repo = Repository(
        components=[comp("a", function="f"), comp("a2", function="f"), comp("b", function="g")]
    )

    def diagnose(*alternatives, topology=None):
        spec = UnitSpec("U", "declared", topology, [Assembly(list(m)) for m in alternatives])
        return validate_architecture(SystemArchitecture(units=[spec]), repo)

    assert diagnose(["a"], ["a2"]) == []
    differ = diagnose(["a"], ["ghost"], ["b"])
    assert rules(differ) == ["alternative-functions-differ", "assembly-unknown-component"]
    assert "alternative ['b'] does not" in str(differ[-1])
    # an unknown first alternative leaves nothing to compare with
    assert rules(diagnose(["ghost"], ["a"], ["b"])) == ["assembly-unknown-component"]
    assert rules(diagnose(["a"], ["a2"], topology=["g"])) == ["alternative-functions-differ"] * 2


def test_every_validator_branch_reports_in_a_fixed_order():
    repo = Repository(
        components=[
            comp("a", function="f"),
            comp("a", function="f"),
            comp("neg", mem=-1, cpu=-2, exec_ms=-3, gpu=-4),
            comp("g0", kind=Kind.GPU, function="f"),
            comp("c5", gpu=5, function="g"),
            comp("b", function="g"),
        ],
        version_groups={"f": ["a", "ghost", "g0"], "g": ["a", "b"]},
    )
    platform = Platform(
        nodes=[
            HardwareNode("n", Fraction(-1), Fraction(-2), use_gpu=-3),
            HardwareNode("n", Fraction(1), Fraction(1)),
        ]
    )
    connections = [("a", "y"), ("z", "b"), ("b", "a"), ("y", "z"), ("a", "b")]
    arch = SystemArchitecture(
        units=[
            UnitSpec("u", "bogus"),
            UnitSpec("u", "declared"),
            UnitSpec(
                "d",
                "declared",
                ["f", "g"],
                [Assembly(["a", "x", "a", "b"], connections), Assembly(["b"])],
            ),
            UnitSpec("t", "all_combinations"),
            UnitSpec("v", "contiguous_gpu_segment", ["f", "nosuch"]),
        ],
        singletons=["ghost", "t", "b"],
        connections=[("u", "nobody"), ("missing", "b"), ("d", "v"), ("p", "q")],
    )
    diags = (
        validate_repository(repo)
        + validate_platform(platform)
        + validate_platform(Platform(nodes=[]))
        + validate_architecture(arch, repo)
    )
    member = "connection endpoint is not an assembly member"
    undeclared = "data flow references an undeclared unit"
    assert [str(d) for d in diags] == [
        "duplicate-component-id [a]: declared twice",
        "mem-negative [neg]: mem is -1",
        "cpu-negative [neg]: cpu is -2",
        "exec-negative [neg]: exec_ms is -3",
        "gpu-threads-negative [neg]: gpu_threads is -4",
        "gpu-kind-threads [g0]: GPU component demands no threads",
        "cpu-kind-threads [c5]: CPU component demands 5 GPU threads",
        "group-unknown-component [ghost]: group 'f' lists a component that does not exist",
        "group-duplicate-membership [a]: already in group 'f'",
        "group-function-mismatch [a]: declares function 'f', grouped under 'g'",
        "node-mem-negative [n]: use_mem is -1",
        "node-cpu-negative [n]: use_cpu is -2",
        "node-gpu-negative [n]: use_gpu is -3",
        "duplicate-node-id [n]: declared twice",
        "platform-empty: no hardware nodes",
        "unknown-policy [u]: 'bogus' is not one of declared, all_combinations,"
        " contiguous_gpu_segment",
        "duplicate-unit-id [u]: declared twice",
        "missing-alternatives [u]: declared policy needs them",
        "assembly-unknown-component [x]: not in the repository",
        "assembly-duplicate-component [a]: listed twice",
        f"connection-unknown-endpoint [y]: {member}",
        f"connection-unknown-endpoint [z]: {member}",
        f"connection-unknown-endpoint [y]: {member}",
        f"connection-unknown-endpoint [z]: {member}",
        "assembly-cycle [d]: data-flow graph contains a cycle",
        "alternative-functions-differ [d]: alternative ['b'] does not realize the unit's"
        " functions",
        "missing-topology [t]: generated policy needs one",
        "function-no-versions [v]: no component realizes 'nosuch'",
        "singleton-unknown-component [ghost]: not in the repository",
        "duplicate-unit-id [t]: declared twice",
        "singleton-unknown-component [t]: not in the repository",
        f"connection-unknown-endpoint [nobody]: {undeclared}",
        f"connection-unknown-endpoint [missing]: {undeclared}",
        f"connection-unknown-endpoint [p]: {undeclared}",
        f"connection-unknown-endpoint [q]: {undeclared}",
    ]


def _two_node_platform():
    return Platform(
        nodes=[
            HardwareNode("n1", Fraction(10), Fraction(10), use_gpu=700),
            HardwareNode("n2", Fraction(10), Fraction(10)),
        ]
    )


def test_feasibility_gpu_threads_take_the_peak_not_the_sum():
    repo = Repository(
        components=[
            comp("g1", kind=Kind.GPU, gpu=600),
            comp("g2", kind=Kind.GPU, gpu=700),
        ]
    )
    result = check_feasibility({"g1": "n1", "g2": "n1"}, repo, _two_node_platform())
    assert result.feasible


def test_feasibility_memory_and_cpu_add_up():
    repo = Repository(components=[comp("a", mem=6, cpu=3), comp("b", mem=5, cpu=3)])
    result = check_feasibility({"a": "n1", "b": "n1"}, repo, _two_node_platform())
    assert not result.feasible
    assert result.violations == [("n1", "mem")]


def test_feasibility_is_boundary_inclusive():
    repo = Repository(components=[comp("a", mem=10, cpu=10)])
    result = check_feasibility({"a": "n2"}, repo, _two_node_platform())
    assert result.feasible


def test_feasibility_gpu_on_plain_node_is_a_violation():
    repo = Repository(components=[comp("g", kind=Kind.GPU, gpu=1)])
    result = check_feasibility({"g": "n2"}, repo, _two_node_platform())
    assert result.violations == [("n2", "gpu_threads")]


def test_feasibility_partial_assignment_is_fine():
    repo = Repository(components=[comp("a"), comp("b")])
    assert check_feasibility({"a": "n1"}, repo, _two_node_platform()).feasible


def test_feasibility_unknown_ids_raise():
    repo = Repository(components=[comp("a")])
    with pytest.raises(UnknownIdError):
        check_feasibility({"nope": "n1"}, repo, _two_node_platform())
    with pytest.raises(UnknownIdError):
        check_feasibility({"a": "nowhere"}, repo, _two_node_platform())


_DEMAND = ResourceDemand(Fraction(3, 2), Fraction(1, 10), 512, Fraction(2))
_DEMAND_TEXT = (
    "ResourceDemand(mem=Fraction(3, 2), cpu=Fraction(1, 10), gpu_threads=512, "
    "exec_ms=Fraction(2, 1))"
)
_NODE = HardwareNode("G1", Fraction(4096), Fraction(5, 2))
_NODE_TEXT = "HardwareNode(id='G1', use_mem=Fraction(4096, 1), use_cpu=Fraction(5, 2), use_gpu=0)"
_COMPONENT = Component("Cam", Kind.GPU, "capture", _DEMAND)
_COMPONENT_TEXT = (
    f"Component(id='Cam', kind=<Kind.GPU: 'GPU'>, function='capture', demand={_DEMAND_TEXT})"
)

# (record, a field, another value for it, the record's repr)
_TUPLE_RECORDS = [
    (_DEMAND, "exec_ms", Fraction(5), _DEMAND_TEXT),
    (_COMPONENT, "function", "detect", _COMPONENT_TEXT),
    (_NODE, "use_gpu", 1024, _NODE_TEXT),
    (
        UnitSpec("Vision", "declared"),
        "policy",
        "all_combinations",
        "UnitSpec(id='Vision', policy='declared', topology=None, alternatives=None)",
    ),
    (
        Diagnostic("mem-negative", "Cam", "mem is -1"),
        "subject",
        None,
        "Diagnostic(rule='mem-negative', subject='Cam', message='mem is -1')",
    ),
    (
        FeasibilityResult(True, []),
        "feasible",
        False,
        "FeasibilityResult(feasible=True, violations=[])",
    ),
    (
        Variant(["Cam"], _DEMAND),
        "members",
        ["Cam", "Gpu"],
        f"Variant(members=['Cam'], props={_DEMAND_TEXT})",
    ),
    (MultiVariantUnit("Vision", []), "id", "Other", "MultiVariantUnit(id='Vision', variants=[])"),
    (Placement(1, "G1"), "node", "H1", "Placement(variant=1, node='G1')"),
    (
        solver._Scaled(["Vision"], ["G1"], ([1], [0]), 2),
        "cost_den",
        3,
        "_Scaled(unit_ids=['Vision'], node_ids=['G1'], kernel_args=([1], [0]), cost_den=2)",
    ),
    (
        solver._Search(["Vision"], ([1], [0]), None),
        "infeasible",
        "total mem demand exceeds capacity",
        "_Search(unit_ids=['Vision'], args=([1], [0]), infeasible=None)",
    ),
]


@pytest.mark.parametrize(
    "record, name, value, text", _TUPLE_RECORDS, ids=[type(r[0]).__name__ for r in _TUPLE_RECORDS]
)
def test_a_resource_demand_is_an_immutable_hashable_tuple(record, name, value, text):
    """Each record that is never changed after construction is a named
    tuple: immutable, equal to the plain tuple of its values, changed by
    `_replace` into a copy, and hashable when its values are."""
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    assert record == tuple(record)
    assert type(record)(*record) == record
    changed = record._replace(**{name: value})
    assert getattr(changed, name) == value
    assert changed == tuple(value if f == name else v for f, v in zip(record._fields, record))
    assert getattr(record, name) == before
    assert repr(record) == text
    if all(type(v) not in (list, dict, tuple) for v in record):
        assert hash(record) == hash(type(record)(*record))
        assert len({record, type(record)(*record)}) == 1


# (a factory of a record, the record's repr); each call builds a new record
_SLOTTED_RECORDS = [
    (
        lambda: Repository([_COMPONENT]),
        f"Repository(components=[{_COMPONENT_TEXT}], version_groups={{}})",
    ),
    (lambda: Platform([_NODE]), f"Platform(nodes=[{_NODE_TEXT}])"),
    (lambda: Assembly(["Cam"]), "Assembly(components=['Cam'], connections=[])"),
    (lambda: SystemArchitecture([]), "SystemArchitecture(units=[], singletons=[], connections=[])"),
    (
        lambda: HighLayerModel([MultiVariantUnit("Vision", [])]),
        "HighLayerModel(units=[MultiVariantUnit(id='Vision', variants=[])], connections=[])",
    ),
    (
        lambda: AllocationScheme("optimal", Fraction(3), {"Vision": Placement(1, "G1")}, 7, "c"),
        "AllocationScheme(status='optimal', objective_ms=Fraction(3, 1), "
        "placements={'Vision': Placement(variant=1, node='G1')}, visited=7, backend='c')",
    ),
    (lambda: solver.SolverConfig(), "SolverConfig(unit_weights={}, time_limit_ms=None)"),
]


@pytest.mark.parametrize(
    "make, text", _SLOTTED_RECORDS, ids=[text[: text.index("(")] for _, text in _SLOTTED_RECORDS]
)
def test_a_record_with_assignable_fields_compares_by_value(make, text):
    """The records whose fields may be reassigned keep their values in
    slots: equal by value, never equal to a plain tuple, unhashable, each
    with default lists and dicts of its own, and shown like a dataclass."""
    record, twin = make(), make()
    assert record == twin
    assert record != tuple(getattr(record, name) for name in record._fields)
    setattr(twin, record._fields[0], None)
    assert record != twin
    with pytest.raises(AttributeError):
        record.unknown_field = 1  # slots hold the fields only
    with pytest.raises(TypeError):
        hash(record)
    for name in record._fields:
        value = getattr(record, name)
        if isinstance(value, (list, dict)) and not value:  # a default
            assert value is not getattr(make(), name)
    assert repr(record) == text


def test_a_scheme_compares_without_its_search_nodes_and_backend():
    placements = {"Vision": Placement(1, "G1")}
    scheme = AllocationScheme("optimal", Fraction(3), placements, visited=7, backend="c")
    assert scheme == AllocationScheme("optimal", Fraction(3), dict(placements))
    assert scheme != AllocationScheme("optimal", Fraction(4), placements, visited=7, backend="c")
    assert scheme != AllocationScheme("infeasible", Fraction(3), placements, visited=7)
