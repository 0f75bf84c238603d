import json
import os
import random
import stat
from dataclasses import replace
from fractions import Fraction

import pytest

from random_models import random_detailed, random_high_model, random_scheme, self_named_unit_model

from mvalloc import formats
from mvalloc.compaction import (
    AllocationScheme,
    HighLayerModel,
    MultiVariantUnit,
    Placement,
    Variant,
    build_high_layer,
    unfold,
)
from mvalloc.fixtures import robot_model_text
from mvalloc.formats import (
    ParseError,
    dump_assignment,
    dump_compacted,
    dump_model,
    dump_scheme,
    parse_assignment,
    parse_compacted,
    parse_model,
    parse_scheme,
    parse_weights,
    write_atomic,
)
from mvalloc.model import ResourceDemand
from mvalloc.rationals import format_number
from mvalloc.solver import solve


def test_parse_model_reads_the_robot_fixture():
    repo, platform, architecture = parse_model(robot_model_text())
    assert len(repo.components) == 15
    assert repo.component("MergeAndEnhanceGPU").demand.gpu_threads == 1536
    assert repo.component("MergeAndEnhanceGPU").demand.cpu == Fraction(1, 20)
    assert repo.versions_of("MergeAndEnhance") == [
        "MergeAndEnhanceCPU",
        "MergeAndEnhanceGPU",
    ]
    assert [n.id for n in platform.nodes] == ["H1", "H2"]
    assert platform.node("H1").use_gpu == 2048
    assert platform.node("H2").use_gpu == 0
    assert architecture is not None
    assert [u.id for u in architecture.units] == ["FrontVision", "BottomVision"]
    assert len(architecture.singletons) == 5


def test_model_dump_is_canonical_for_the_fixture():
    text = robot_model_text()
    repo, platform, architecture = parse_model(text)
    assert dump_model(repo, platform, architecture) == text


def test_model_round_trip_random():
    for seed in range(40):
        repo, platform, architecture = random_detailed(seed + 100)
        text = dump_model(repo, platform, architecture)
        back = parse_model(text)
        assert back == (repo, platform, architecture), f"seed {seed + 100}"
        assert dump_model(*back) == text, f"seed {seed + 100}"


@pytest.mark.parametrize("value", [1.5, float("nan"), 0.0])
@pytest.mark.parametrize("field", ["gpu_threads", "use_gpu"])
def test_model_dump_rejects_a_float_count(field, value):
    """A float would be written as JSON that `parse_model` rejects."""
    repo, platform, architecture = parse_model(robot_model_text())
    if field == "gpu_threads":
        component = repo.components[0]
        component.demand = replace(component.demand, gpu_threads=value)
    else:
        platform.nodes[0].use_gpu = value
    with pytest.raises(TypeError):
        dump_model(repo, platform, architecture)


def test_model_without_architecture():
    repo, platform, _ = random_detailed(3)
    text = dump_model(repo, platform)
    assert "architecture" not in json.loads(text)
    back_repo, back_platform, back_arch = parse_model(text)
    assert back_arch is None
    assert (back_repo, back_platform) == (repo, platform)


def _units(d):
    return d["architecture"]["units"]


def _kept(mutate, message, old_id):
    """A case that was matched by a substring `old_id` before its whole
    message was pinned; it keeps the test id it had then."""
    return pytest.param(mutate, message, id=f"<lambda>-{old_id}")


def _reject(parse, doc, message):
    """`parse` refuses the JSON text of `doc` with exactly `message`."""
    with pytest.raises(ParseError) as info:
        parse(json.dumps(doc))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "mutate, message",
    [
        # the document
        _kept(lambda d: d.update(extra=1), "$: unknown field 'extra'", "unknown field 'extra'"),
        _kept(lambda d: d.pop("platform"), "$: missing field 'platform'", "missing field 'platform'"),
        # repository
        (lambda d: d.update(repository=[]), "$.repository: expected an object"),
        (lambda d: d["repository"].update(zeta=1, alpha=2), "$.repository: unknown field 'alpha'"),
        (lambda d: d["repository"].pop("components"), "$.repository: missing field 'components'"),
        _kept(
            lambda d: d["repository"].update(components={}),
            "$.repository.components: expected an array",
            "expected an array",
        ),
        # component
        _kept(
            lambda d: d["repository"]["components"][0].update(mem=1.5),
            "$.repository.components[0].mem: floats are not accepted (got 1.5);"
            " write the value as a string",
            "floats are not accepted",
        ),
        _kept(
            lambda d: d["repository"]["components"][0].update(kind="TPU"),
            "$.repository.components[0].kind: expected CPU or GPU, got 'TPU'",
            "expected CPU or GPU",
        ),
        _kept(
            lambda d: d["repository"]["components"][0].pop("exec_ms"),
            "$.repository.components[0]: missing field 'exec_ms'",
            "missing field 'exec_ms'",
        ),
        (
            lambda d: [d["repository"]["components"][3].pop(k) for k in ("id", "kind")],
            "$.repository.components[3]: missing field 'kind'",
        ),
        (
            lambda d: d["repository"]["components"][1].update(gpu=1, demand=2),
            "$.repository.components[1]: unknown field 'demand'",
        ),
        (
            lambda d: d["repository"]["components"][2].update(gpu_threads="x"),
            "$.repository.components[2].gpu_threads: expected an integer, got 'x'",
        ),
        (
            lambda d: d["repository"]["components"][2].update(id=7, cpu=None),
            "$.repository.components[2].id: expected a string",
        ),
        (
            lambda d: d["repository"]["components"][4].update(cpu=None),
            "$.repository.components[4].cpu: expected a number, got NoneType",
        ),
        (
            lambda d: d["repository"]["components"].insert(5, "x"),
            "$.repository.components[5]: expected an object",
        ),
        # version group
        (
            lambda d: d["repository"].update(version_groups=[]),
            "$.repository.version_groups: expected an object",
        ),
        (
            lambda d: d["repository"]["version_groups"].update(EdgeDetection="EdgeDetectionCPU"),
            "$.repository.version_groups['EdgeDetection']: expected an array",
        ),
        (
            lambda d: d["repository"]["version_groups"]["EdgeDetection"].append(3),
            "$.repository.version_groups['EdgeDetection'][2]: expected a string",
        ),
        # platform and node
        (lambda d: d["platform"].update(cpus=2), "$.platform: unknown field 'cpus'"),
        (lambda d: d["platform"].pop("nodes"), "$.platform: missing field 'nodes'"),
        _kept(
            lambda d: d["platform"]["nodes"][0].update(use_gpu="1/2"),
            "$.platform.nodes[0].use_gpu: expected an integer, got '1/2'",
            "expected an integer",
        ),
        (
            lambda d: d["platform"]["nodes"][1].pop("use_cpu"),
            "$.platform.nodes[1]: missing field 'use_cpu'",
        ),
        (
            lambda d: d["platform"]["nodes"][1].update(cpu=1),
            "$.platform.nodes[1]: unknown field 'cpu'",
        ),
        (
            lambda d: d["platform"]["nodes"][0].update(use_mem=True),
            "$.platform.nodes[0].use_mem: expected a number, got a boolean",
        ),
        (lambda d: d["platform"]["nodes"].append([]), "$.platform.nodes[2]: expected an object"),
        # architecture
        (lambda d: d.update(architecture=[]), "$.architecture: expected an object"),
        (lambda d: d["architecture"].update(extra=1), "$.architecture: unknown field 'extra'"),
        (
            lambda d: d["architecture"]["singletons"].insert(2, 4),
            "$.architecture.singletons[2]: expected a string",
        ),
        (lambda d: d["architecture"].update(units={}), "$.architecture.units: expected an array"),
        # unit spec: topology and alternatives come before id and policy
        (
            lambda d: _units(d)[0].update(id=None, topology=5),
            "$.architecture.units[0].topology: expected an array",
        ),
        (
            lambda d: [_units(d)[0].pop("policy"), _units(d)[0].update(alternatives={})],
            "$.architecture.units[0].alternatives: expected an array",
        ),
        (
            lambda d: [_units(d)[1].pop(k) for k in ("id", "policy")],
            "$.architecture.units[1]: missing field 'id'",
        ),
        (
            lambda d: _units(d)[1].pop("policy"),
            "$.architecture.units[1]: missing field 'policy'",
        ),
        (
            lambda d: _units(d)[1].update(policy=3),
            "$.architecture.units[1].policy: expected a string",
        ),
        (
            lambda d: _units(d)[0]["topology"].insert(1, 2),
            "$.architecture.units[0].topology[1]: expected a string",
        ),
        (
            lambda d: _units(d)[1].update(variants=[]),
            "$.architecture.units[1]: unknown field 'variants'",
        ),
        (lambda d: _units(d).append(None), "$.architecture.units[2]: expected an object"),
        # assembly
        (
            lambda d: _units(d)[0]["alternatives"][1].pop("components"),
            "$.architecture.units[0].alternatives[1]: missing field 'components'",
        ),
        (
            lambda d: _units(d)[0]["alternatives"][2].update(id="a"),
            "$.architecture.units[0].alternatives[2]: unknown field 'id'",
        ),
        (
            lambda d: _units(d)[1]["alternatives"][0]["components"].insert(3, None),
            "$.architecture.units[1].alternatives[0].components[3]: expected a string",
        ),
        (
            lambda d: _units(d)[0]["alternatives"].insert(1, []),
            "$.architecture.units[0].alternatives[1]: expected an object",
        ),
        # connection pair
        _kept(
            lambda d: d["architecture"].update(connections=[["only-one"]]),
            "$.architecture.connections[0]: expected a [from, to] pair",
            "expected a \\[from, to\\] pair",
        ),
        (
            lambda d: d["architecture"]["connections"].insert(1, "a-b"),
            "$.architecture.connections[1]: expected an array",
        ),
        (
            lambda d: d["architecture"]["connections"][2].insert(0, 1),
            "$.architecture.connections[2]: expected a [from, to] pair",
        ),
        (
            lambda d: d["architecture"]["connections"][3].__setitem__(0, 1),
            "$.architecture.connections[3][0]: expected a string",
        ),
        (
            lambda d: _units(d)[0]["alternatives"][0]["connections"][2].__setitem__(1, 5),
            "$.architecture.units[0].alternatives[0].connections[2][1]: expected a string",
        ),
        (
            lambda d: _units(d)[1]["alternatives"][1].update(connections={}),
            "$.architecture.units[1].alternatives[1].connections: expected an array",
        ),
    ],
)
def test_parse_model_rejects_bad_documents(mutate, message):
    doc = json.loads(robot_model_text())
    mutate(doc)
    _reject(parse_model, doc, message)


def test_invalid_json_reports_the_position():
    with pytest.raises(ParseError, match="line 1 column 2"):
        parse_model("{nope")


# the number grammar of README "File formats", read as a component's mem
@pytest.mark.parametrize(
    "raw, value",
    [
        ("0", 0), ("007", 7), ("12.50", Fraction(25, 2)), ("-0.5", Fraction(-1, 2)),
        ("-10/3", Fraction(-10, 3)), ("45", 45), (45, 45), (0, 0), (-3, -3), (10**30, 10**30),
    ],
)
def test_parse_model_reads_the_number_grammar(raw, value):
    doc = json.loads(robot_model_text())
    doc["repository"]["components"][1]["mem"] = raw
    repo, _, _ = parse_model(json.dumps(doc))
    assert repo.components[1].demand.mem == value


@pytest.mark.parametrize(
    "raw",
    ["1e3", "+1", " 7", ".5", "5.", "1_000", "\u0661", "3/-8", "1/0", "1.5/2", "--1", ""],
)
def test_parse_model_refuses_strings_outside_the_number_grammar(raw):
    doc = json.loads(robot_model_text())
    doc["repository"]["components"][1]["mem"] = raw
    _reject(parse_model, doc, f"$.repository.components[1].mem: not a valid number string: {raw!r}")


@pytest.mark.parametrize("raw", ["512", "6/2", True, 1.0])
@pytest.mark.parametrize(
    "parse, document, record, path",
    [
        (
            parse_model,
            lambda: json.loads(robot_model_text()),
            lambda d: d["repository"]["components"][2],
            "$.repository.components[2].gpu_threads",
        ),
        (
            parse_model,
            lambda: json.loads(robot_model_text()),
            lambda d: d["platform"]["nodes"][1],
            "$.platform.nodes[1].use_gpu",
        ),
        (
            parse_scheme,
            lambda: _robot_documents()[1],
            lambda d: d["placements"]["FrontVision"],
            "$.placements['FrontVision'].variant",
        ),
    ],
    ids=["gpu_threads", "use_gpu", "variant"],
)
def test_counts_are_json_integers_only(parse, document, record, path, raw):
    doc = document()
    record(doc)[path.rpartition(".")[2]] = raw
    _reject(parse, doc, f"{path}: expected an integer, got {raw!r}")


def test_compacted_round_trip_random():
    for seed in range(40):
        model, _ = random_high_model(seed + 200)
        text = dump_compacted(model)
        back = parse_compacted(text)
        assert back.units == model.units, f"seed {seed + 200}"
        assert back.connections == model.connections, f"seed {seed + 200}"
        assert dump_compacted(back) == text, f"seed {seed + 200}"


def test_compacted_singleton_classification():
    text = json.dumps(
        {
            "units": [
                {
                    "id": "solo",
                    "variants": [
                        {"members": ["solo"], "mem": 1, "cpu": 1, "exec_ms": 2}
                    ],
                },
                {
                    "id": "narrow",
                    "variants": [
                        {"members": ["other"], "mem": 1, "cpu": 1, "exec_ms": 2}
                    ],
                },
            ]
        }
    )
    model = parse_compacted(text)
    assert [u.id for u in model.units] == ["solo", "narrow"]


def test_compacted_round_trip_keeps_unit_order():
    repo, platform, arch = self_named_unit_model()
    high = build_high_layer(arch, repo)
    assert [u.id for u in high.units] == ["Cam", "U", "B"]
    back = parse_compacted(dump_compacted(high))
    assert [u.id for u in back.units] == ["Cam", "U", "B"]
    scheme = solve(back, platform)
    assert scheme.placements["Cam"].node == "h0"
    assert dump_scheme(scheme) == dump_scheme(solve(high, platform))


def _json_text(doc: object) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, separators=(",", ": ")) + "\n"


def test_dump_compacted_is_the_canonical_json_text_random():
    for seed in range(300):
        model, _ = random_high_model(seed)
        text = dump_compacted(model)
        assert _json_text(json.loads(text)) == text, f"seed {seed}"


def _demand(mem, cpu, gpu_threads, exec_ms) -> ResourceDemand:
    return ResourceDemand(
        mem=Fraction(mem), cpu=Fraction(cpu), gpu_threads=gpu_threads, exec_ms=Fraction(exec_ms)
    )


_UNITS = [
    MultiVariantUnit(
        id="cam",
        variants=[
            Variant(members=["cam", "edge"], props=_demand(12, "0.25", 0, 3)),
            Variant(members=["camGPU"], props=_demand("1/3", "5/7", 1536, "22/7")),
        ],
    ),
    MultiVariantUnit(id="solo", variants=[Variant(members=["solo"], props=_demand(1, 1, 0, 2))]),
]


@pytest.mark.parametrize(
    "model",
    [
        HighLayerModel(units=_UNITS, connections=[("cam", "solo"), ("solo", "cam")]),
        HighLayerModel(units=_UNITS),
        HighLayerModel(units=[]),
        HighLayerModel(units=[], connections=[("a", "b")]),
        HighLayerModel(units=[MultiVariantUnit(id="none", variants=[])]),
        HighLayerModel(
            units=[
                MultiVariantUnit(
                    id="empty", variants=[Variant(members=[], props=_demand(0, 0, 0, 0))]
                )
            ]
        ),
        HighLayerModel(
            units=[
                MultiVariantUnit(
                    id="Kamera-\u00e9\u65e5\U0001f600",
                    variants=[
                        Variant(
                            members=['qu"ote', "back\\slash", "line\u2028sep", "tab\t", "\u00fc"],
                            props=_demand(1, 1, 0, 1),
                        )
                    ],
                )
            ],
            connections=[("Kamera-\u00e9\u65e5\U0001f600", "\x00")],
        ),
        HighLayerModel(
            units=[
                MultiVariantUnit(
                    id="negative",
                    variants=[
                        Variant(members=["n"], props=_demand("-1.5", "-2/3", -4, "-0.001")),
                        Variant(members=["m"], props=_demand(-7, "-10/3", 0, "1000")),
                    ],
                )
            ]
        ),
    ],
    ids=["connections", "no-connections", "no-units", "connections-no-units", "no-variants",
         "empty-members", "non-ascii", "negative"],
)
def test_dump_compacted_is_the_canonical_json_text(model):
    text = dump_compacted(model)
    assert _json_text(json.loads(text)) == text
    if all(unit.variants for unit in model.units):
        back = parse_compacted(text)
        assert (back.units, back.connections) == (model.units, model.connections)


def _robot_documents():
    """The robot's compacted model and its optimal scheme, as JSON data."""
    repo, platform, architecture = parse_model(robot_model_text())
    high = build_high_layer(architecture, repo)
    return json.loads(dump_compacted(high)), json.loads(dump_scheme(solve(high, platform)))


def _variants(d):
    return d["units"][0]["variants"]


@pytest.mark.parametrize(
    "mutate, message",
    [
        # the document
        (lambda d: d.update(extra=1), "$: unknown field 'extra'"),
        (lambda d: d.pop("units"), "$: missing field 'units'"),
        (lambda d: d.update(units={}), "$.units: expected an array"),
        (lambda d: d.update(connections=[["a"]]), "$.connections[0]: expected a [from, to] pair"),
        (lambda d: d["connections"].insert(1, {}), "$.connections[1]: expected an array"),
        # unit
        (lambda d: d["units"].insert(1, 3), "$.units[1]: expected an object"),
        (lambda d: d["units"][1].pop("id"), "$.units[1]: missing field 'id'"),
        (
            lambda d: [d["units"][1].pop(k) for k in ("variants", "id")],
            "$.units[1]: missing field 'id'",
        ),
        (lambda d: d["units"][2].pop("variants"), "$.units[2]: missing field 'variants'"),
        (lambda d: d["units"][0].update(policy="x"), "$.units[0]: unknown field 'policy'"),
        (lambda d: d["units"][0].update(id=1), "$.units[0].id: expected a string"),
        (lambda d: d["units"][0].update(variants="v"), "$.units[0].variants: expected an array"),
        (
            lambda d: d["units"][3].update(variants=[]),
            "$.units[3].variants: a unit needs at least one variant",
        ),
        # variant
        (lambda d: _variants(d).insert(2, None), "$.units[0].variants[2]: expected an object"),
        (
            lambda d: [_variants(d)[0].pop(k) for k in ("mem", "members")],
            "$.units[0].variants[0]: missing field 'members'",
        ),
        (lambda d: _variants(d)[1].pop("cpu"), "$.units[0].variants[1]: missing field 'cpu'"),
        (
            lambda d: _variants(d)[1].update(gpu_threads=1.5),
            "$.units[0].variants[1].gpu_threads: expected an integer, got 1.5",
        ),
        (
            lambda d: _variants(d)[0].update(exec_ms="fast"),
            "$.units[0].variants[0].exec_ms: not a valid number string: 'fast'",
        ),
        (
            lambda d: _variants(d)[0].update(gpu_members=0, kind="GPU"),
            "$.units[0].variants[0]: unknown field 'gpu_members'",
        ),
        # members
        (
            lambda d: _variants(d)[0].update(members="Camera1"),
            "$.units[0].variants[0].members: expected an array",
        ),
        (
            lambda d: _variants(d)[3]["members"].insert(1, 1),
            "$.units[0].variants[3].members[1]: expected a string",
        ),
    ],
)
def test_parse_compacted_rejects_bad_documents(mutate, message):
    doc = _robot_documents()[0]
    mutate(doc)
    _reject(parse_compacted, doc, message)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (
            lambda d: _variants(d)[1]["members"].insert(2, 7),
            "$.units[0].variants[1].members[2]: expected a string",
        ),
        # only the first bad element is reported
        (
            lambda d: _variants(d)[1]["members"].__setitem__(slice(1, 5, 3), [None, 3]),
            "$.units[0].variants[1].members[1]: expected a string",
        ),
        # fields that read well in earlier units, then a bad value of each
        (
            lambda d: d["units"][6]["variants"][0].update(mem=1.5),
            "$.units[6].variants[0].mem: floats are not accepted (got 1.5);"
            " write the value as a string",
        ),
        (
            lambda d: [d["units"][k]["variants"][0].update(cpu="1/0") for k in (2, 5)],
            "$.units[2].variants[0].cpu: not a valid number string: '1/0'",
        ),
        # "0.6" reads well as the first unit's cpu, not as a count
        (
            lambda d: d["units"][1]["variants"][0].update(gpu_threads="0.6"),
            "$.units[1].variants[0].gpu_threads: expected an integer, got '0.6'",
        ),
    ],
)
def test_parse_compacted_reports_the_path_of_the_fault_it_meets_first(mutate, message):
    doc = _robot_documents()[0]
    mutate(doc)
    _reject(parse_compacted, doc, message)


@pytest.mark.parametrize(
    "mutate, message",
    [
        # the document
        (lambda d: d.update(extra=1), "$: unknown field 'extra'"),
        (lambda d: d.pop("status"), "$: missing field 'status'"),
        (lambda d: d.update(status=1), "$.status: expected a string"),
        (lambda d: d.update(status="great"), "$.status: expected one of optimal, infeasible, timeout"),
        (
            lambda d: d.update(objective_ms=1.5),
            "$.objective_ms: floats are not accepted (got 1.5); write the value as a string",
        ),
        (lambda d: d.update(placements=[]), "$.placements: expected an object"),
        # placement
        (
            lambda d: d["placements"].update(FrontVision=1),
            "$.placements['FrontVision']: expected an object",
        ),
        (
            lambda d: [d["placements"]["BottomVision"].pop(k) for k in ("node", "variant")],
            "$.placements['BottomVision']: missing field 'variant'",
        ),
        (
            lambda d: d["placements"]["BottomVision"].pop("node"),
            "$.placements['BottomVision']: missing field 'node'",
        ),
        (
            lambda d: d["placements"]["FrontVision"].update(unit="FrontVision"),
            "$.placements['FrontVision']: unknown field 'unit'",
        ),
        (
            lambda d: d["placements"]["FrontVision"].update(variant="1/2"),
            "$.placements['FrontVision'].variant: expected an integer, got '1/2'",
        ),
        (
            lambda d: d["placements"]["VisionManager"].update(node=3),
            "$.placements['VisionManager'].node: expected a string",
        ),
    ],
)
def test_parse_scheme_rejects_bad_documents(mutate, message):
    doc = _robot_documents()[1]
    mutate(doc)
    _reject(parse_scheme, doc, message)


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], "$: expected an object"),
        ({}, "$: missing field 'assignments'"),
        ({"assignments": [], "x": 1}, "$: unknown field 'x'"),
        ({"assignments": []}, "$.assignments: expected an object"),
        ({"assignments": {"a": "n1", "b": 1}}, "$.assignments['b']: expected a string"),
    ],
)
def test_parse_assignment_rejects_bad_documents(doc, message):
    _reject(parse_assignment, doc, message)


@pytest.mark.parametrize(
    "parse, mutate, message",
    [
        (
            parse_model,
            lambda d: d["repository"]["components"][0].update(id=1, kind="TPU"),
            "$.repository.components[0].kind: expected CPU or GPU, got 'TPU'",
        ),
        (
            parse_model,
            lambda d: d["platform"]["nodes"][0].update(use_gpu="8", use_mem=1.5),
            "$.platform.nodes[0].use_mem: floats are not accepted (got 1.5);"
            " write the value as a string",
        ),
        (
            parse_model,
            lambda d: _units(d)[0].update(id=1, topology="Camera1"),
            "$.architecture.units[0].topology: expected an array",
        ),
        (
            parse_compacted,
            lambda d: _variants(d)[0].update(mem=1.5, members="Camera1"),
            "$.units[0].variants[0].members: expected an array",
        ),
        (
            parse_scheme,
            lambda d: d["placements"]["FrontVision"].update(node=3, variant="1/2"),
            "$.placements['FrontVision'].variant: expected an integer, got '1/2'",
        ),
        (
            parse_scheme,
            lambda d: d.update(objective_ms=1.5, status="great"),
            "$.status: expected one of optimal, infeasible, timeout",
        ),
    ],
)
def test_of_two_bad_fields_the_one_read_first_is_reported(parse, mutate, message):
    model = json.loads(robot_model_text())
    compacted, scheme = _robot_documents()
    doc = {parse_model: model, parse_compacted: compacted, parse_scheme: scheme}[parse]
    mutate(doc)
    _reject(parse, doc, message)


def test_the_writers_write_the_keys_the_readers_read():
    repo, platform, architecture = parse_model(robot_model_text())
    model = json.loads(dump_model(repo, platform, architecture))
    compacted, scheme = _robot_documents()
    high = build_high_layer(architecture, repo)
    assignment = json.loads(dump_assignment(unfold(parse_scheme(json.dumps(scheme)), high)))
    units = model["architecture"]["units"]
    written = {
        "_MODEL": [model],
        "_REPOSITORY": [model["repository"]],
        "_COMPONENT": model["repository"]["components"],
        "_PLATFORM": [model["platform"]],
        "_NODE": model["platform"]["nodes"],
        "_ARCHITECTURE": [model["architecture"]],
        "_UNIT_SPEC": units,
        "_ASSEMBLY": [a for unit in units for a in unit["alternatives"]],
        "_COMPACTED": [compacted],
        "_UNIT": compacted["units"],
        "_VARIANT": [v for unit in compacted["units"] for v in unit["variants"]],
        "_SCHEME": [scheme],
        "_PLACEMENT": list(scheme["placements"].values()),
        "_ASSIGNMENT": [assignment],
    }
    for name, records in written.items():
        table = getattr(formats, name)
        assert records and all(record.keys() == table.keys() for record in records), name


def test_compacted_rejects_empty_variants():
    with pytest.raises(ParseError, match="at least one variant"):
        parse_compacted(json.dumps({"units": [{"id": "u", "variants": []}]}))


def test_compacted_rejects_gpu_members():
    variant = {"members": ["a"], "mem": 1, "cpu": 1, "exec_ms": 2, "gpu_members": 0}
    with pytest.raises(ParseError, match=r"variants\[0\]: unknown field 'gpu_members'"):
        parse_compacted(json.dumps({"units": [{"id": "u", "variants": [variant]}]}))


def test_scheme_round_trip_random():
    for seed in range(60):
        scheme = random_scheme(seed + 300)
        text = dump_scheme(scheme)
        back = parse_scheme(text)
        assert back == scheme, f"seed {seed + 300}"
        assert dump_scheme(back) == text, f"seed {seed + 300}"


def test_scheme_keeps_nonterminating_objectives_exact():
    scheme = random_scheme(0)
    scheme.objective_ms = Fraction(1, 3)
    back = parse_scheme(dump_scheme(scheme))
    assert back.objective_ms == Fraction(1, 3)
    assert '"1/3"' in dump_scheme(scheme)


def test_scheme_rejects_unknown_status():
    with pytest.raises(ParseError, match="status"):
        parse_scheme(json.dumps({"status": "great", "objective_ms": None, "placements": {}}))


def test_assignment_round_trip():
    assignment = {"a": "n1", "b": "n2"}
    assert parse_assignment(dump_assignment(assignment)) == assignment


def test_parse_weights():
    weights = parse_weights(json.dumps({"u": "1.5", "v": 2}))
    assert weights == {"u": Fraction(3, 2), "v": Fraction(2)}
    with pytest.raises(ParseError):
        parse_weights(json.dumps({"u": 1.5}))


def test_write_atomic_replaces_existing_content(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("old")
    write_atomic(target, "new")
    assert target.read_text() == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_write_atomic_gives_a_new_file_the_mode_open_would(tmp_path):
    old = os.umask(0o022)
    try:
        write_atomic(tmp_path / "out.json", "new")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "out.json").stat().st_mode) == 0o644


def test_write_atomic_leaves_nothing_behind_on_failure(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError):
        write_atomic(target, "content")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list(target.iterdir()) == []


# characters json escapes, or must not mangle: quotes, backslashes,
# control characters, non-ASCII letters, a lone surrogate, an emoji
TEXT_CHARS = (
    ["a", "Z", "0", "_", " ", "/", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f"]
    + ["\u00e9", "\u65e5", "\u2028", "\ud800", "\U0001f600"]
)


def _random_text(rng: random.Random) -> str:
    return "".join(rng.choice(TEXT_CHARS) for _ in range(rng.randint(0, 6)))


def _scheme_tree(scheme: AllocationScheme) -> dict:
    objective = None if scheme.objective_ms is None else format_number(scheme.objective_ms)
    placements = {u: {"variant": p.variant, "node": p.node} for u, p in scheme.placements.items()}
    return {"status": scheme.status, "objective_ms": objective, "placements": placements}


ODD_IDS = ["Kamera-\u00e9\u65e5\U0001f600", "line\u2028sep", "lone\ud800", 'qu"ote', "\\\t\x00", ""]


@pytest.mark.parametrize(
    "scheme",
    [
        AllocationScheme(status="infeasible", objective_ms=None, placements={}),
        AllocationScheme(status="timeout", objective_ms=None, placements={"u": Placement(0, "h")}),
        AllocationScheme(
            status="optimal",
            objective_ms=Fraction(-22, 7),
            placements={uid: Placement(k, uid[::-1]) for k, uid in enumerate(ODD_IDS)},
        ),
    ],
    ids=["empty", "null-objective", "odd-ids"],
)
def test_dump_scheme_is_the_canonical_json_text(scheme):
    assert dump_scheme(scheme) == _json_text(_scheme_tree(scheme))
    assignment = {p.node: uid for uid, p in scheme.placements.items()}
    assert dump_assignment(assignment) == _json_text({"assignments": assignment})


def test_dump_scheme_and_assignment_are_the_canonical_json_text_random():
    rng = random.Random(5)
    for seed in range(400):
        scheme = random_scheme(seed)
        if seed % 2:
            scheme.placements = {
                _random_text(rng): Placement(p.variant, _random_text(rng))
                for p in scheme.placements.values()
            }
        assert dump_scheme(scheme) == _json_text(_scheme_tree(scheme)), f"seed {seed}"
        assignment = {_random_text(rng): _random_text(rng) for _ in range(rng.randint(0, 5))}
        expected = _json_text({"assignments": assignment})
        assert dump_assignment(assignment) == expected, f"seed {seed}"
