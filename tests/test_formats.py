import json
import random
from fractions import Fraction

import pytest

from gen import random_detailed, random_high_model, random_scheme, self_named_unit_model

from mvalloc.compaction import build_high_layer
from mvalloc.fixtures import robot_model_text
from mvalloc.formats import (
    ParseError,
    _canonical,
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


def test_model_without_architecture():
    repo, platform, _ = random_detailed(3)
    text = dump_model(repo, platform)
    assert "architecture" not in json.loads(text)
    back_repo, back_platform, back_arch = parse_model(text)
    assert back_arch is None
    assert (back_repo, back_platform) == (repo, platform)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(extra=1), "unknown field 'extra'"),
        (lambda d: d.pop("platform"), "missing field 'platform'"),
        (
            lambda d: d["repository"]["components"][0].update(mem=1.5),
            "floats are not accepted",
        ),
        (
            lambda d: d["repository"]["components"][0].update(kind="TPU"),
            "expected CPU or GPU",
        ),
        (
            lambda d: d["repository"]["components"][0].pop("exec_ms"),
            "missing field 'exec_ms'",
        ),
        (
            lambda d: d["platform"]["nodes"][0].update(use_gpu="1/2"),
            "expected an integer",
        ),
        (
            lambda d: d["architecture"].update(connections=[["only-one"]]),
            "expected a \\[from, to\\] pair",
        ),
        (lambda d: d["repository"].update(components={}), "expected an array"),
    ],
)
def test_parse_model_rejects_bad_documents(mutate, message):
    doc = json.loads(robot_model_text())
    mutate(doc)
    with pytest.raises(ParseError, match=message):
        parse_model(json.dumps(doc))


def test_invalid_json_reports_the_position():
    with pytest.raises(ParseError, match="line 1 column 2"):
        parse_model("{nope")


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


def test_compacted_rejects_empty_variants():
    with pytest.raises(ParseError, match="at least one variant"):
        parse_compacted(json.dumps({"units": [{"id": "u", "variants": []}]}))


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


def _random_document(rng: random.Random, depth: int = 0) -> object:
    kind = rng.randrange(6 if depth < 4 else 4)
    if kind == 0:
        return _random_text(rng)
    if kind == 1:
        return rng.choice([0, -1, 7, -(10**20), 10**25, rng.randint(-9999, 9999)])
    if kind == 2:
        return rng.choice([None, True, False])
    if kind in (3, 4):
        return {_random_text(rng): _random_document(rng, depth + 1) for _ in range(rng.randint(0, 4))}
    return [_random_document(rng, depth + 1) for _ in range(rng.randint(0, 4))]


def test_canonical_is_the_indented_sorted_json_text():
    rng = random.Random(3)
    for _ in range(1000):
        doc = _random_document(rng)
        expected = json.dumps(doc, indent=2, sort_keys=True, separators=(",", ": ")) + "\n"
        assert _canonical(doc) == expected, doc


@pytest.mark.parametrize(
    "doc", [1.5, float("nan"), {"a": [0.0]}, ["x", (1, 2)], {1: "a"}, Fraction(1, 2), b"x"]
)
def test_canonical_rejects_what_it_does_not_write(doc):
    with pytest.raises(TypeError):
        _canonical(doc)
