"""JSON file formats and atomic output.

Four formats: model (repository + platform + optional architecture),
compacted model, allocation scheme, and component assignment.  Parsing is
strict: unknown fields are rejected, numbers must be integers or strings
of the grammar in mvalloc.rationals, counts (`gpu_threads`, `use_gpu`,
`variant`) must be JSON integers, and every error carries the path to the
offending field.  A reader raises a fault without its path, and each
reader the fault passes on its way out adds its own step, so a path is
built only for a document that has a fault.  Number strings are parsed
once per document: a memo that lives for one `parse_*` call maps each
distinct string to its Fraction.

Serialization is canonical: exactly `json.dumps(data, indent=2,
sort_keys=True, separators=(",", ": "))` and a newline, so the same data
always gives the same bytes.  `dump_model` calls `json.dumps`.  The three
files the pipeline writes, the compacted model, the scheme and the
assignment, are rendered directly from their records to those same bytes:
one f-string per record at its fixed depth, with keys in sorted order.

The scheme's records and status names come from `compaction`, so
reading and writing files never loads the solver.

Files are written through `write_atomic`, temp-file-then-rename in the
target directory, so readers never observe a partial file.  A new file
gets the mode `open` would give it: 0o666 less the umask.
"""

from __future__ import annotations

import json
import operator
import os
from dataclasses import fields
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .compaction import (
    STATUSES,
    AllocationScheme,
    HighLayerModel,
    MultiVariantUnit,
    Placement,
    Variant,
)
from .model import (
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
from .rationals import format_number, parse_number

__all__ = [
    "ParseError",
    "parse_model",
    "dump_model",
    "parse_compacted",
    "dump_compacted",
    "parse_scheme",
    "dump_scheme",
    "parse_assignment",
    "dump_assignment",
    "parse_weights",
    "write_atomic",
]

class ParseError(ValueError):
    """Structurally invalid input; the message names the bad field."""


class _Fault(Exception):
    """A fault in a document.  `where` gathers the steps of its path,
    innermost first, as the readers it passes through add theirs."""

    def __init__(self, message: str, *where: str):
        super().__init__(message)
        self.where = list(where)


def _parse(text: str, read):
    """`read(root, numbers)` on the document's JSON root, where `numbers`
    is the document's memo of number strings; a fault becomes a
    ParseError that names its path from the root, `$`.

    Every reader takes the raw JSON value and that memo."""
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    try:
        return read(root, {})
    except _Fault as fault:
        raise ParseError(f"${''.join(reversed(fault.where))}: {fault}") from fault.__cause__


def _arr(raw: object, numbers: dict) -> list:
    if not isinstance(raw, list):
        raise _Fault("expected an array")
    return raw


def _str(raw: object, numbers: dict) -> str:
    if not isinstance(raw, str):
        raise _Fault("expected a string")
    return raw


def _number(raw: object, numbers: dict) -> Fraction:
    """`parse_number(raw)`; a string's Fraction is kept in `numbers`, so
    each distinct string is parsed once per document."""
    try:
        if isinstance(raw, str):
            value = numbers.get(raw)
            if value is None:
                value = numbers[raw] = parse_number(raw)
            return value
        return parse_number(raw)
    except ValueError as exc:
        raise _Fault(str(exc)) from exc


def _count(raw: object, numbers: dict) -> int:
    """A JSON integer, as it is: the model validators report a negative
    count, and the solver's scaling refuses it."""
    if type(raw) is not int:
        raise _Fault(f"expected an integer, got {raw!r}")
    return raw


_REQUIRED = object()
# a component's or compacted variant's demand fields: ResourceDemand's attributes
_DEMAND = tuple(f.name for f in fields(ResourceDemand))
_COMPONENT = frozenset(("id", "kind", "function", *_DEMAND))
_VARIANT = frozenset(("members", *_DEMAND))
_REPOSITORY = frozenset(("components", "version_groups"))
_NODE = frozenset(("id", "use_mem", "use_cpu", "use_gpu"))
_PLATFORM = frozenset(("nodes",))
_ASSEMBLY = frozenset(("components", "connections"))
_UNIT_SPEC = frozenset(("id", "policy", "topology", "alternatives"))
_ARCHITECTURE = frozenset(("units", "singletons", "connections"))
_MODEL = frozenset(("repository", "platform", "architecture"))
_UNIT = frozenset(("id", "variants"))
_COMPACTED = frozenset(("units", "connections"))
_PLACEMENT = frozenset(("variant", "node"))
_SCHEME = frozenset(("status", "objective_ms", "placements"))
_ASSIGNMENT = frozenset(("assignments",))


def _record(raw: object, numbers: dict, known: frozenset[str] | None = None) -> dict:
    """`raw` as an object; with `known`, one whose keys all are in it (the
    first unknown key in sorted order is reported)."""
    if not isinstance(raw, dict):
        raise _Fault("expected an object")
    if known is not None and not raw.keys() <= known:
        raise _Fault(f"unknown field {min(raw.keys() - known)!r}")
    return raw


def _field(obj: dict, key: str, read, numbers: dict, default: object = _REQUIRED):
    """`read(obj[key], numbers)` at path .key, or `default` when `key` is
    absent; without a default an absent key is an error.  Each reader
    reads its fields in a fixed order, so a document always reports the
    same fault."""
    if key in obj:
        try:
            return read(obj[key], numbers)
        except _Fault as fault:
            fault.where.append(f".{key}")
            raise
    if default is _REQUIRED:
        raise _Fault(f"missing field {key!r}")
    return default


def _array(raw: object, numbers: dict, read) -> list:
    values = _arr(raw, numbers)
    out: list = []
    try:
        for value in values:
            out.append(read(value, numbers))
    except _Fault as fault:
        fault.where.append(f"[{len(out)}]")  # the elements before it were read
        raise
    return out


def _map(raw: object, numbers: dict, read) -> dict:
    """An object of any keys, each value read by `read` at path['key']."""
    out = {}
    for key, value in _record(raw, numbers).items():
        try:
            out[key] = read(value, numbers)
        except _Fault as fault:
            fault.where.append(f"[{key!r}]")
            raise
    return out


def _strings(raw: object, numbers: dict) -> list[str]:
    """An array of strings, checked in one pass; the document's own list."""
    values = _arr(raw, numbers)
    if not all(map(str.__instancecheck__, values)):
        bad = next(i for i, value in enumerate(values) if not isinstance(value, str))
        raise _Fault("expected a string", f"[{bad}]")
    return values


def _pair(raw: object, numbers: dict) -> tuple[str, str]:
    if len(_arr(raw, numbers)) != 2:
        raise _Fault("expected a [from, to] pair")
    a, b = _strings(raw, numbers)
    return a, b


def _demand(obj: dict, numbers: dict) -> ResourceDemand:
    """The demand fields of a component or of a compacted variant."""
    return ResourceDemand(
        mem=_field(obj, "mem", _number, numbers),
        cpu=_field(obj, "cpu", _number, numbers),
        gpu_threads=_field(obj, "gpu_threads", _count, numbers, 0),
        exec_ms=_field(obj, "exec_ms", _number, numbers),
    )


def _put_demand(demand: ResourceDemand, out: dict) -> dict:
    """`out` with the fields `_demand` reads added."""
    out["mem"] = format_number(demand.mem)
    out["cpu"] = format_number(demand.cpu)
    out["gpu_threads"] = operator.index(demand.gpu_threads)
    out["exec_ms"] = format_number(demand.exec_ms)
    return out


# --- model ---------------------------------------------------------------


def _kind(raw: object, numbers: dict) -> Kind:
    kind = _str(raw, numbers)
    try:
        return Kind(kind)
    except ValueError:
        raise _Fault(f"expected CPU or GPU, got {kind!r}") from None


def _component(raw: object, numbers: dict) -> Component:
    obj = _record(raw, numbers, _COMPONENT)
    return Component(
        kind=_field(obj, "kind", _kind, numbers),
        id=_field(obj, "id", _str, numbers),
        function=_field(obj, "function", _str, numbers),
        demand=_demand(obj, numbers),
    )


def _repository(raw: object, numbers: dict) -> Repository:
    obj = _record(raw, numbers, _REPOSITORY)
    return Repository(
        components=_field(obj, "components", partial(_array, read=_component), numbers),
        version_groups=_field(obj, "version_groups", partial(_map, read=_strings), numbers, {}),
    )


def _node(raw: object, numbers: dict) -> HardwareNode:
    obj = _record(raw, numbers, _NODE)
    return HardwareNode(
        id=_field(obj, "id", _str, numbers),
        use_mem=_field(obj, "use_mem", _number, numbers),
        use_cpu=_field(obj, "use_cpu", _number, numbers),
        use_gpu=_field(obj, "use_gpu", _count, numbers, 0),
    )


def _platform(raw: object, numbers: dict) -> Platform:
    obj = _record(raw, numbers, _PLATFORM)
    return Platform(nodes=_field(obj, "nodes", partial(_array, read=_node), numbers))


def _assembly(raw: object, numbers: dict) -> Assembly:
    obj = _record(raw, numbers, _ASSEMBLY)
    return Assembly(
        components=_field(obj, "components", _strings, numbers),
        connections=_field(obj, "connections", partial(_array, read=_pair), numbers, []),
    )


def _unit_spec(raw: object, numbers: dict) -> UnitSpec:
    obj = _record(raw, numbers, _UNIT_SPEC)
    return UnitSpec(
        topology=_field(obj, "topology", _strings, numbers, None),
        alternatives=_field(obj, "alternatives", partial(_array, read=_assembly), numbers, None),
        id=_field(obj, "id", _str, numbers),
        policy=_field(obj, "policy", _str, numbers),
    )


def _architecture(raw: object, numbers: dict) -> SystemArchitecture:
    obj = _record(raw, numbers, _ARCHITECTURE)
    return SystemArchitecture(
        units=_field(obj, "units", partial(_array, read=_unit_spec), numbers, []),
        singletons=_field(obj, "singletons", _strings, numbers, []),
        connections=_field(obj, "connections", partial(_array, read=_pair), numbers, []),
    )


def _model(raw: object, numbers: dict) -> tuple[Repository, Platform, SystemArchitecture | None]:
    root = _record(raw, numbers, _MODEL)
    return (
        _field(root, "repository", _repository, numbers),
        _field(root, "platform", _platform, numbers),
        _field(root, "architecture", _architecture, numbers, None),
    )


def parse_model(text: str) -> tuple[Repository, Platform, SystemArchitecture | None]:
    return _parse(text, _model)


def _dump_assembly(assembly: Assembly) -> dict:
    out: dict = {"components": list(assembly.components)}
    if assembly.connections:
        out["connections"] = [[a, b] for a, b in assembly.connections]
    return out


def dump_model(
    repo: Repository,
    platform: Platform,
    architecture: SystemArchitecture | None = None,
) -> str:
    root: dict = {
        "repository": {
            "components": [
                _put_demand(c.demand, {"id": c.id, "kind": c.kind.value, "function": c.function})
                for c in repo.components
            ],
        },
        "platform": {
            "nodes": [
                {
                    "id": n.id,
                    "use_mem": format_number(n.use_mem),
                    "use_cpu": format_number(n.use_cpu),
                    "use_gpu": operator.index(n.use_gpu),
                }
                for n in platform.nodes
            ],
        },
    }
    if repo.version_groups:
        root["repository"]["version_groups"] = {
            fn: list(ids) for fn, ids in repo.version_groups.items()
        }
    if architecture is not None:
        arch: dict = {}
        if architecture.units:
            arch["units"] = []
            for spec in architecture.units:
                entry: dict = {"id": spec.id, "policy": spec.policy}
                if spec.topology is not None:
                    entry["topology"] = list(spec.topology)
                if spec.alternatives is not None:
                    entry["alternatives"] = [_dump_assembly(a) for a in spec.alternatives]
                arch["units"].append(entry)
        if architecture.singletons:
            arch["singletons"] = list(architecture.singletons)
        if architecture.connections:
            arch["connections"] = [[a, b] for a, b in architecture.connections]
        root["architecture"] = arch
    # the integer fields go through operator.index, so a float raises
    # TypeError here instead of reaching a file the reader rejects
    return json.dumps(root, indent=2, sort_keys=True, separators=(",", ": ")) + "\n"


# --- compacted model -----------------------------------------------------


def _variant(raw: object, numbers: dict) -> Variant:
    obj = _record(raw, numbers, _VARIANT)
    return Variant(members=_field(obj, "members", _strings, numbers), props=_demand(obj, numbers))


def _unit(raw: object, numbers: dict) -> MultiVariantUnit:
    obj = _record(raw, numbers, _UNIT)
    unit_id = _field(obj, "id", _str, numbers)
    variants = _field(obj, "variants", partial(_array, read=_variant), numbers)
    if not variants:
        raise _Fault("a unit needs at least one variant", ".variants")
    return MultiVariantUnit(id=unit_id, variants=variants)


def _compacted(raw: object, numbers: dict) -> HighLayerModel:
    root = _record(raw, numbers, _COMPACTED)
    return HighLayerModel(
        units=_field(root, "units", partial(_array, read=_unit), numbers),
        connections=_field(root, "connections", partial(_array, read=_pair), numbers, []),
    )


def parse_compacted(text: str) -> HighLayerModel:
    return _parse(text, _compacted)


def _array_text(items: list[str], depth: int, brackets: str = "[]") -> str:
    """The canonical text of an array, or with `brackets` "{}" of an
    object, whose elements or `"key": value` members, already rendered,
    sit `depth` columns in."""
    if not items:
        return brackets
    inner = "\n" + " " * depth
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}{inner[:-2]}{brackets[1]}"


def dump_compacted(model: HighLayerModel) -> str:
    """The canonical JSON text of the tree {"units": [{"id", "variants":
    [{"members", and the fields `_demand` reads}]}], "connections": [[a,
    b]] when there are any}, rendered directly: each record's keys in
    sorted order at its fixed depth.  A number is a string of digits,
    '-', '.' and '/', which JSON quotes as it is."""
    number = format_number
    units = []
    for unit in model.units:
        variants = []
        for v in unit.variants:
            d = v.props
            variants.append(
                f'{{\n          "cpu": "{number(d.cpu)}",'
                f'\n          "exec_ms": "{number(d.exec_ms)}",'
                f'\n          "gpu_threads": {d.gpu_threads:d},'
                f'\n          "mem": "{number(d.mem)}",'
                f'\n          "members": {_array_text(list(map(_quote, v.members)), 12)}'
                "\n        }"
            )
        units.append(
            f'{{\n      "id": {_quote(unit.id)},'
            f'\n      "variants": {_array_text(variants, 8)}'
            "\n    }"
        )
    connections = ""
    if model.connections:
        pairs = [f"[\n      {_quote(a)},\n      {_quote(b)}\n    ]" for a, b in model.connections]
        connections = f'\n  "connections": {_array_text(pairs, 4)},'
    return f'{{{connections}\n  "units": {_array_text(units, 4)}\n}}\n'


# --- allocation scheme ---------------------------------------------------


def _placement(raw: object, numbers: dict) -> Placement:
    obj = _record(raw, numbers, _PLACEMENT)
    return Placement(
        variant=_field(obj, "variant", _count, numbers),
        node=_field(obj, "node", _str, numbers),
    )


def _scheme(raw: object, numbers: dict) -> AllocationScheme:
    root = _record(raw, numbers, _SCHEME)
    status = _field(root, "status", _str, numbers)
    if status not in STATUSES:
        raise _Fault(f"expected one of {', '.join(STATUSES)}", ".status")
    objective = None
    if root.get("objective_ms") is not None:
        objective = _field(root, "objective_ms", _number, numbers)
    placements = _field(root, "placements", partial(_map, read=_placement), numbers, {})
    return AllocationScheme(status=status, objective_ms=objective, placements=placements)


def parse_scheme(text: str) -> AllocationScheme:
    return _parse(text, _scheme)


def dump_scheme(scheme: AllocationScheme) -> str:
    """The canonical JSON text of {"status", "objective_ms": a number or
    null, "placements": {unit id: {"variant", "node"}}}, rendered like
    `dump_compacted`."""
    objective = "null"
    if scheme.objective_ms is not None:
        objective = f'"{format_number(scheme.objective_ms)}"'
    placements = [
        f'{_quote(unit_id)}: {{\n      "node": {_quote(p.node)},'
        f'\n      "variant": {p.variant:d}\n    }}'
        for unit_id, p in sorted(scheme.placements.items())
    ]
    return (
        f'{{\n  "objective_ms": {objective},'
        f'\n  "placements": {_array_text(placements, 4, "{}")},'
        f'\n  "status": {_quote(scheme.status)}\n}}\n'
    )


# --- component assignment ------------------------------------------------


def _assignment(raw: object, numbers: dict) -> dict[str, str]:
    root = _record(raw, numbers, _ASSIGNMENT)
    return _field(root, "assignments", partial(_map, read=_str), numbers)


def parse_assignment(text: str) -> dict[str, str]:
    return _parse(text, _assignment)


def dump_assignment(assignment: dict[str, str]) -> str:
    """The canonical JSON text of {"assignments": {component id: node id}},
    rendered like `dump_compacted`."""
    pairs = [f"{_quote(c)}: {_quote(node)}" for c, node in sorted(assignment.items())]
    return f'{{\n  "assignments": {_array_text(pairs, 4, "{}")}\n}}\n'


def parse_weights(text: str) -> dict[str, Fraction]:
    return _parse(text, partial(_map, read=_number))


# --- output --------------------------------------------------------------


def write_atomic(path: str | os.PathLike, text: str) -> None:
    target = Path(path)
    tmp = target.parent / f"{target.name}.{os.urandom(8).hex()}.tmp"
    # O_EXCL never opens an existing file; the umask applies to 0o666
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
