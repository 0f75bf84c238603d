"""JSON file formats and atomic output.

Four formats: model (repository + platform + optional architecture),
compacted model, allocation scheme, and component assignment.  Each record
is stated once, as a table of its keys in reading order, each with its
reader and its default; `_fields` walks the table.  Parsing is strict: an
unknown key is an error before any field is read, numbers must be
integers or strings of the grammar in mvalloc.rationals, counts
(`gpu_threads`, `use_gpu`, `variant`) must be JSON integers, and every
error carries the path to the offending field.  Of several faults the one
read first is reported: a component reads kind, id, function, mem, cpu,
gpu_threads, exec_ms, a unit spec topology, alternatives, id, policy, and
a scheme status, objective_ms, placements.  A reader raises a fault
without its path, and each reader the fault passes on its way out adds
its own step, so a path is built only for a document that has a fault.
Number strings are parsed once per document, through a memo that lives
for one `parse_*` call.  The bulk records, components and compacted
variants, are built by direct reads when they hold exactly their
table's keys, each value of its type; any other such record, and any
fault met on the way, goes to the walk, so the tables stay the one
statement of each format.

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
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested deeper than the decoder reads") from exc
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


def _record(raw: object, numbers: dict) -> dict:
    if not isinstance(raw, dict):
        raise _Fault("expected an object")
    return raw


_REQUIRED = object()


def _fields(raw: object, numbers: dict, table: dict) -> list:
    """The values of the record `raw`, one per key of `table` in its
    order, where the table maps each key to (reader, default): the value
    is `read(raw[key], numbers)` at path .key, or for an absent key None
    or `default()`.  A key the table does not hold (the first in sorted
    order) and an absent `_REQUIRED` key are errors."""
    raw = _record(raw, numbers)
    if not raw.keys() <= table.keys():
        raise _Fault(f"unknown field {min(raw.keys() - table.keys())!r}")
    values = []
    for key, (read, default) in table.items():
        if key in raw:
            try:
                values.append(read(raw[key], numbers))
            except _Fault as fault:
                fault.where.append(f".{key}")
                raise
        elif default is _REQUIRED:
            raise _Fault(f"missing field {key!r}")
        else:
            values.append(None if default is None else default())
    return values


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


def _put_demand(demand: ResourceDemand, out: dict) -> dict:
    """`out` with the fields of `_DEMAND` added."""
    out["mem"] = format_number(demand.mem)
    out["cpu"] = format_number(demand.cpu)
    out["gpu_threads"] = operator.index(demand.gpu_threads)
    out["exec_ms"] = format_number(demand.exec_ms)
    return out


# --- model ---------------------------------------------------------------


_KINDS = {kind.value: kind for kind in Kind}


def _kind(raw: object, numbers: dict) -> Kind:
    kind = _KINDS.get(_str(raw, numbers))
    if kind is None:
        raise _Fault(f"expected CPU or GPU, got {raw!r}")
    return kind


def _component(raw: object, numbers: dict) -> Component:
    """Read by direct reads when `raw` has exactly the keys of
    `_COMPONENT`, each value of its type; anything else, and any fault
    on the way, goes to the table walk, which reports it at its path."""
    try:
        if type(raw) is dict and len(raw) == len(_COMPONENT):
            component_id, function, threads = raw["id"], raw["function"], raw["gpu_threads"]
            if type(component_id) is str and type(function) is str and type(threads) is int:
                demand = ResourceDemand(_number(raw["mem"], numbers), _number(raw["cpu"], numbers),
                                        threads, _number(raw["exec_ms"], numbers))
                return Component(component_id, _kind(raw["kind"], numbers), function, demand)
    except (KeyError, _Fault):
        pass
    kind, component_id, function, *demand = _fields(raw, numbers, _COMPONENT)
    return Component(component_id, kind, function, ResourceDemand(*demand))


def _repository(raw: object, numbers: dict) -> Repository:
    return Repository(*_fields(raw, numbers, _REPOSITORY))


def _node(raw: object, numbers: dict) -> HardwareNode:
    return HardwareNode(*_fields(raw, numbers, _NODE))


def _platform(raw: object, numbers: dict) -> Platform:
    return Platform(*_fields(raw, numbers, _PLATFORM))


def _assembly(raw: object, numbers: dict) -> Assembly:
    return Assembly(*_fields(raw, numbers, _ASSEMBLY))


def _unit_spec(raw: object, numbers: dict) -> UnitSpec:
    topology, alternatives, unit_id, policy = _fields(raw, numbers, _UNIT_SPEC)
    return UnitSpec(unit_id, policy, topology, alternatives)


def _architecture(raw: object, numbers: dict) -> SystemArchitecture:
    return SystemArchitecture(*_fields(raw, numbers, _ARCHITECTURE))


# Each record's keys in reading order (its constructor's argument order but
# for the component's and unit spec's); a default type makes a fresh 0, [] or {}.
_DEMAND = {"mem": (_number, _REQUIRED), "cpu": (_number, _REQUIRED), "gpu_threads": (_count, int),
           "exec_ms": (_number, _REQUIRED)}  # a component's or compacted variant's demand
_COMPONENT = {"kind": (_kind, _REQUIRED), "id": (_str, _REQUIRED), "function": (_str, _REQUIRED), **_DEMAND}
_REPOSITORY = {"components": (partial(_array, read=_component), _REQUIRED),
               "version_groups": (partial(_map, read=_strings), dict)}
_NODE = {"id": (_str, _REQUIRED), "use_mem": (_number, _REQUIRED), "use_cpu": (_number, _REQUIRED),
         "use_gpu": (_count, int)}
_PLATFORM = {"nodes": (partial(_array, read=_node), _REQUIRED)}
_CONNECTIONS = (partial(_array, read=_pair), list)
_ASSEMBLY = {"components": (_strings, _REQUIRED), "connections": _CONNECTIONS}
_UNIT_SPEC = {"topology": (_strings, None), "alternatives": (partial(_array, read=_assembly), None),
              "id": (_str, _REQUIRED), "policy": (_str, _REQUIRED)}
_ARCHITECTURE = {"units": (partial(_array, read=_unit_spec), list), "singletons": (_strings, list),
                 "connections": _CONNECTIONS}
_MODEL = {"repository": (_repository, _REQUIRED), "platform": (_platform, _REQUIRED),
          "architecture": (_architecture, None)}


def parse_model(text: str) -> tuple[Repository, Platform, SystemArchitecture | None]:
    return tuple(_parse(text, partial(_fields, table=_MODEL)))


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
    """Read by direct reads like `_component`, else by the table walk."""
    try:
        if type(raw) is dict and len(raw) == len(_VARIANT) and type(raw["gpu_threads"]) is int:
            demand = ResourceDemand(_number(raw["mem"], numbers), _number(raw["cpu"], numbers),
                                    raw["gpu_threads"], _number(raw["exec_ms"], numbers))
            return Variant(_strings(raw["members"], numbers), demand)
    except (KeyError, _Fault):
        pass
    members, *demand = _fields(raw, numbers, _VARIANT)
    return Variant(members, ResourceDemand(*demand))


def _unit(raw: object, numbers: dict) -> MultiVariantUnit:
    unit = MultiVariantUnit(*_fields(raw, numbers, _UNIT))
    if not unit.variants:
        raise _Fault("a unit needs at least one variant", ".variants")
    return unit


_VARIANT = {"members": (_strings, _REQUIRED), **_DEMAND}
_UNIT = {"id": (_str, _REQUIRED), "variants": (partial(_array, read=_variant), _REQUIRED)}
_COMPACTED = {"units": (partial(_array, read=_unit), _REQUIRED), "connections": _CONNECTIONS}


def parse_compacted(text: str) -> HighLayerModel:
    return HighLayerModel(*_parse(text, partial(_fields, table=_COMPACTED)))


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
    [{"members", and the fields of `_DEMAND`}]}], "connections": [[a,
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
    return Placement(*_fields(raw, numbers, _PLACEMENT))


def _status(raw: object, numbers: dict) -> str:
    status = _str(raw, numbers)
    if status not in STATUSES:
        raise _Fault(f"expected one of {', '.join(STATUSES)}")
    return status


def _objective(raw: object, numbers: dict) -> Fraction | None:
    return None if raw is None else _number(raw, numbers)


_PLACEMENT = {"variant": (_count, _REQUIRED), "node": (_str, _REQUIRED)}
_SCHEME = {"status": (_status, _REQUIRED), "objective_ms": (_objective, None),
           "placements": (partial(_map, read=_placement), dict)}


def parse_scheme(text: str) -> AllocationScheme:
    return AllocationScheme(*_parse(text, partial(_fields, table=_SCHEME)))


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


_ASSIGNMENT = {"assignments": (partial(_map, read=_str), _REQUIRED)}


def parse_assignment(text: str) -> dict[str, str]:
    return _parse(text, partial(_fields, table=_ASSIGNMENT))[0]


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
