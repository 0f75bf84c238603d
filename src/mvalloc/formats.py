"""JSON file formats and atomic output.

Four formats: model (repository + platform + optional architecture),
compacted model, allocation scheme, and component assignment.  Parsing is
strict: unknown fields are rejected, numbers must be integers or strings
(see mvalloc.rationals), and every error carries the path to the
offending field.  Serialization is canonical: exactly `json.dumps(data,
indent=2, sort_keys=True, separators=(",", ": "))` and a newline, so the
same data always gives the same bytes.

The scheme's records and status names come from `compaction`, so
reading and writing files never loads the solver.

Files are written through `write_atomic`, temp-file-then-rename in the
target directory, so readers never observe a partial file.  A new file
gets the mode `open` would give it: 0o666 less the umask.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields
from fractions import Fraction
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
from .rationals import format_number, parse_count, parse_number

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


def _loads(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _arr(value: object, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected an array")
    return value


def _str(value: object, path: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{path}: expected a string")
    return value


def _number(value: object, path: str) -> Fraction:
    try:
        return parse_number(value)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _count(value: object, path: str) -> int:
    try:
        return parse_count(value)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


_REQUIRED = object()
# a component's or compacted variant's demand fields: ResourceDemand's attributes
_DEMAND = tuple(f.name for f in fields(ResourceDemand))
_COMPONENT = ("id", "kind", "function", *_DEMAND)
_VARIANT = ("members", *_DEMAND)


def _record(raw: object, path: str, known: tuple[str, ...] | None = None) -> dict:
    """`raw` as an object; with `known`, one whose keys all are in it (the
    first unknown key in sorted order is reported)."""
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: expected an object")
    unknown = known and raw.keys() - known
    if unknown:
        raise ParseError(f"{path}: unknown field {min(unknown)!r}")
    return raw


def _field(obj: dict, key: str, path: str, read, default: object = _REQUIRED):
    """`read(obj[key], "path.key")`, or `default` when `key` is absent;
    without a default an absent key is an error.  Each reader reads its
    fields in a fixed order, so a document always reports the same fault."""
    if key in obj:
        return read(obj[key], f"{path}.{key}")
    if default is _REQUIRED:
        raise ParseError(f"{path}: missing field {key!r}")
    return default


def _items(obj: dict, key: str, path: str, read, default: object = _REQUIRED):
    """`_field` for an array: `read` applied to each element at path.key[i]."""
    if key not in obj:
        return _field(obj, key, path, read, default)
    return _array(obj[key], f"{path}.{key}", read)


def _array(raw: object, path: str, read) -> list:
    return [read(value, f"{path}[{i}]") for i, value in enumerate(_arr(raw, path))]


def _map(raw: object, path: str, read) -> dict:
    """An object of any keys, each value read by `read` at path['key']."""
    return {key: read(value, f"{path}[{key!r}]") for key, value in _record(raw, path).items()}


def _strings(raw: object, path: str) -> list[str]:
    return _array(raw, path, _str)


def _pair(raw: object, path: str) -> tuple[str, str]:
    pair = _arr(raw, path)
    if len(pair) != 2:
        raise ParseError(f"{path}: expected a [from, to] pair")
    return _str(pair[0], f"{path}[0]"), _str(pair[1], f"{path}[1]")


def _demand(obj: dict, path: str) -> ResourceDemand:
    """The demand fields of a component or of a compacted variant."""
    return ResourceDemand(
        mem=_field(obj, "mem", path, _number),
        cpu=_field(obj, "cpu", path, _number),
        gpu_threads=_field(obj, "gpu_threads", path, _count, 0),
        exec_ms=_field(obj, "exec_ms", path, _number),
    )


def _put_demand(demand: ResourceDemand, out: dict) -> dict:
    """`out` with the fields `_demand` reads added."""
    out["mem"] = format_number(demand.mem)
    out["cpu"] = format_number(demand.cpu)
    out["gpu_threads"] = demand.gpu_threads
    out["exec_ms"] = format_number(demand.exec_ms)
    return out


# --- model ---------------------------------------------------------------


def _kind(raw: object, path: str) -> Kind:
    kind = _str(raw, path)
    try:
        return Kind(kind)
    except ValueError:
        raise ParseError(f"{path}: expected CPU or GPU, got {kind!r}") from None


def _component(raw: object, path: str) -> Component:
    obj = _record(raw, path, _COMPONENT)
    return Component(
        kind=_field(obj, "kind", path, _kind),
        id=_field(obj, "id", path, _str),
        function=_field(obj, "function", path, _str),
        demand=_demand(obj, path),
    )


def _repository(raw: object, path: str) -> Repository:
    obj = _record(raw, path, ("components", "version_groups"))
    return Repository(
        components=_items(obj, "components", path, _component),
        version_groups=_map(obj.get("version_groups", {}), f"{path}.version_groups", _strings),
    )


def _node(raw: object, path: str) -> HardwareNode:
    obj = _record(raw, path, ("id", "use_mem", "use_cpu", "use_gpu"))
    return HardwareNode(
        id=_field(obj, "id", path, _str),
        use_mem=_field(obj, "use_mem", path, _number),
        use_cpu=_field(obj, "use_cpu", path, _number),
        use_gpu=_field(obj, "use_gpu", path, _count, 0),
    )


def _platform(raw: object, path: str) -> Platform:
    return Platform(nodes=_items(_record(raw, path, ("nodes",)), "nodes", path, _node))


def _assembly(raw: object, path: str) -> Assembly:
    obj = _record(raw, path, ("components", "connections"))
    return Assembly(
        components=_field(obj, "components", path, _strings),
        connections=_items(obj, "connections", path, _pair, []),
    )


def _unit_spec(raw: object, path: str) -> UnitSpec:
    obj = _record(raw, path, ("id", "policy", "topology", "alternatives"))
    return UnitSpec(
        topology=_field(obj, "topology", path, _strings, None),
        alternatives=_items(obj, "alternatives", path, _assembly, None),
        id=_field(obj, "id", path, _str),
        policy=_field(obj, "policy", path, _str),
    )


def _architecture(raw: object, path: str) -> SystemArchitecture:
    obj = _record(raw, path, ("units", "singletons", "connections"))
    return SystemArchitecture(
        units=_items(obj, "units", path, _unit_spec, []),
        singletons=_field(obj, "singletons", path, _strings, []),
        connections=_items(obj, "connections", path, _pair, []),
    )


def parse_model(text: str) -> tuple[Repository, Platform, SystemArchitecture | None]:
    root = _record(_loads(text), "$", ("repository", "platform", "architecture"))
    return (
        _field(root, "repository", "$", _repository),
        _field(root, "platform", "$", _platform),
        _field(root, "architecture", "$", _architecture, None),
    )


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
                    "use_gpu": n.use_gpu,
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
    return _canonical(root)


# --- compacted model -----------------------------------------------------


def _variant(raw: object, path: str) -> Variant:
    obj = _record(raw, path, _VARIANT)
    return Variant(members=_field(obj, "members", path, _strings), props=_demand(obj, path))


def _unit(raw: object, path: str) -> MultiVariantUnit:
    obj = _record(raw, path, ("id", "variants"))
    unit_id = _field(obj, "id", path, _str)
    variants = _items(obj, "variants", path, _variant)
    if not variants:
        raise ParseError(f"{path}.variants: a unit needs at least one variant")
    return MultiVariantUnit(id=unit_id, variants=variants)


def parse_compacted(text: str) -> HighLayerModel:
    root = _record(_loads(text), "$", ("units", "connections"))
    return HighLayerModel(
        units=_items(root, "units", "$", _unit),
        connections=_items(root, "connections", "$", _pair, []),
    )


def dump_compacted(model: HighLayerModel) -> str:
    root: dict = {
        "units": [
            {
                "id": unit.id,
                "variants": [
                    _put_demand(v.props, {"members": list(v.members)}) for v in unit.variants
                ],
            }
            for unit in model.units
        ],
    }
    if model.connections:
        root["connections"] = [[a, b] for a, b in model.connections]
    return _canonical(root)


# --- allocation scheme ---------------------------------------------------


def _placement(raw: object, path: str) -> Placement:
    obj = _record(raw, path, ("variant", "node"))
    return Placement(
        variant=_field(obj, "variant", path, _count), node=_field(obj, "node", path, _str)
    )


def parse_scheme(text: str) -> AllocationScheme:
    root = _record(_loads(text), "$", ("status", "objective_ms", "placements"))
    status = _field(root, "status", "$", _str)
    if status not in STATUSES:
        raise ParseError(f"$.status: expected one of {', '.join(STATUSES)}")
    objective = None
    if root.get("objective_ms") is not None:
        objective = _number(root["objective_ms"], "$.objective_ms")
    placements = _map(root.get("placements", {}), "$.placements", _placement)
    return AllocationScheme(status=status, objective_ms=objective, placements=placements)


def dump_scheme(scheme: AllocationScheme) -> str:
    root = {
        "status": scheme.status,
        "objective_ms": None
        if scheme.objective_ms is None
        else format_number(scheme.objective_ms),
        "placements": {
            unit_id: {"variant": p.variant, "node": p.node}
            for unit_id, p in scheme.placements.items()
        },
    }
    return _canonical(root)


# --- component assignment ------------------------------------------------


def parse_assignment(text: str) -> dict[str, str]:
    root = _record(_loads(text), "$", ("assignments",))
    return _map(_field(root, "assignments", "$", _record), "$.assignments", _str)


def dump_assignment(assignment: dict[str, str]) -> str:
    return _canonical({"assignments": dict(assignment)})


def parse_weights(text: str) -> dict[str, Fraction]:
    return _map(_loads(text), "$", _number)


# --- output --------------------------------------------------------------


def _canonical(root: object) -> str:
    """`json.dumps(root, indent=2, sort_keys=True, separators=(",", ": "))`
    and a newline, written directly: with an indent, json runs its slow
    pure-Python encoder.  Takes dicts with str keys, lists, str, int,
    bool and None; anything else raises TypeError."""
    out: list[str] = []
    _write(root, "\n", out.append)
    return "".join(out) + "\n"


def _write(value: object, newline: str, emit) -> None:
    if isinstance(value, str):
        emit(_quote(value))
    elif value is None or isinstance(value, bool):
        emit("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        emit(int.__repr__(value))
    elif not isinstance(value, (dict, list)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    elif not value:
        emit("{}" if isinstance(value, dict) else "[]")
    else:
        is_dict = isinstance(value, dict)
        inner = newline + "  "
        sep = ("{" if is_dict else "[") + inner
        for key in sorted(value) if is_dict else range(len(value)):
            emit(sep + _quote(key) + ": " if is_dict else sep)
            _write(value[key], inner, emit)
            sep = "," + inner
        emit(newline + ("}" if is_dict else "]"))


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
