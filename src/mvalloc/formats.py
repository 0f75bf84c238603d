"""JSON file formats and atomic output.

Four formats: model (repository + platform + optional architecture),
compacted model, allocation scheme, and component assignment.  Parsing is
strict: unknown fields are rejected, numbers must be integers or strings
(see mvalloc.rationals), and every error carries the path to the
offending field.  Serialization is canonical: exactly `json.dumps(data,
indent=2, sort_keys=True, separators=(",", ": "))` and a newline, so the
same data always gives the same bytes.

Files are written through `write_atomic`, temp-file-then-rename in the
target directory, so readers never observe a partial file.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .compaction import HighLayerModel, MultiVariantUnit, Variant, VariantProperties
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
from .solver import INFEASIBLE, OPTIMAL, TIMED_OUT, AllocationScheme, Placement

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

_STATUSES = (OPTIMAL, INFEASIBLE, TIMED_OUT)


class ParseError(ValueError):
    """Structurally invalid input; the message names the bad field."""


def _loads(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _obj(value: object, path: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{path}: expected an object")
    return value


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


def _reject_unknown(obj: dict, known: tuple[str, ...], path: str) -> None:
    for key in sorted(obj):
        if key not in known:
            raise ParseError(f"{path}: unknown field {key!r}")


def _require(obj: dict, key: str, path: str) -> object:
    if key not in obj:
        raise ParseError(f"{path}: missing field {key!r}")
    return obj[key]


def _pairs(value: object, path: str) -> list[tuple[str, str]]:
    out = []
    for i, entry in enumerate(_arr(value, path)):
        pair = _arr(entry, f"{path}[{i}]")
        if len(pair) != 2:
            raise ParseError(f"{path}[{i}]: expected a [from, to] pair")
        out.append((_str(pair[0], f"{path}[{i}][0]"), _str(pair[1], f"{path}[{i}][1]")))
    return out


# --- model ---------------------------------------------------------------


def _parse_component(raw: object, path: str) -> Component:
    obj = _obj(raw, path)
    _reject_unknown(
        obj, ("id", "kind", "function", "mem", "cpu", "gpu_threads", "exec_ms"), path
    )
    kind_raw = _str(_require(obj, "kind", path), f"{path}.kind")
    try:
        kind = Kind(kind_raw)
    except ValueError:
        raise ParseError(f"{path}.kind: expected CPU or GPU, got {kind_raw!r}") from None
    return Component(
        id=_str(_require(obj, "id", path), f"{path}.id"),
        kind=kind,
        function=_str(_require(obj, "function", path), f"{path}.function"),
        demand=ResourceDemand(
            mem=_number(_require(obj, "mem", path), f"{path}.mem"),
            cpu=_number(_require(obj, "cpu", path), f"{path}.cpu"),
            gpu_threads=_count(obj.get("gpu_threads", 0), f"{path}.gpu_threads"),
            exec_ms=_number(_require(obj, "exec_ms", path), f"{path}.exec_ms"),
        ),
    )


def _parse_assembly(raw: object, path: str) -> Assembly:
    obj = _obj(raw, path)
    _reject_unknown(obj, ("components", "connections"), path)
    components = [
        _str(c, f"{path}.components[{i}]")
        for i, c in enumerate(_arr(_require(obj, "components", path), f"{path}.components"))
    ]
    connections = _pairs(obj.get("connections", []), f"{path}.connections")
    return Assembly(components=components, connections=connections)


def _parse_architecture(raw: object, path: str) -> SystemArchitecture:
    obj = _obj(raw, path)
    _reject_unknown(obj, ("units", "singletons", "connections"), path)
    units = []
    for i, entry in enumerate(_arr(obj.get("units", []), f"{path}.units")):
        upath = f"{path}.units[{i}]"
        uobj = _obj(entry, upath)
        _reject_unknown(uobj, ("id", "policy", "topology", "alternatives"), upath)
        topology = None
        if "topology" in uobj:
            topology = [
                _str(f, f"{upath}.topology[{j}]")
                for j, f in enumerate(_arr(uobj["topology"], f"{upath}.topology"))
            ]
        alternatives = None
        if "alternatives" in uobj:
            alternatives = [
                _parse_assembly(a, f"{upath}.alternatives[{j}]")
                for j, a in enumerate(_arr(uobj["alternatives"], f"{upath}.alternatives"))
            ]
        units.append(
            UnitSpec(
                id=_str(_require(uobj, "id", upath), f"{upath}.id"),
                policy=_str(_require(uobj, "policy", upath), f"{upath}.policy"),
                topology=topology,
                alternatives=alternatives,
            )
        )
    singletons = [
        _str(s, f"{path}.singletons[{i}]")
        for i, s in enumerate(_arr(obj.get("singletons", []), f"{path}.singletons"))
    ]
    connections = _pairs(obj.get("connections", []), f"{path}.connections")
    return SystemArchitecture(units=units, singletons=singletons, connections=connections)


def parse_model(text: str) -> tuple[Repository, Platform, SystemArchitecture | None]:
    root = _obj(_loads(text), "$")
    _reject_unknown(root, ("repository", "platform", "architecture"), "$")
    repo_obj = _obj(_require(root, "repository", "$"), "$.repository")
    _reject_unknown(repo_obj, ("components", "version_groups"), "$.repository")
    components = [
        _parse_component(c, f"$.repository.components[{i}]")
        for i, c in enumerate(
            _arr(_require(repo_obj, "components", "$.repository"), "$.repository.components")
        )
    ]
    groups_obj = _obj(repo_obj.get("version_groups", {}), "$.repository.version_groups")
    version_groups = {}
    for function, members in groups_obj.items():
        gpath = f"$.repository.version_groups[{function!r}]"
        version_groups[function] = [
            _str(m, f"{gpath}[{i}]") for i, m in enumerate(_arr(members, gpath))
        ]
    repo = Repository(components=components, version_groups=version_groups)

    plat_obj = _obj(_require(root, "platform", "$"), "$.platform")
    _reject_unknown(plat_obj, ("nodes",), "$.platform")
    nodes = []
    for i, entry in enumerate(
        _arr(_require(plat_obj, "nodes", "$.platform"), "$.platform.nodes")
    ):
        npath = f"$.platform.nodes[{i}]"
        nobj = _obj(entry, npath)
        _reject_unknown(nobj, ("id", "use_mem", "use_cpu", "use_gpu"), npath)
        nodes.append(
            HardwareNode(
                id=_str(_require(nobj, "id", npath), f"{npath}.id"),
                use_mem=_number(_require(nobj, "use_mem", npath), f"{npath}.use_mem"),
                use_cpu=_number(_require(nobj, "use_cpu", npath), f"{npath}.use_cpu"),
                use_gpu=_count(nobj.get("use_gpu", 0), f"{npath}.use_gpu"),
            )
        )
    platform = Platform(nodes=nodes)

    architecture = None
    if "architecture" in root:
        architecture = _parse_architecture(root["architecture"], "$.architecture")
    return repo, platform, architecture


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
                {
                    "id": c.id,
                    "kind": c.kind.value,
                    "function": c.function,
                    "mem": format_number(c.demand.mem),
                    "cpu": format_number(c.demand.cpu),
                    "gpu_threads": c.demand.gpu_threads,
                    "exec_ms": format_number(c.demand.exec_ms),
                }
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


def parse_compacted(text: str) -> HighLayerModel:
    root = _obj(_loads(text), "$")
    _reject_unknown(root, ("units", "connections"), "$")
    units: list[MultiVariantUnit] = []
    for i, entry in enumerate(_arr(_require(root, "units", "$"), "$.units")):
        upath = f"$.units[{i}]"
        uobj = _obj(entry, upath)
        _reject_unknown(uobj, ("id", "variants"), upath)
        unit_id = _str(_require(uobj, "id", upath), f"{upath}.id")
        variants = []
        raw_variants = _arr(_require(uobj, "variants", upath), f"{upath}.variants")
        if not raw_variants:
            raise ParseError(f"{upath}.variants: a unit needs at least one variant")
        for j, ventry in enumerate(raw_variants):
            vpath = f"{upath}.variants[{j}]"
            vobj = _obj(ventry, vpath)
            _reject_unknown(
                vobj, ("members", "mem", "cpu", "gpu_threads", "exec_ms", "gpu_members"), vpath
            )
            members = [
                _str(m, f"{vpath}.members[{k}]")
                for k, m in enumerate(_arr(_require(vobj, "members", vpath), f"{vpath}.members"))
            ]
            variants.append(
                Variant(
                    members=members,
                    props=VariantProperties(
                        mem=_number(_require(vobj, "mem", vpath), f"{vpath}.mem"),
                        cpu=_number(_require(vobj, "cpu", vpath), f"{vpath}.cpu"),
                        gpu_threads=_count(
                            vobj.get("gpu_threads", 0), f"{vpath}.gpu_threads"
                        ),
                        exec_ms=_number(_require(vobj, "exec_ms", vpath), f"{vpath}.exec_ms"),
                        gpu_member_count=_count(
                            vobj.get("gpu_members", 0), f"{vpath}.gpu_members"
                        ),
                    ),
                )
            )
        units.append(MultiVariantUnit(id=unit_id, variants=variants))
    connections = _pairs(root.get("connections", []), "$.connections")
    return HighLayerModel(units=units, connections=connections)


def dump_compacted(model: HighLayerModel) -> str:
    root: dict = {
        "units": [
            {
                "id": unit.id,
                "variants": [
                    {
                        "members": list(v.members),
                        "mem": format_number(v.props.mem),
                        "cpu": format_number(v.props.cpu),
                        "gpu_threads": v.props.gpu_threads,
                        "exec_ms": format_number(v.props.exec_ms),
                        "gpu_members": v.props.gpu_member_count,
                    }
                    for v in unit.variants
                ],
            }
            for unit in model.units
        ],
    }
    if model.connections:
        root["connections"] = [[a, b] for a, b in model.connections]
    return _canonical(root)


# --- allocation scheme ---------------------------------------------------


def parse_scheme(text: str) -> AllocationScheme:
    root = _obj(_loads(text), "$")
    _reject_unknown(root, ("status", "objective_ms", "placements"), "$")
    status = _str(_require(root, "status", "$"), "$.status")
    if status not in _STATUSES:
        raise ParseError(f"$.status: expected one of {', '.join(_STATUSES)}")
    objective = None
    if root.get("objective_ms") is not None:
        objective = _number(root["objective_ms"], "$.objective_ms")
    placements: dict[str, Placement] = {}
    for unit_id, entry in _obj(root.get("placements", {}), "$.placements").items():
        ppath = f"$.placements[{unit_id!r}]"
        pobj = _obj(entry, ppath)
        _reject_unknown(pobj, ("variant", "node"), ppath)
        placements[unit_id] = Placement(
            variant=_count(_require(pobj, "variant", ppath), f"{ppath}.variant"),
            node=_str(_require(pobj, "node", ppath), f"{ppath}.node"),
        )
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
    root = _obj(_loads(text), "$")
    _reject_unknown(root, ("assignments",), "$")
    out = {}
    for cid, node in _obj(_require(root, "assignments", "$"), "$.assignments").items():
        out[cid] = _str(node, f"$.assignments[{cid!r}]")
    return out


def dump_assignment(assignment: dict[str, str]) -> str:
    return _canonical({"assignments": dict(assignment)})


def parse_weights(text: str) -> dict[str, Fraction]:
    root = _obj(_loads(text), "$")
    return {unit_id: _number(v, f"$[{unit_id!r}]") for unit_id, v in root.items()}


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
    fd, tmp = tempfile.mkstemp(
        dir=target.parent if str(target.parent) else ".",
        prefix=target.name + ".",
        suffix=".tmp",
    )
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
