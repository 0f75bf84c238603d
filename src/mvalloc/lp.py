"""Export the allocation problem as a MILP in CPLEX LP text format.

One binary variable x_u<i>_v<j>_h<l> per (unit, variant, node) triple,
one assignment equality per unit, and mem/cpu/gpu capacity rows per node
with the compacted-layer reading (every resource sums across units).
Indices follow model and platform order; a comment header maps them back
to ids, which keeps variable names safe for any solver regardless of
what characters the ids contain.

Coefficients are written as exact decimals whenever the rational has a
terminating decimal form, which covers everything produced by our own
file formats; anything else falls back to repr(float(...)) and is then
only as exact as a double.
"""

from __future__ import annotations

from fractions import Fraction

from .compaction import HighLayerModel
from .model import Platform
from .rationals import format_number
from .solver import SolverConfig, SolverError, _check_config, _check_unit_ids

__all__ = ["export_lp"]

_WRAP = 72


def _coef(value: Fraction) -> str:
    text = format_number(value)
    if "/" in text:
        return repr(float(value))
    return text


def _wrap(parts: list[str]) -> str:
    lines = []
    current = " "
    for part in parts:
        if len(current) + len(part) + 1 > _WRAP and current.strip():
            lines.append(current)
            current = "   "
        current += " " + part
    lines.append(current)
    return "\n".join(lines)


def _terms(pairs: list[tuple[Fraction, str]], fallback_var: str) -> list[str]:
    parts: list[str] = []
    for coef, var in pairs:
        if coef == 0:
            continue
        parts.append(f"{_coef(coef)} {var}" if not parts else f"+ {_coef(coef)} {var}")
    if not parts:
        parts.append(f"0 {fallback_var}")
    return parts


def export_lp(
    model: HighLayerModel,
    platform: Platform,
    config: SolverConfig | None = None,
) -> str:
    cfg = config or SolverConfig()
    _check_config(cfg)
    units = model.all_units()
    if not units:
        raise SolverError("nothing to export: the model has no units")
    if not platform.nodes:
        raise SolverError("nothing to export: the platform has no nodes")
    _check_unit_ids(units, cfg)

    def var(u: int, v: int, h: int) -> str:
        return f"x_u{u}_v{v}_h{h}"

    first_var = var(0, 0, 0)
    out: list[str] = []
    out.append(f"\\ allocation MILP: {len(units)} units, {len(platform.nodes)} nodes")
    for u, unit in enumerate(units):
        out.append(f"\\ u{u} = {unit.id}")
    for h, node in enumerate(platform.nodes):
        out.append(f"\\ h{h} = {node.id}")

    objective: list[tuple[Fraction, str]] = []
    for u, unit in enumerate(units):
        weight = cfg.unit_weights.get(unit.id, Fraction(1))
        for v, variant in enumerate(unit.variants):
            cost = weight * variant.props.exec_ms
            for h in range(len(platform.nodes)):
                objective.append((cost, var(u, v, h)))
    out.append("Minimize")
    out.append(" obj:")
    out.append(_wrap(_terms(objective, first_var)))

    out.append("Subject To")
    for u, unit in enumerate(units):
        ones = [
            (Fraction(1), var(u, v, h))
            for v in range(len(unit.variants))
            for h in range(len(platform.nodes))
        ]
        out.append(f" assign_u{u}:")
        out.append(_wrap(_terms(ones, first_var)) + " = 1")
    for h, node in enumerate(platform.nodes):
        rows = (
            ("mem", lambda p: p.mem, node.use_mem),
            ("cpu", lambda p: p.cpu, node.use_cpu),
            ("gpu", lambda p: Fraction(p.gpu_threads), Fraction(node.use_gpu)),
        )
        for label, pick, cap in rows:
            pairs = [
                (pick(variant.props), var(u, v, h))
                for u, unit in enumerate(units)
                for v, variant in enumerate(unit.variants)
            ]
            out.append(f" {label}_h{h}:")
            out.append(_wrap(_terms(pairs, first_var)) + f" <= {_coef(cap)}")

    out.append("Binary")
    for u, unit in enumerate(units):
        for v in range(len(unit.variants)):
            for h in range(len(platform.nodes)):
                out.append(f" {var(u, v, h)}")
    out.append("End")
    return "\n".join(out) + "\n"
