"""Export the allocation problem as a MILP in CPLEX LP text format.

One binary variable x_u<i>_v<j>_h<l> per (unit, variant, node) triple,
one assignment equality per unit, and mem/cpu/gpu capacity rows per node
with the compacted-layer reading (every resource sums across units).
Indices follow model and platform order; a comment header maps them back
to ids, which keeps variable names safe for any solver regardless of
what characters the ids contain.

Every coefficient and right-hand side is an integer: the numbers are the
solver's own scaling (`solver._scale`), so the LP is exact for any
rational input.  Each mem and cpu row is multiplied through by its
resource's common denominator, which leaves its feasible set unchanged.
The objective is the weighted exec_ms times the lcm of their
denominators; when that lcm is not 1 the header says so with a line
`\\ objective_ms = obj / <lcm>`.  A model whose values are all integers
scales by 1 and needs no such line.

Every row is laid out one term per line, so lines stay short whatever
the model's size: the row's first term on a line indented by two
columns, each later term on its own line as `  + <coef> <var>`, and the
relation and right-hand side after the last term.
"""

from __future__ import annotations

from .compaction import HighLayerModel
from .model import Platform
from .solver import SolverConfig, SolverError, _scale

__all__ = ["export_lp"]

# where a row template has the node index: no variable name or number has it
_HOST = "@"


def _terms(coefs: list[int], columns: list[str]) -> list[str]:
    """`<coef> x_u<i>_v<j>_h` for each non-zero coefficient; the node
    index is appended per row."""
    return [f"{c} {column}" for c, column in zip(coefs, columns) if c]


def _row(terms: list[str], hosts: list[str]) -> str:
    """The row's terms, one per line; a row with no term reads `0 x_u0_v0_h0`."""
    parts = [f"{term}{h}" for term in terms for h in hosts]
    return "  " + "\n  + ".join(parts or ["0 x_u0_v0_h0"])


def export_lp(
    model: HighLayerModel,
    platform: Platform,
    config: SolverConfig | None = None,
) -> str:
    scaled = _scale(model, platform, config or SolverConfig())
    if not scaled.unit_ids:
        raise SolverError("nothing to export: the model has no units")
    if not scaled.node_ids:
        raise SolverError("nothing to export: the platform has no nodes")
    nv, off, vmem, vcpu, vgpu, vcost, cap_mem, cap_cpu, cap_gpu = scaled.kernel_args
    hosts = [str(h) for h in range(len(scaled.node_ids))]
    columns = [f"x_u{u}_v{v}_h" for u, n in enumerate(nv) for v in range(n)]

    out = [f"\\ allocation MILP: {len(nv)} units, {len(hosts)} nodes"]
    out += [f"\\ u{u} = {unit_id}" for u, unit_id in enumerate(scaled.unit_ids)]
    out += [f"\\ h{h} = {node_id}" for h, node_id in enumerate(scaled.node_ids)]
    if scaled.cost_den != 1:
        out.append(f"\\ objective_ms = obj / {scaled.cost_den}")
    out += ["Minimize", " obj:", _row(_terms(vcost, columns), hosts)]

    out.append("Subject To")
    for u, (n, start) in enumerate(zip(nv, off)):
        out.append(f" assign_u{u}:")
        out.append(_row(_terms([1] * n, columns[start : start + n]), hosts) + " = 1")
    # each capacity row is laid out once, with _HOST for the node index
    rows = (
        ("mem", _row(_terms(vmem, columns), [_HOST]), cap_mem),
        ("cpu", _row(_terms(vcpu, columns), [_HOST]), cap_cpu),
        ("gpu", _row(_terms(vgpu, columns), [_HOST]), cap_gpu),
    )
    for h, host in enumerate(hosts):
        for label, row, cap in rows:
            out.append(f" {label}_h{h}:")
            out.append(row.replace(_HOST, host) + f" <= {cap[h]}")

    out.append("Binary")
    out += [f" {column}{h}" for column in columns for h in hosts]
    out.append("End")
    return "\n".join(out) + "\n"
