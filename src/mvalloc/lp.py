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
    """`<coef> x_u<i>_v<j>_h@` for each non-zero coefficient, with _HOST
    where each capacity row puts its node index."""
    return [f"{c} {column}{_HOST}" for c, column in zip(coefs, columns) if c]


def _row(parts: list[str]) -> str:
    """The row's terms, one per line; a row with no term reads `0 x_u0_v0_h0`."""
    return "  " + "\n  + ".join(parts or ["0 x_u0_v0_h0"])


def _times(coef: int, names: list[str]) -> str:
    """The terms `<coef> <name>` of a row, one per line, for every name."""
    return f"{coef} " + f"\n  + {coef} ".join(names)


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
    k = len(hosts)
    columns = [f"x_u{u}_v{v}_h" for u, n in enumerate(nv) for v in range(n)]
    # every variable's name, built once: column i on node h is names[i * k + h]
    names = [f"{column}{h}" for column in columns for h in hosts]

    out = [f"\\ allocation MILP: {len(nv)} units, {k} nodes"]
    out += [f"\\ u{u} = {unit_id}" for u, unit_id in enumerate(scaled.unit_ids)]
    out += [f"\\ h{h} = {node_id}" for h, node_id in enumerate(scaled.node_ids)]
    if scaled.cost_den != 1:
        out.append(f"\\ objective_ms = obj / {scaled.cost_den}")
    objective = [_times(c, names[i * k : i * k + k]) for i, c in enumerate(vcost) if c]
    out += ["Minimize", " obj:", _row(objective)]

    out.append("Subject To")
    for u, (n, start) in enumerate(zip(nv, off)):
        out.append(f" assign_u{u}:")
        out.append(_row([_times(1, names[start * k : (start + n) * k])]) + " = 1")
    # each capacity row is laid out once, with _HOST for the node index
    rows = (
        ("mem", _row(_terms(vmem, columns)), cap_mem),
        ("cpu", _row(_terms(vcpu, columns)), cap_cpu),
        ("gpu", _row(_terms(vgpu, columns)), cap_gpu),
    )
    for h, host in enumerate(hosts):
        for label, row, cap in rows:
            out.append(f" {label}_h{h}:")
            out.append(row.replace(_HOST, host) + f" <= {cap[h]}")

    out += ["Binary", " " + "\n ".join(names), "End"]
    return "\n".join(out) + "\n"
