"""Independent checker for the benchmark's outputs.

Nothing here imports mvalloc.  The checker reads model files as plain
JSON, aggregates variants itself and does all arithmetic in exact
`Fraction`s, so a fault in the program's own checks (solver.check_scheme,
model.check_feasibility) or in its LP export cannot cancel out.

Two readings of capacity are checked, as the program defines them:

- a scheme (compacted layer): every resource, GPU threads included, sums
  over the units placed on a node;
- an assignment (detailed layer): memory and CPU sum over the components
  placed on a node, GPU threads are a peak over them.

Run as a script, it computes reference optima with scipy's HiGHS MILP
solver, built directly from the instance (see `highs_optimum`):

    python3 perfbench/check.py --highs OUT.json MODEL.json [MODEL.json ...]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path


@dataclass(frozen=True)
class Props:
    mem: Fraction
    cpu: Fraction
    gpu_threads: int
    exec_ms: Fraction


@dataclass
class Instance:
    """A model as the checker sees it: component demands, node
    capacities, and every unit's variants as member lists, in the
    order the program documents for its variant indices."""

    comps: dict[str, Props]
    nodes: dict[str, Props]  # exec_ms unused
    units: dict[str, list[list[str]]]

    @classmethod
    def from_model(cls, model: dict, units: dict[str, list[list[str]]]) -> "Instance":
        comps = {
            c["id"]: Props(
                Fraction(c["mem"]), Fraction(c["cpu"]), int(c["gpu_threads"]), Fraction(c["exec_ms"])
            )
            for c in model["repository"]["components"]
        }
        nodes = {
            n["id"]: Props(
                Fraction(n["use_mem"]), Fraction(n["use_cpu"]), int(n.get("use_gpu", 0)), Fraction(0)
            )
            for n in model["platform"]["nodes"]
        }
        return cls(comps=comps, nodes=nodes, units=units)

    def variant(self, members: list[str]) -> Props:
        """Aggregate a variant: mem, cpu and exec_ms sum, threads peak."""
        parts = [self.comps[m] for m in members]
        return Props(
            mem=sum((p.mem for p in parts), Fraction(0)),
            cpu=sum((p.cpu for p in parts), Fraction(0)),
            gpu_threads=max((p.gpu_threads for p in parts), default=0),
            exec_ms=sum((p.exec_ms for p in parts), Fraction(0)),
        )


def _over(load: dict[str, list], inst: Instance) -> list[str]:
    problems = []
    for node_id, (mem, cpu, threads) in load.items():
        cap = inst.nodes[node_id]
        for name, used, limit in (
            ("mem", mem, cap.mem),
            ("cpu", cpu, cap.cpu),
            ("gpu_threads", threads, cap.gpu_threads),
        ):
            if used > limit:
                problems.append(f"node {node_id} over {name}: {used} > {limit}")
    return problems


def scheme_problems(
    status: str,
    objective: Fraction | None,
    placements: dict[str, tuple[int, str]],
    inst: Instance,
    reference_ms: Fraction,
) -> list[str]:
    """Everything wrong with a scheme that claims to be optimal.

    `placements` maps unit id to (variant index, node id).  Checks that
    every unit is placed once on a known node, that node capacities hold
    with every resource summed over units, that the objective is the sum
    of the chosen variants' exec_ms, and that it equals `reference_ms`.
    """
    if status != "optimal":
        return [f"status is {status!r}, not optimal"]
    problems = []
    missing = sorted(set(inst.units) - set(placements))
    extra = sorted(set(placements) - set(inst.units))
    if missing or extra:
        return [f"scheme misses units {missing[:5]} and places unknown units {extra[:5]}"]
    load: dict[str, list] = {}
    total = Fraction(0)
    for unit_id, (variant, node_id) in placements.items():
        variants = inst.units[unit_id]
        if not 0 <= variant < len(variants):
            problems.append(f"unit {unit_id} has no variant {variant}")
            continue
        if node_id not in inst.nodes:
            problems.append(f"unit {unit_id} placed on unknown node {node_id}")
            continue
        p = inst.variant(variants[variant])
        acc = load.setdefault(node_id, [Fraction(0), Fraction(0), 0])
        acc[0] += p.mem
        acc[1] += p.cpu
        acc[2] += p.gpu_threads
        total += p.exec_ms
    problems += _over(load, inst)
    if objective != total:
        problems.append(f"reported objective {objective} but the chosen variants sum to {total}")
    if total != reference_ms:
        problems.append(f"objective {total} is not the optimum {reference_ms}")
    return problems


def unfold(placements: dict[str, tuple[int, str]], inst: Instance) -> tuple[dict[str, str], list[str]]:
    """Members of each unit's chosen variant go to the unit's node; a
    component pulled to two nodes is a conflict."""
    assignment: dict[str, str] = {}
    conflicts = []
    for unit_id, (variant, node_id) in placements.items():
        for member in inst.units[unit_id][variant]:
            previous = assignment.setdefault(member, node_id)
            if previous != node_id:
                conflicts.append(f"component {member} on both {previous} and {node_id}")
    return assignment, conflicts


def assignment_problems(assignment: dict[str, str], expected: dict[str, str], inst: Instance) -> list[str]:
    """An unfolded assignment must be the checker's own unfold of the
    scheme and fit the nodes with the detailed layer's reading."""
    if assignment != expected:
        wrong = sorted(k for k in set(assignment) | set(expected) if assignment.get(k) != expected.get(k))
        return [f"assignment differs from the scheme's unfold at {wrong[:5]}"]
    load: dict[str, list] = {}
    for cid, node_id in assignment.items():
        p = inst.comps[cid]
        acc = load.setdefault(node_id, [Fraction(0), Fraction(0), 0])
        acc[0] += p.mem
        acc[1] += p.cpu
        acc[2] = max(acc[2], p.gpu_threads)
    return _over(load, inst)


def compacted_problems(units: list[tuple[str, list[tuple[list[str], Props]]]], inst: Instance) -> list[str]:
    """A compacted model must hold exactly the expected variants, in
    order, each with the aggregate of its members."""
    got = {uid: [members for members, _ in variants] for uid, variants in units}
    if got != inst.units:
        wrong = sorted(u for u in set(got) | set(inst.units) if got.get(u) != inst.units.get(u))
        return [f"compacted variants differ from the expected enumeration at {wrong[:5]}"]
    problems = []
    for uid, variants in units:
        for index, (members, props) in enumerate(variants):
            if props != inst.variant(members):
                problems.append(f"unit {uid} variant {index}: {props} is not its members' aggregate")
    return problems


def lp_problems(text: str, inst: Instance, unit_order: list[str]) -> list[str]:
    """Shape of an exported LP: one binary per (unit, variant, node),
    one assignment row per unit, three capacity rows per node, and a
    header naming the units in model order."""
    lines = text.splitlines()
    try:
        binary = lines.index("Binary")
        end = lines.index("End")
    except ValueError:
        return ["LP text lacks its Binary or End section"]
    problems = []
    want_vars = sum(len(v) for v in inst.units.values()) * len(inst.nodes)
    if end - binary - 1 != want_vars:
        problems.append(f"LP declares {end - binary - 1} binaries, expected {want_vars}")
    assign_rows = sum(1 for ln in lines if ln.startswith(" assign_u") and ln.endswith(":"))
    if assign_rows != len(inst.units):
        problems.append(f"LP has {assign_rows} assignment rows for {len(inst.units)} units")
    cap_rows = sum(1 for ln in lines if ln[:5] in (" mem_", " cpu_", " gpu_") and ln.endswith(":"))
    if cap_rows != 3 * len(inst.nodes):
        problems.append(f"LP has {cap_rows} capacity rows for {len(inst.nodes)} nodes")
    header = [ln.split(" = ", 1)[1] for ln in lines if ln.startswith("\\ u") and " = " in ln]
    if header != unit_order:
        problems.append("LP header does not list the units in model order")
    return problems


# --- HiGHS reference ---------------------------------------------------------


def _scale(values: list[Fraction]) -> int:
    return math.lcm(1, *(v.denominator for v in values))


def highs_optimum(inst: Instance) -> tuple[Fraction | None, dict[str, tuple[int, str]]]:
    """Exact optimum of the compacted-layer problem, via scipy's HiGHS.

    The MILP is built here from the instance (one binary per unit,
    variant and node), with every row multiplied to integers so HiGHS
    sees exact data.  The solution it returns is re-checked in exact
    arithmetic, and the optimum is that solution's exact objective.
    Returns (None, {}) when HiGHS proves the instance infeasible.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    unit_ids = list(inst.units)
    node_ids = list(inst.nodes)
    columns = []  # (unit index, variant index, node index, props)
    for u, uid in enumerate(unit_ids):
        for v, members in enumerate(inst.units[uid]):
            props = inst.variant(members)
            for h in range(len(node_ids)):
                columns.append((u, v, h, props))
    caps = [inst.nodes[n] for n in node_ids]
    scales = {
        "mem": _scale([c[3].mem for c in columns] + [c.mem for c in caps]),
        "cpu": _scale([c[3].cpu for c in columns] + [c.cpu for c in caps]),
        "exec": _scale([c[3].exec_ms for c in columns]),
    }
    n_rows = len(unit_ids) + 3 * len(node_ids)
    a = np.zeros((n_rows, len(columns)))
    lower = np.full(n_rows, -np.inf)
    upper = np.zeros(n_rows)
    cost = np.zeros(len(columns))
    for j, (u, v, h, p) in enumerate(columns):
        cost[j] = int(p.exec_ms * scales["exec"])
        a[u, j] = 1
        base = len(unit_ids) + 3 * h
        a[base, j] = int(p.mem * scales["mem"])
        a[base + 1, j] = int(p.cpu * scales["cpu"])
        a[base + 2, j] = p.gpu_threads
    lower[: len(unit_ids)] = 1
    upper[: len(unit_ids)] = 1
    for h, cap in enumerate(caps):
        base = len(unit_ids) + 3 * h
        upper[base] = int(cap.mem * scales["mem"])
        upper[base + 1] = int(cap.cpu * scales["cpu"])
        upper[base + 2] = cap.gpu_threads
    result = milp(
        cost,
        integrality=np.ones(len(columns)),
        bounds=Bounds(0, 1),
        constraints=LinearConstraint(a, lower, upper),
        options={"mip_rel_gap": 0, "time_limit": 120},
    )
    if result.status == 2:
        return None, {}
    if result.status != 0:
        raise RuntimeError(f"HiGHS did not finish: {result.message}")
    placements = {}
    for j, (u, v, h, _) in enumerate(columns):
        if result.x[j] > 0.5:
            placements[unit_ids[u]] = (v, node_ids[h])
    exact = sum(
        (inst.variant(inst.units[uid][v]).exec_ms for uid, (v, _) in placements.items()),
        Fraction(0),
    )
    problems = scheme_problems("optimal", exact, placements, inst, exact)
    if problems:
        raise RuntimeError(f"HiGHS solution fails the exact check: {problems[:3]}")
    return exact, placements


def main(argv: list[str] | None = None) -> int:
    import gen

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--highs", required=True, help="write {model name: optimum} here")
    parser.add_argument("models", nargs="+", help="model files with declared units only")
    args = parser.parse_args(argv)
    out = {}
    for path in args.models:
        model = json.loads(Path(path).read_text(encoding="utf-8"))
        optimum, _ = highs_optimum(Instance.from_model(model, gen.declared_variants(model)))
        out[Path(path).stem] = None if optimum is None else str(optimum)
    Path(args.highs).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
