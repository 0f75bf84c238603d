"""Seeded input generator for the three benchmark workloads.

Everything here builds plain JSON-ready dicts in the package's model file
format; the program only ever sees the files written from them.  Numbers
are drawn as whole hundredths, so every value is an exact decimal string
and the solver's common denominators stay small.

Each generator takes its own `random.Random`, seeded from a string that
names the family and the seed, so one workload's inputs never depend on
how many draws another workload made.

Both families draw their models from fixed seeds and let `--seed` pick
only whole-number scale factors for mem, CPU, GPU threads and exec_ms
(see `scaled`): the exact solver does the same work at every scale, so
every seed gives the same amount of work in other units.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# Large models: unit count of each.  The last model is past the
# Python kernels' recursion depth; it is not scaled either, so the
# operation that fails on it is the same in every run.
LARGE_SET_SEED = 11
LARGE_SIZES = (300, 550, 800)
LARGE_OVERSIZE = 1100
LARGE_SLACK = Fraction(30, 100)
LARGE_NODES = (6, 12)
# contiguous_gpu_segment units per model, and their chain lengths
LARGE_CONTIGUOUS = 2
LARGE_CONTIGUOUS_LEN = (12, 14)

TIGHT_SET_SEED = 1
TIGHT_INSTANCES = 10
TIGHT_UNITS = (12, 16)
TIGHT_VARIANTS = (2, 4)
TIGHT_NODES = (5, 6)
TIGHT_SLACK = Fraction(10, 100)
SCALE_RANGE = (1, 4)


def rng_for(family: str, seed: int) -> random.Random:
    return random.Random(f"mvalloc-perfbench/{family}/{seed}")


def num(value: Fraction) -> str:
    """Exact decimal text for a non-negative value with a denominator
    dividing 100."""
    hundredths = value * 100
    if hundredths.denominator != 1:
        raise ValueError(f"{value} is not a whole number of hundredths")
    k = hundredths.numerator
    if k % 100 == 0:
        return str(k // 100)
    return f"{k // 100}.{k % 100:02d}".rstrip("0")


def _h(rng: random.Random, lo: int, hi: int) -> Fraction:
    """A value drawn uniformly in [lo, hi] hundredths."""
    return Fraction(rng.randint(lo, hi), 100)


@dataclass
class Case:
    """One generated model, plus what the generator knows about it."""

    name: str
    model: dict
    units: int
    # planted optimum (large models only): sum of the cheapest variants
    planted_ms: Fraction | None = None
    # unit id -> ordered list of member lists, in the program's
    # documented enumeration order
    variants: dict[str, list[list[str]]] = field(default_factory=dict)

    def text(self) -> str:
        return json.dumps(self.model, indent=1, sort_keys=True) + "\n"


# --- components -------------------------------------------------------------


def _component(cid: str, function: str, gpu: bool, mem, cpu, threads, exec_ms) -> dict:
    return {
        "id": cid,
        "kind": "GPU" if gpu else "CPU",
        "function": function,
        "mem": num(mem),
        "cpu": num(cpu),
        "gpu_threads": threads if gpu else 0,
        "exec_ms": num(exec_ms),
    }


def _version_pair(rng: random.Random, function: str) -> tuple[dict, dict]:
    """A CPU and a GPU implementation of one function; the GPU one is
    faster and lighter on the CPU but needs threads and more memory."""
    cpu_exec = _h(rng, 100, 2000)
    cpu_c = _component(
        f"{function}_c", function, False,
        _h(rng, 100, 4000), _h(rng, 1, 20), 0, cpu_exec,
    )
    gpu_c = _component(
        f"{function}_g", function, True,
        _h(rng, 200, 6000), _h(rng, 1, 8), rng.randint(1, 8) * 64,
        _ceil_h(cpu_exec * rng.randint(30, 70) / 100),
    )
    return cpu_c, gpu_c


def _props(members: list[str], comps: dict[str, dict]) -> tuple[Fraction, Fraction, int, Fraction]:
    """(mem, cpu, gpu_threads, exec_ms) of one variant: sums, threads max."""
    mem = cpu = exec_ms = Fraction(0)
    threads = 0
    for cid in members:
        c = comps[cid]
        mem += Fraction(c["mem"])
        cpu += Fraction(c["cpu"])
        exec_ms += Fraction(c["exec_ms"])
        threads = max(threads, c["gpu_threads"])
    return mem, cpu, threads, exec_ms


def _chain(members: list[str]) -> dict:
    return {
        "components": list(members),
        "connections": [[members[i], members[i + 1]] for i in range(len(members) - 1)],
    }


def _contiguous_choices(length: int) -> list[tuple[int, ...]]:
    """Version choices (0 = GPU, 1 = CPU, the version group order) whose
    GPU positions form one contiguous run, in the order of the filtered
    cartesian product."""
    choices = [tuple([1] * length)]
    for start in range(length):
        for end in range(start, length):
            choices.append(tuple(0 if start <= i <= end else 1 for i in range(length)))
    return sorted(choices)


def _all_choices(length: int) -> list[tuple[int, ...]]:
    return sorted(
        tuple((bits >> (length - 1 - i)) & 1 for i in range(length))
        for bits in range(2**length)
    )


# --- large planted models ---------------------------------------------------


def _large_model(shape: random.Random, values: random.Random, name: str, n_units: int) -> Case:
    """A detailed model of n_units units.  `shape` draws the structure
    (policies, chain lengths, node count); `values` draws every number and
    the planted packing."""
    comps: dict[str, dict] = {}
    groups: dict[str, list[str]] = {}
    specs: list[dict] = []
    singletons: list[str] = []
    variants: dict[str, list[list[str]]] = {}

    def chain_functions(prefix: str, length: int) -> list[str]:
        functions = []
        for j in range(length):
            function = f"{prefix}f{j}"
            cpu_c, gpu_c = _version_pair(values, function)
            comps[cpu_c["id"]] = cpu_c
            comps[gpu_c["id"]] = gpu_c
            # GPU version first: variant 0 of a generated unit is then the
            # all-GPU, fastest one, and the search finds the planted
            # optimum on its first descent
            groups[function] = [gpu_c["id"], cpu_c["id"]]
            functions.append(function)
        return functions

    n_multi = n_units // 8
    for i in range(n_units):
        if i < n_multi:
            uid = f"U{i}"
            if i < LARGE_CONTIGUOUS:
                policy = "contiguous_gpu_segment"
                length = shape.randint(*LARGE_CONTIGUOUS_LEN)
                choices = _contiguous_choices(length)
            else:
                policy = shape.choice(("declared", "all_combinations"))
                length = shape.randint(2, 4)
                choices = _all_choices(length)
            functions = chain_functions(f"{uid}_", length)
            members = [
                [groups[f][bit] for f, bit in zip(functions, choice)] for choice in choices
            ]
            spec = {"id": uid, "policy": policy}
            if policy == "declared":
                count = shape.randint(2, 4)
                # listed fastest first, as for the generated policies
                picked = shape.sample(members, count)
                members = sorted(picked, key=lambda m: _props(m, comps)[3])
                spec["alternatives"] = [_chain(m) for m in members]
            else:
                spec["topology"] = functions
            specs.append(spec)
            variants[uid] = members
        else:
            uid = f"S{i}"
            gpu = shape.random() < 0.1
            comps[uid] = _component(
                uid, uid, gpu, _h(values, 50, 3000), _h(values, 1, 15),
                values.randint(1, 4) * 64, _h(values, 50, 1500),
            )
            singletons.append(uid)
            variants[uid] = [[uid]]

    # Plant a packing of every unit's cheapest variant on random eligible
    # nodes; capacities are that packing's load plus the slack.
    k = shape.randint(*LARGE_NODES)
    gpu_nodes = sorted(shape.sample(range(k), (k + 1) // 2))
    load = [[Fraction(0), Fraction(0), 0] for _ in range(k)]
    planted = Fraction(0)
    for members in variants.values():
        props = [_props(m, comps) for m in members]
        mem, cpu, threads, exec_ms = min(props, key=lambda p: p[3])
        planted += exec_ms
        h = values.choice(gpu_nodes if threads else range(k))
        load[h][0] += mem
        load[h][1] += cpu
        load[h][2] += threads
    nodes = []
    for h, (mem, cpu, threads) in enumerate(load):
        nodes.append(
            {
                "id": f"N{h}",
                "use_mem": num(_ceil_h(mem * (1 + LARGE_SLACK) + 10)),
                "use_cpu": num(_ceil_h(cpu * (1 + LARGE_SLACK) + Fraction(1, 10))),
                "use_gpu": int(threads * (1 + LARGE_SLACK)) + 512 if h in gpu_nodes else 0,
            }
        )
    unit_ids = [s["id"] for s in specs] + singletons
    connections = [[unit_ids[i], unit_ids[i + 1]] for i in range(0, len(unit_ids) - 1, 7)]
    model = {
        "repository": {"components": list(comps.values()), "version_groups": groups},
        "platform": {"nodes": nodes},
        "architecture": {"units": specs, "singletons": singletons, "connections": connections},
    }
    return Case(name=name, model=model, units=n_units, planted_ms=planted, variants=variants)


def _ceil_h(value: Fraction) -> Fraction:
    """Round up to whole hundredths."""
    return Fraction(-(-value.numerator * 100 // value.denominator), 100)


def large_cases(seed: int) -> list[Case]:
    """The models are drawn from a fixed seed: their search and set-up
    costs move with the drawn numbers, by up to 40% between seeds on
    the smallest model.  The seed picks the scale factors."""
    scale = scale_factors(rng_for("large_pipeline", seed))
    values = rng_for("large_pipeline", LARGE_SET_SEED)
    cases = [
        scaled(_large_model(rng_for("large_pipeline/shape", i), values, f"large{i}", n), scale)
        for i, n in enumerate(LARGE_SIZES)
    ]
    fixed = rng_for("large_pipeline/oversize", 0)
    return cases + [_large_model(fixed, fixed, "large_over", LARGE_OVERSIZE)]


# --- scaling ------------------------------------------------------------------


def scale_factors(rng: random.Random) -> tuple[int, int, int, int]:
    """Whole-number factors for mem, CPU, GPU threads and exec_ms."""
    return tuple(rng.randint(*SCALE_RANGE) for _ in range(4))


def scaled(case: Case, scale: tuple[int, int, int, int]) -> Case:
    """The case with every component's mem, cpu, gpu_threads and exec_ms,
    and every node's capacities, multiplied by `scale`.  Whole-number
    factors keep every figure a whole number of hundredths, and the scaled
    model is exactly the unscaled one in other units."""
    s_mem, s_cpu, s_gpu, s_exec = scale
    model = copy.deepcopy(case.model)
    for c in model["repository"]["components"]:
        c["mem"] = num(Fraction(c["mem"]) * s_mem)
        c["cpu"] = num(Fraction(c["cpu"]) * s_cpu)
        c["gpu_threads"] *= s_gpu
        c["exec_ms"] = num(Fraction(c["exec_ms"]) * s_exec)
    for n in model["platform"]["nodes"]:
        n["use_mem"] = num(Fraction(n["use_mem"]) * s_mem)
        n["use_cpu"] = num(Fraction(n["use_cpu"]) * s_cpu)
        n["use_gpu"] *= s_gpu
    planted = None if case.planted_ms is None else case.planted_ms * s_exec
    return Case(case.name, model, case.units, planted, case.variants)


# --- tight packings ---------------------------------------------------------


def _tight_model(rng: random.Random, name: str) -> Case:
    """12-16 units of 2-4 single-component variants on 5-6 nodes, with
    capacities 10% above one random feasible packing."""
    n = rng.randint(*TIGHT_UNITS)
    k = rng.randint(*TIGHT_NODES)
    gpu_nodes = sorted(rng.sample(range(k), rng.randint(2, k - 2)))
    comps: dict[str, dict] = {}
    specs = []
    variants: dict[str, list[list[str]]] = {}
    load = [[Fraction(0), Fraction(0), 0] for _ in range(k)]
    for u in range(n):
        uid = f"T{u}"
        members = []
        for v in range(rng.randint(*TIGHT_VARIANTS)):
            gpu = v > 0 and rng.random() < 0.5
            cid = f"{uid}_v{v}"
            comps[cid] = _component(
                cid, f"{uid}_f", gpu,
                _h(rng, 100, 5000), _h(rng, 5, 60),
                rng.randint(1, 8) * 64, _h(rng, 100, 3000),
            )
            members.append([cid])
        specs.append({"id": uid, "policy": "declared", "alternatives": [_chain(m) for m in members]})
        variants[uid] = members
        mem, cpu, threads, _ = _props(rng.choice(members), comps)
        h = rng.choice(gpu_nodes if threads else range(k))
        load[h][0] += mem
        load[h][1] += cpu
        load[h][2] += threads
    nodes = []
    for h, (mem, cpu, threads) in enumerate(load):
        nodes.append(
            {
                "id": f"N{h}",
                "use_mem": num(_ceil_h(mem * (1 + TIGHT_SLACK))),
                "use_cpu": num(_ceil_h(cpu * (1 + TIGHT_SLACK))),
                "use_gpu": int(threads * (1 + TIGHT_SLACK)) if h in gpu_nodes else 0,
            }
        )
    model = {
        "repository": {"components": list(comps.values())},
        "platform": {"nodes": nodes},
        "architecture": {"units": specs},
    }
    return Case(name=name, model=model, units=n, variants=variants)


def tight_cases(seed: int) -> list[Case]:
    """The instance set is drawn from one fixed seed: search cost on tight
    packings is heavy-tailed, so a set drawn per seed would change the
    total several-fold between seeds.  The seed picks the scale factors."""
    scale = scale_factors(rng_for("tight_search", seed))
    rng = rng_for("tight_search/instances", TIGHT_SET_SEED)
    return [scaled(_tight_model(rng, f"tight{i}"), scale) for i in range(TIGHT_INSTANCES)]


# --- the robot ----------------------------------------------------------------


def robot_cases(robot_text: str) -> list[Case]:
    """The bundled robot model, and a copy with a second GPU node G2 equal
    to H1.  These inputs are fixed; they do not depend on the seed."""
    base = json.loads(robot_text)
    g2 = json.loads(robot_text)
    h1 = next(n for n in g2["platform"]["nodes"] if n["id"] == "H1")
    g2["platform"]["nodes"].append(dict(h1, id="G2"))
    cases = []
    for name, model in (("robot", base), ("robot_g2", g2)):
        variants = declared_variants(model)
        cases.append(Case(name=name, model=model, units=len(variants), variants=variants))
    return cases


def declared_variants(model: dict) -> dict[str, list[list[str]]]:
    """Unit id -> member lists of a model whose units are all declared,
    units first and singletons after, as the program orders them."""
    arch = model["architecture"]
    variants = {}
    for spec in arch["units"]:
        if spec["policy"] != "declared":
            raise ValueError(f"unit {spec['id']} is not declared")
        variants[spec["id"]] = [list(alt["components"]) for alt in spec["alternatives"]]
    variants.update({cid: [[cid]] for cid in arch.get("singletons", [])})
    return variants


def write_cases(cases: list[Case], directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for case in cases:
        path = directory / f"{case.name}.json"
        path.write_text(case.text(), encoding="utf-8")
        paths[case.name] = path
    return paths
