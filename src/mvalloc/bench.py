"""Scalability benchmark: compacted model against naive baselines.

`generate_system` builds a synthetic processing chain of n + 1
components.  The first n positions exist in a CPU and a GPU version, the
final one only in a CPU version.  Three allocation models are derived
from the same chain: naive all-CPU (every CPU version its own unit),
naive all-GPU (every GPU version its own unit), and the two-variant model
with one unit holding the all-CPU and all-GPU alternatives plus the final
component as a singleton.  `run_bench` times `solve` on each, with the
repetitions interleaved across the models, and reports mean, median and
standard deviation per model.

Everything is driven by one splitmix64 stream so a (seed, n) pair always
produces the same instance on any machine.  The draw order is fixed: for
each chain position i, the CPU version's mem, cpu, exec, then the GPU
version's mem, cpu, threads (its exec is ceil of half the CPU exec, no
draw); then the final component's mem, cpu, exec; then for each of the
six nodes mem and cpu, plus the GPU thread capacity for the first three
nodes, which are the GPU-capable ones and draw their memory from the
larger GPU-node range.  Bounded draws map a raw 64-bit value into the
range by modulo,
whose bias is far below anything observable at these range sizes.  An
instance is kept only if all three models solve to optimality and the
two-variant optimum equals the better naive optimum; a rejected instance
simply consumes its draws and generation continues on the same stream,
so acceptance never breaks reproducibility.  The models are solved in
that order and the first one not solved to optimality settles the
instance.  Each trial solve has a budget of TRIAL_TIME_LIMIT_MS; an
instance whose solve runs out of it is skipped the same way and counted
as timed out, not rejected.  Only a timed-out instance can make the
accepted one depend on the machine.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .compaction import HighLayerModel, build_high_layer
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
from .rationals import format_number
from .solver import OPTIMAL, TIMED_OUT, SolverConfig, solve

__all__ = [
    "SplitMix64",
    "BenchSpec",
    "GeneratedSystem",
    "ModelStats",
    "BenchReport",
    "generate_system",
    "run_bench",
    "format_table",
    "reports_to_json",
]

_MASK = (1 << 64) - 1

# Sampling ranges.  Component demands and plain-node memory follow the
# classic embedded-board figures; GPU-node memory and thread capacity are
# sized so that even at n = 50 the whole GPU chain variant usually fits a
# single node and per-node packing stays slack.  Tight packings would
# poison the timing loop: exact search degenerates when a drawn instance
# is just barely (in)feasible.
COMPONENT_MEM = (1, 100)
COMPONENT_CPU = (1, 10)
COMPONENT_EXEC = (5, 50)
COMPONENT_THREADS = (50, 500)
NODE_MEM = (100, 2500)
NODE_MEM_GPU = (2000, 8000)
NODE_CPU = (100, 800)
NODE_GPU = (8192, 16384)
NODE_COUNT = 6
GPU_NODE_COUNT = 3

# Draws before generation gives up: up to n = 100 an instance came within
# 7 draws (seeds 1-60); at n = 200 none comes, and 50 draws end well
# within a second.
MAX_ATTEMPTS = 50
TRIAL_TIME_LIMIT_MS = 2_000


class SplitMix64:
    """splitmix64: tiny, fast, and identical everywhere."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def draw(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] by modulo reduction."""
        return lo + self.next_u64() % (hi - lo + 1)


@dataclass
class BenchSpec:
    n: int
    seed: int
    repetitions: int = 100
    warmup: int = 5
    backend: str = "auto"


@dataclass
class GeneratedSystem:
    repo: Repository
    platform: Platform
    architecture: SystemArchitecture
    two_variant: HighLayerModel
    naive_cpu: HighLayerModel
    naive_gpu: HighLayerModel
    rejected: int
    timed_out: int


@dataclass
class ModelStats:
    model: str
    mean_ms: float
    median_ms: float
    stddev_ms: float
    objective_ms: str
    visited: int
    times_ms: list[float] = field(repr=False)


@dataclass
class BenchReport:
    n: int
    seed: int
    repetitions: int
    warmup: int
    backend: str  # what the timed solves ran on ("c", "python"), never "auto"
    rejected: int
    timed_out: int
    stats: list[ModelStats]

    def stat(self, model: str) -> ModelStats:
        for entry in self.stats:
            if entry.model == model:
                return entry
        raise KeyError(model)

    @property
    def trend_ok(self) -> bool:
        two = self.stat("two_variant").mean_ms
        return two < self.stat("naive_cpu").mean_ms and two < self.stat("naive_gpu").mean_ms


def _draw_instance(rng: SplitMix64, n: int) -> tuple[Repository, Platform]:
    components = []

    def component(cid: str, kind: Kind, function: str, exec_ms: int | None = None) -> int:
        """Draw mem, cpu, a GPU version's threads, and exec unless given."""
        mem, cpu = rng.draw(*COMPONENT_MEM), rng.draw(*COMPONENT_CPU)
        threads = rng.draw(*COMPONENT_THREADS) if kind is Kind.GPU else 0
        if exec_ms is None:
            exec_ms = rng.draw(*COMPONENT_EXEC)
        demand = ResourceDemand(Fraction(mem), Fraction(cpu), threads, Fraction(exec_ms))
        components.append(Component(cid, kind, function, demand))
        return exec_ms

    groups: dict[str, list[str]] = {}
    for i in range(n):
        exec_cpu = component(f"c{i}_cpu", Kind.CPU, f"f{i}")
        component(f"c{i}_gpu", Kind.GPU, f"f{i}", (exec_cpu + 1) // 2)
        groups[f"f{i}"] = [f"c{i}_cpu", f"c{i}_gpu"]
    component(f"c{n}", Kind.CPU, f"f{n}")
    nodes = []
    for j in range(NODE_COUNT):
        gpu_node = j < GPU_NODE_COUNT
        nmem = rng.draw(*(NODE_MEM_GPU if gpu_node else NODE_MEM))
        ncpu = rng.draw(*NODE_CPU)
        ngpu = rng.draw(*NODE_GPU) if gpu_node else 0
        nodes.append(HardwareNode(f"n{j}", Fraction(nmem), Fraction(ncpu), ngpu))
    return Repository(components=components, version_groups=groups), Platform(nodes=nodes)


def _chain(ids: list[str]) -> Assembly:
    return Assembly(
        components=list(ids),
        connections=[(ids[i], ids[i + 1]) for i in range(len(ids) - 1)],
    )


def _models(repo: Repository, n: int) -> tuple[HighLayerModel, HighLayerModel, HighLayerModel, SystemArchitecture]:
    cpu_ids = [f"c{i}_cpu" for i in range(n)]
    gpu_ids = [f"c{i}_gpu" for i in range(n)]
    final = f"c{n}"
    alternatives = [_chain(cpu_ids), _chain(gpu_ids)]
    architecture = SystemArchitecture(
        units=[
            UnitSpec(
                id="chain",
                policy="declared",
                topology=[f"f{i}" for i in range(n)],
                alternatives=alternatives,
            )
        ],
        singletons=[final],
        connections=[("chain", final)],
    )
    two_variant = build_high_layer(architecture, repo)
    naive_cpu = build_high_layer(SystemArchitecture(units=[], singletons=cpu_ids + [final]), repo)
    naive_gpu = build_high_layer(SystemArchitecture(units=[], singletons=gpu_ids + [final]), repo)
    return two_variant, naive_cpu, naive_gpu, architecture


def generate_system(spec: BenchSpec) -> GeneratedSystem:
    """Draw instances from the seeded stream until one is accepted."""
    rng = SplitMix64(spec.seed)
    trial = SolverConfig(time_limit_ms=TRIAL_TIME_LIMIT_MS)
    rejected = 0
    timed_out = 0
    for _ in range(MAX_ATTEMPTS):
        repo, platform = _draw_instance(rng, spec.n)
        two_variant, naive_cpu, naive_gpu, architecture = _models(repo, spec.n)
        results = []
        for m in (two_variant, naive_cpu, naive_gpu):
            results.append(solve(m, platform, trial, backend=spec.backend))
            if results[-1].status != OPTIMAL:
                break  # the instance is out; the other models need no solve
        if results[-1].status == TIMED_OUT:
            timed_out += 1
            continue
        if results[-1].status == OPTIMAL and results[0].objective_ms == min(
            results[1].objective_ms, results[2].objective_ms
        ):
            return GeneratedSystem(
                repo=repo,
                platform=platform,
                architecture=architecture,
                two_variant=two_variant,
                naive_cpu=naive_cpu,
                naive_gpu=naive_gpu,
                rejected=rejected,
                timed_out=timed_out,
            )
        rejected += 1
    raise RuntimeError(
        f"no acceptable instance within {MAX_ATTEMPTS} attempts (n={spec.n}, seed={spec.seed}):"
        f" {rejected} rejected, {timed_out} over the {TRIAL_TIME_LIMIT_MS} ms trial budget"
    )


def run_bench(spec: BenchSpec) -> BenchReport:
    """Generate the instance for `spec` and time all three models on it.

    Warmup and timed repetitions are interleaved round by round across
    the models, never run as one block per model: background drift (CPU
    frequency scaling, co-tenant load) then shifts all three means
    together instead of biasing whichever model owned the slow window,
    which keeps the mean ratios comparable.  For the same reason the
    cyclic garbage collector is paused while the repetitions are timed,
    as `timeit` does: a collection is set off by the allocations of all
    three models together, and its pause would be charged to whichever
    model happened to be running.
    """
    if spec.n < 1:
        raise ValueError("n must be at least 1")
    if spec.repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    if spec.warmup < 0:
        raise ValueError("warmup must be non-negative")
    system = generate_system(spec)
    cfg = SolverConfig()
    models = (
        ("naive_cpu", system.naive_cpu),
        ("naive_gpu", system.naive_gpu),
        ("two_variant", system.two_variant),
    )
    for _ in range(spec.warmup):
        for _, model in models:
            solve(model, system.platform, cfg, backend=spec.backend)
    times: dict[str, list[float]] = {name: [] for name, _ in models}
    objectives: dict[str, Fraction] = {}
    visited: dict[str, int] = {}
    ran_on = ""
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(spec.repetitions):
            for name, model in models:
                start = time.perf_counter_ns()
                scheme = solve(model, system.platform, cfg, backend=spec.backend)
                elapsed = time.perf_counter_ns() - start
                times[name].append(elapsed / 1e6)
                if scheme.status != OPTIMAL:
                    raise RuntimeError(f"benchmark instance became {scheme.status}")
                if objectives.setdefault(name, scheme.objective_ms) != scheme.objective_ms:
                    raise RuntimeError("objective changed between repetitions")
                visited[name] = scheme.visited
                ran_on = scheme.backend
    finally:
        if collecting:
            gc.enable()
    stats = [
        ModelStats(
            model=name,
            mean_ms=statistics.fmean(times[name]),
            median_ms=statistics.median(times[name]),
            stddev_ms=statistics.pstdev(times[name]),
            objective_ms=format_number(objectives[name]),
            visited=visited[name],
            times_ms=times[name],
        )
        for name, _ in models
    ]
    if objectives["two_variant"] != min(objectives["naive_cpu"], objectives["naive_gpu"]):
        raise RuntimeError("two-variant optimum drifted from the naive optima")
    return BenchReport(
        n=spec.n,
        seed=spec.seed,
        repetitions=spec.repetitions,
        warmup=spec.warmup,
        backend=ran_on,
        rejected=system.rejected,
        timed_out=system.timed_out,
        stats=stats,
    )


def format_table(reports: list[BenchReport]) -> str:
    header = (
        f"{'n':>5} {'seed':>6} {'reps':>5} {'rej':>4} {'tout':>4} {'backend':>8} "
        f"{'naive_cpu':>12} {'naive_gpu':>12} {'two_variant':>12}  note"
    )
    lines = [header, "-" * len(header)]
    for report in reports:
        note = "" if report.trend_ok else "two_variant not fastest"
        lines.append(
            f"{report.n:>5} {report.seed:>6} {report.repetitions:>5} "
            f"{report.rejected:>4} {report.timed_out:>4} {report.backend:>8} "
            f"{report.stat('naive_cpu').mean_ms:>12.4f} "
            f"{report.stat('naive_gpu').mean_ms:>12.4f} "
            f"{report.stat('two_variant').mean_ms:>12.4f}  {note}"
        )
    lines.append("(mean solve time per model, ms)")
    lines.append(f"(rej: instances rejected; tout: over the {TRIAL_TIME_LIMIT_MS} ms trial budget)")
    return "\n".join(lines)


def reports_to_json(reports: list[BenchReport]) -> str:
    payload = []
    for report in reports:
        record = asdict(report)
        record["models"] = record.pop("stats")
        record["trend_ok"] = report.trend_ok
        payload.append(record)
    return json.dumps({"reports": payload}, indent=2, sort_keys=True) + "\n"
