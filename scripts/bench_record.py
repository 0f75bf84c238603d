"""Time the search per backend on both trees, into one record.

Each child process imports mvalloc from one source tree, builds the
tree's `_kernels.c` with `engine._build` unless a library is already
loaded or there is no C compiler, and, on every available backend with
the collector paused, solves the `tight_cases(1)` packings of
perfbench/gen.py (the tight_search set), the three models of
`bench.generate_system(BenchSpec(n, seed=1))` for n = 30, 40 and 50, the
GPU-only model of the first draw of bench seed 1 at n = HARD_N, which
`generate_system` would skip after its trial solves, and the planted
`large_cases(1)` models of 300, 550 and 800 units, all as generated: up
to REPS solves per instance, each with a time limit of BUDGET_S seconds,
fewer once the instance has taken BUDGET_S seconds.  The kernel call is
timed alone, through the Backend record that `engine.get_backend`
returns, as perfbench/spans.py does.  A row gives the status, the search
nodes visited, the solve time, the kernel time and the nodes per second
of the kernel time.  Per-stage timings of the pipeline around the
search come from `perfbench/run.py --trace 1`.

The run and every child process it starts are pinned to one CPU, the
fastest of the CPUs it may use by the short calibration loop of
perfbench/run.py `pick_cpu`.  Every time in the record is the median
over ROUNDS child processes of the median within each.  With
`--before DIR` the source tree of another checkout DIR (its
`src/mvalloc`) is timed as well: each round runs one child per tree,
and the tree that goes first alternates from round to round.  Each row
then holds both sides and whether the two schemes are equal apart from
`visited`.  Both trees run the models of this checkout's
perfbench/gen.py, and each draws the bench models with its own
`generate_system`.

    PYTHONPATH=src python3 scripts/bench_record.py -o BENCH_record.json --before ../parent
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_SIZES = (30, 40, 50)
ROUNDS = 6
REPS = 5
BUDGET_S = 2.0
HARD_N = 100


def _solve(model, plat, backend: str) -> dict:
    """Up to REPS solves on `backend`, each within BUDGET_S seconds, fewer
    past BUDGET_S seconds in all: the status, the scheme without
    `visited`, `visited`, and each solve's ms and its kernel call's ms."""
    from mvalloc import engine, formats, solver

    kernel_ns = 0

    def timed(search):
        def solve_search(*args, **kwargs):
            nonlocal kernel_ns
            start = time.perf_counter_ns()
            result = search(*args, **kwargs)
            kernel_ns += time.perf_counter_ns() - start
            return result

        return solve_search

    # solve reaches the kernel through the record get_backend returns
    get_backend = engine.get_backend
    wrapped = {}

    def timed_backend(name: str = "auto"):
        real = get_backend(name)
        if real.name not in wrapped:
            wrapped[real.name] = dataclasses.replace(real, solve_search=timed(real.solve_search))
        return wrapped[real.name]

    budget = solver.SolverConfig(time_limit_ms=int(BUDGET_S * 1e3))
    times: list[float] = []
    kernel_times: list[float] = []
    engine.get_backend = timed_backend
    try:
        while len(times) < REPS and sum(times) < BUDGET_S * 1e3:
            kernel_ns = 0
            gc.collect()
            gc.disable()
            start = time.perf_counter_ns()
            scheme = solver.solve(model, plat, budget, backend=backend)
            elapsed = time.perf_counter_ns() - start
            gc.enable()
            times.append(elapsed / 1e6)
            kernel_times.append(kernel_ns / 1e6)
    finally:
        engine.get_backend = get_backend
    return {
        "status": scheme.status,
        "scheme": formats.dump_scheme(dataclasses.replace(scheme, visited=0)),
        "visited": scheme.visited,
        "times": times,
        "kernel_times": kernel_times,
    }


def _instances(gen):
    """(family, name, model, platform) of the search set, in a fixed order."""
    from mvalloc import bench, compaction, formats

    def high(case):
        repo, plat, arch = formats.parse_model(case.text())
        return compaction.build_high_layer(arch, repo), plat

    for case in gen.tight_cases(1):
        yield ("tight_cases(1)", case.name, *high(case))
    for n in BENCH_SIZES:
        system = bench.generate_system(bench.BenchSpec(n=n, seed=1))
        for name in ("naive_cpu", "naive_gpu", "two_variant"):
            yield (f"bench seed 1 n={n}", name, getattr(system, name), system.platform)
    # the first draw of seed 1 at n=100, whose GPU-only model is hard for
    # a unit order that scores against nodes a unit cannot use
    repo, plat = bench._draw_instance(bench.SplitMix64(1), HARD_N)
    _, _, naive_gpu, _ = bench._models(repo, HARD_N)
    yield (f"bench seed 1 n={HARD_N} first draw", "naive_gpu", naive_gpu, plat)
    # the last large case is the 1100-unit model, which the Python kernel cannot solve
    for case in gen.large_cases(1)[:-1]:
        yield ("large_cases(1)", case.name, *high(case))


def child(src: str) -> int:
    """Time the search set on every backend, with mvalloc imported from
    `src`; print it as JSON."""
    sys.path.insert(0, src)
    import mvalloc
    from mvalloc import engine

    if Path(mvalloc.__file__).resolve().parent != (Path(src) / "mvalloc").resolve():
        raise SystemExit(f"imported mvalloc from {mvalloc.__file__}, not from {src}")
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen  # perfbench/gen.py

    if "c" not in engine.available_backends():  # a tree may come with its library built
        engine._build()
    search = {backend: {} for backend in engine.available_backends()}
    for family, name, model, plat in _instances(gen):
        for backend in search:
            search[backend][f"{family}/{name}"] = _solve(model, plat, backend)
    print(json.dumps({"search": search}))
    return 0


def _ms(runs: list[dict], times) -> float:
    """The median over child processes of the median of `times(run)`."""
    return round(statistics.median(statistics.median(times(run)) for run in runs), 3)


def _search_rows(runs: dict[str, list[dict]]) -> tuple[list[dict], dict[str, float]]:
    """One row per instance and backend that every tree has, and the
    per-family totals of visited nodes, solve ms and kernel ms."""
    first = {label: tree_runs[0]["search"] for label, tree_runs in runs.items()}
    rows, totals = [], {}
    for backend in [b for b in first["after"] if all(b in f for f in first.values())]:
        for key in first["after"][backend]:
            family, name = key.split("/")
            row = {"family": family, "instance": name, "backend": backend}
            for label, tree_runs in runs.items():
                solved = first[label][backend][key]
                values = {"visited": solved["visited"]}
                for metric, field in (("solve_ms", "times"), ("kernel_ms", "kernel_times")):
                    values[metric] = _ms(tree_runs, lambda run: run["search"][backend][key][field])
                row[f"status_{label}"] = solved["status"]
                for metric, value in values.items():
                    row[f"{metric}_{label}"] = value
                    total = f"{family} {backend} {metric}_{label}"
                    totals[total] = round(totals.get(total, 0) + value, 3)
                row[f"nodes_per_s_{label}"] = round(values["visited"] / values["kernel_ms"] * 1e3)
            if len(runs) > 1:
                row["same_scheme"] = len({f[backend][key]["scheme"] for f in first.values()}) == 1
            rows.append(row)
    return rows, totals


def _pin() -> int:
    """Pin this process, and the processes it starts from now on, to
    the fastest CPU it may use, as perfbench/run.py does; return it."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import pick_cpu  # perfbench/run.py

    pick_cpu(sorted(os.sched_getaffinity(0)))
    (cpu,) = os.sched_getaffinity(0)
    return cpu


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output")
    parser.add_argument("--before", help="another checkout whose src/ is timed too")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return child(args.child)
    if not args.output:
        parser.error("the following arguments are required: -o/--output")

    cpu = _pin()
    trees = [("after", ROOT / "src")]
    if args.before:
        trees.insert(0, ("before", Path(args.before).resolve() / "src"))
    runs: dict[str, list[dict]] = {label: [] for label, _ in trees}
    for r in range(ROUNDS):
        for label, src in trees[::-1] if r % 2 else trees:
            argv = [sys.executable, __file__, "--child", str(src)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
            runs[label].append(json.loads(proc.stdout))
    search, totals = _search_rows(runs)
    payload = {
        "what": f"medians over {ROUNDS} child processes per tree of the median within"
        " each; with --before each round runs one child per tree and the tree that"
        " goes first alternates from round to round; the run and its children are"
        " pinned to the fastest CPU by a short calibration. search: solver.solve per"
        f" instance and backend, collector paused, up to {REPS} solves of at most"
        f" {BUDGET_S} s each (fewer past {BUDGET_S} s per instance and child), with"
        " the status, the time of the kernel call alone and the visited nodes per"
        " second of that kernel time",
        "command": "PYTHONPATH=src python3 scripts/bench_record.py -o BENCH_record.json"
        + (" --before <parent checkout>" if args.before else ""),
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "pinned_cpu": cpu,
            "search_backends": sorted({row["backend"] for row in search}),
        },
        "search": {"totals": totals, "rows": search},
    }
    Path(args.output).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
