"""Time the pipeline stage by stage and the search per backend, into one record.

Each child process imports mvalloc from one source tree and times two
sets of models.

Setup: the bundled robot and the perfbench/gen.py `large_cases(1)`
models of 300, 550 and 800 units go through the pipeline that
perfbench/run.py runs in process: parse the model text and validate it,
build the compacted layer, dump it and parse it back, solve, dump the
scheme, unfold, check the assignment, dump it, and export the LP.
Nothing is written to disk.  Each model gets one warm-up pass and REPS
timed passes.  This runs before any kernel is built, so `solve` runs the
Python kernel, as in perfbench, unless a library is built next to the
package.

Search: the child then builds the tree's `_kernels.c` into a temporary
directory, as tests/conftest.py does, unless a library is already loaded
or there is no C compiler.  On every available backend, with the
collector paused, it solves the `tight_cases(1)` packings (the
tight_search set) as generated and with each unit's variants listed
backwards, the three models of `bench.generate_system(BenchSpec(n,
seed=1))` for n = 30, 40 and 50, and the three `large_cases(1)` models
above with each unit's variants listed backwards, and the GPU-only model
of the first draw of bench seed 1 at n = HARD_N, which `generate_system`
would skip after its trial solves: up to REPS solves per instance, each
with a time limit of BUDGET_S seconds, fewer once the instance has taken
BUDGET_S seconds.  A row gives the status, the search nodes visited, the
solve time and the nodes per second of that time.

Every time in the record is the median over ROUNDS child processes of
the median within each.  With `--before DIR` the source tree of another
checkout DIR (its `src/mvalloc`) is timed as well: each round runs one
child per tree, and the tree that goes first alternates from round to
round.  The setup rows then come with before/after ratios, and each
search row holds both sides and whether the two schemes are equal apart
from `visited`.  Both trees run the models of this checkout's
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
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_SIZES = (30, 40, 50)
ROUNDS = 6
REPS = 5
BUDGET_S = 2.0
HARD_N = 100


def _pass(text: str, times: dict[str, list[float]]) -> None:
    """Run the pipeline once on a model text and append each stage's ms
    to `times[stage]`."""
    from mvalloc import compaction, formats, lp, model, solver

    marks = [("", time.perf_counter_ns())]

    def mark(stage: str) -> None:
        marks.append((stage, time.perf_counter_ns()))

    repo, plat, arch = formats.parse_model(text)
    mark("parse_model")
    diags = (
        model.validate_repository(repo)
        + model.validate_platform(plat)
        + model.validate_architecture(arch, repo)
    )
    mark("validate")
    high = compaction.build_high_layer(arch, repo)
    mark("build_high_layer")
    compacted = formats.dump_compacted(high)
    mark("dump_compacted")
    high = formats.parse_compacted(compacted)
    mark("parse_compacted")
    scheme = solver.solve(high, plat)
    mark("solve")
    formats.dump_scheme(scheme)
    mark("dump_scheme")
    assignment = compaction.unfold(scheme, high)
    mark("unfold")
    fit = model.check_feasibility(assignment, repo, plat)
    mark("check_feasibility")
    formats.dump_assignment(assignment)
    mark("dump_assignment")
    lp.export_lp(high, plat)
    mark("export_lp")
    if diags or not fit.feasible:
        raise SystemExit("the model does not validate or its assignment does not fit")
    for (_, t0), (stage, t1) in zip(marks, marks[1:]):
        times.setdefault(stage, []).append((t1 - t0) / 1e6)


def _solve(model, plat, backend: str) -> dict:
    """Up to REPS solves on `backend`, each within BUDGET_S seconds, fewer
    past BUDGET_S seconds in all: the status, the scheme without
    `visited`, `visited`, and each solve's ms."""
    from mvalloc import formats, solver

    budget = solver.SolverConfig(time_limit_ms=int(BUDGET_S * 1e3))
    times: list[float] = []
    while len(times) < REPS and sum(times) < BUDGET_S * 1e3:
        gc.collect()
        gc.disable()
        start = time.perf_counter_ns()
        scheme = solver.solve(model, plat, budget, backend=backend)
        elapsed = time.perf_counter_ns() - start
        gc.enable()
        times.append(elapsed / 1e6)
    return {
        "status": scheme.status,
        "scheme": formats.dump_scheme(dataclasses.replace(scheme, visited=0)),
        "visited": scheme.visited,
        "times": times,
    }


def _instances(gen, large):
    """(family, name, model, platform) of the search set, in a fixed order."""
    from mvalloc import bench, compaction, formats

    def high(case, backwards=False):
        repo, plat, arch = formats.parse_model(case.text())
        model = compaction.build_high_layer(arch, repo)
        if backwards:  # each unit's variants listed in reverse
            units = [dataclasses.replace(u, variants=u.variants[::-1]) for u in model.units]
            model = dataclasses.replace(model, units=units)
        return model, plat

    for case in gen.tight_cases(1):
        yield ("tight_cases(1)", case.name, *high(case))
    for case in gen.tight_cases(1):
        yield ("tight_cases(1) reversed", case.name, *high(case, backwards=True))
    for n in BENCH_SIZES:
        system = bench.generate_system(bench.BenchSpec(n=n, seed=1))
        for name in ("naive_cpu", "naive_gpu", "two_variant"):
            yield (f"bench seed 1 n={n}", name, getattr(system, name), system.platform)
    # the first draw of seed 1 at n=100, whose GPU-only model is hard for
    # a unit order that scores against nodes a unit cannot use
    repo, plat = bench._draw_instance(bench.SplitMix64(1), HARD_N)
    _, _, naive_gpu, _ = bench._models(repo, HARD_N)
    yield (f"bench seed 1 n={HARD_N} first draw", "naive_gpu", naive_gpu, plat)
    for case in large:
        yield ("large_cases(1) reversed", case.name, *high(case, backwards=True))


def _build_kernel(src: str) -> None:
    """Build the tree's _kernels.c into a temp dir and register it as
    backend "c", unless a library is already loaded or cc is missing."""
    from mvalloc import engine

    if "c" in engine.available_backends() or shutil.which("cc") is None:
        return
    source = str(Path(src) / "mvalloc" / "_kernels.c")
    with tempfile.TemporaryDirectory() as build:
        library = os.path.join(build, "_kernels.so")
        cc = ["cc", "-O2", "-std=c99", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC"]
        subprocess.run([*cc, "-o", library, source], check=True)
        engine._load(library)  # loaded, so the file may go


def child(src: str) -> int:
    """Time the setup set, then the search set on every backend, with
    mvalloc imported from `src`; print both as JSON."""
    sys.path.insert(0, src)
    import mvalloc
    from mvalloc import engine

    if Path(mvalloc.__file__).resolve().parent != (Path(src) / "mvalloc").resolve():
        raise SystemExit(f"imported mvalloc from {mvalloc.__file__}, not from {src}")
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen  # perfbench/gen.py

    robot = (ROOT / "src" / "mvalloc" / "data" / "robot.json").read_text(encoding="utf-8")
    # the last large case is the 1100-unit model, which the Python kernel cannot solve
    large = gen.large_cases(1)[:-1]
    setup = []
    for case in gen.robot_cases(robot)[:1] + large:
        text, times = case.text(), {}
        _pass(text, {})  # warm-up, not counted
        for _ in range(REPS):
            _pass(text, times)
        setup.append({"model": case.name, "units": case.units, "times": times})
    setup_backends = engine.available_backends()
    _build_kernel(src)
    search = {backend: {} for backend in engine.available_backends()}
    for family, name, model, plat in _instances(gen, large):
        for backend in search:
            search[backend][f"{family}/{name}"] = _solve(model, plat, backend)
    print(json.dumps({"setup_backends": setup_backends, "setup": setup, "search": search}))
    return 0


def _ms(runs: list[dict], times) -> float:
    """The median over child processes of the median of `times(run)`."""
    return round(statistics.median(statistics.median(times(run)) for run in runs), 3)


def _setup_rows(runs: list[dict]) -> list[dict]:
    rows = []
    for i, model in enumerate(runs[0]["setup"]):
        row = {"model": model["model"], "units": model["units"]}
        for stage in model["times"]:
            row[f"{stage}_ms"] = _ms(runs, lambda run: run["setup"][i]["times"][stage])
        row["total_ms"] = round(sum(row[f"{stage}_ms"] for stage in model["times"]), 3)
        rows.append(row)
    return rows


def _search_rows(runs: dict[str, list[dict]]) -> tuple[list[dict], dict[str, float]]:
    """One row per instance and backend that every tree has, and the
    per-family totals of visited nodes and ms."""
    first = {label: tree_runs[0]["search"] for label, tree_runs in runs.items()}
    rows, totals = [], {}
    for backend in [b for b in first["after"] if all(b in f for f in first.values())]:
        for key in first["after"][backend]:
            family, name = key.split("/")
            row = {"family": family, "instance": name, "backend": backend}
            for label, tree_runs in runs.items():
                visited = first[label][backend][key]["visited"]
                ms = _ms(tree_runs, lambda run: run["search"][backend][key]["times"])
                row[f"status_{label}"] = first[label][backend][key]["status"]
                row[f"visited_{label}"] = visited
                row[f"solve_ms_{label}"] = ms
                row[f"nodes_per_s_{label}"] = round(visited / ms * 1e3)
                for metric, value in (("visited", visited), ("solve_ms", ms)):
                    total = f"{family} {backend} {metric}_{label}"
                    totals[total] = round(totals.get(total, 0) + value, 3)
            if len(runs) > 1:
                row["same_scheme"] = len({f[backend][key]["scheme"] for f in first.values()}) == 1
            rows.append(row)
    return rows, totals


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

    trees = [("after", ROOT / "src")]
    if args.before:
        trees.insert(0, ("before", Path(args.before).resolve() / "src"))
    runs: dict[str, list[dict]] = {label: [] for label, _ in trees}
    for r in range(ROUNDS):
        for label, src in trees[::-1] if r % 2 else trees:
            argv = [sys.executable, __file__, "--child", str(src)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
            runs[label].append(json.loads(proc.stdout))
    setup = {label: _setup_rows(tree_runs) for label, tree_runs in runs.items()}
    search, totals = _search_rows(runs)
    payload = {
        "what": f"medians over {ROUNDS} child processes per tree of the median within"
        " each; with --before each round runs one child per tree and the tree that"
        " goes first alternates from round to round. setup: the in-process pipeline"
        f" per stage without file I/O, {REPS} passes after one warm-up, before any"
        " kernel is built. search: solver.solve per instance and backend, demand"
        f" order, collector paused, up to {REPS} solves of at most {BUDGET_S} s each"
        f" (fewer past {BUDGET_S} s per instance and child), with the status and the"
        " visited nodes per second of that solve time",
        "command": "PYTHONPATH=src python3 scripts/bench_record.py -o BENCH_record.json"
        + (" --before <parent checkout>" if args.before else ""),
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "setup_backends": {label: r[0]["setup_backends"] for label, r in runs.items()},
            "search_backends": sorted({row["backend"] for row in search}),
        },
        "setup": {"rows": setup},
        "search": {"totals": totals, "rows": search},
    }
    if args.before:
        payload["setup"]["speedup"] = {
            b["model"]: {
                key[: -len("_ms")]: round(b[key] / a[key], 2)
                for key in b
                if key.endswith("_ms") and a[key] > 0
            }
            for b, a in zip(setup["before"], setup["after"])
        }
    Path(args.output).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
