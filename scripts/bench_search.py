"""Time `solver.solve` on the search-heavy instances, per instance and backend.

The instances are the perfbench/gen.py `tight_cases(1)` packings (the
tight_search set), the three models of `bench.generate_system(BenchSpec(n,
seed=1))` for n = 30, 40 and 50, and the `large_cases(1)` models of 300,
550 and 800 units with each unit's variants listed backwards.  Each is
solved in demand order on every available backend, with the collector
paused.  Each child process builds the C kernel of the tree it imports
into a temporary directory, as tests/conftest.py does, unless a library
is already built next to the package or there is no C compiler.  A row
gives one instance on one backend: the search nodes visited, the median
of up to REPS timed solves per child process (an instance stops
repeating once it has taken BUDGET_S seconds in that child), and the
nodes per second of that solve time.  The row's time is the median over
ROUNDS child processes.

With `--before DIR` the source tree of another checkout DIR (its
`src/mvalloc`) is timed as well, in child processes that alternate with
this checkout's, and every row holds both sides and whether the two
schemes are equal apart from `visited`.  Both trees solve the models of
this checkout's perfbench/gen.py, and each tree draws the bench models
with its own `generate_system`.

    PYTHONPATH=src python3 scripts/bench_search.py -o BENCH_search.json --before ../parent
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
ROUNDS = 3
REPS = 7
BUDGET_S = 2.0


def _instances():
    """(family, name, model, platform) in a fixed order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen  # perfbench/gen.py

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
    for case in gen.large_cases(1)[:-1]:
        model, plat = high(case)
        units = [dataclasses.replace(u, variants=u.variants[::-1]) for u in model.units]
        yield ("large_cases(1) reversed", case.name, dataclasses.replace(model, units=units), plat)


def _build_kernel(src: str) -> None:
    """Build the tree's _kernels.c into a temp dir and register it as
    backend "c", unless a library is already loaded or cc is missing."""
    from mvalloc import engine

    if "c" in engine.available_backends() or shutil.which("cc") is None:
        return
    source = str(Path(src) / "mvalloc" / "_kernels.c")
    with tempfile.TemporaryDirectory() as build:
        library = os.path.join(build, "_kernels.so")
        cc = ["cc", "-O2", "-std=c99", "-shared", "-fPIC", "-o", library, source]
        subprocess.run(cc, check=True)
        engine._load(library)  # loaded, so the file may go


def child(src: str) -> int:
    """Solve every instance on every backend with mvalloc imported from
    `src`; print {backend: {"family/name": {"scheme", "visited", "times"}}}
    as JSON."""
    sys.path.insert(0, src)
    import mvalloc

    if Path(mvalloc.__file__).resolve().parent != (Path(src) / "mvalloc").resolve():
        raise SystemExit(f"imported mvalloc from {mvalloc.__file__}, not from {src}")
    from mvalloc import engine, formats, solver

    _build_kernel(src)
    instances = list(_instances())
    results = {}
    for backend in engine.available_backends():
        results[backend] = {}
        for family, name, model, plat in instances:
            times = []
            spent = 0.0
            while len(times) < REPS and spent < BUDGET_S:
                gc.collect()
                gc.disable()
                start = time.perf_counter_ns()
                scheme = solver.solve(model, plat, backend=backend)
                elapsed = time.perf_counter_ns() - start
                gc.enable()
                times.append(elapsed / 1e6)
                spent += elapsed / 1e9
            results[backend][f"{family}/{name}"] = {
                "scheme": formats.dump_scheme(dataclasses.replace(scheme, visited=0)),
                "visited": scheme.visited,
                "times": times,
            }
    print(json.dumps(results))
    return 0


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

    trees = {"after": ROOT / "src"}
    if args.before:
        trees = {"before": Path(args.before).resolve() / "src", **trees}
    samples: dict[str, list[dict]] = {label: [] for label in trees}
    for _ in range(ROUNDS):
        for label, src in trees.items():
            argv = [sys.executable, __file__, "--child", str(src)]
            proc = subprocess.run(argv, capture_output=True, text=True, check=True)
            samples[label].append(json.loads(proc.stdout))
    backends = [b for b in samples["after"][0] if all(b in runs[0] for runs in samples.values())]
    rows = []
    totals: dict[str, float] = {}
    for backend in backends:
        for key in samples["after"][0][backend]:
            family, name = key.split("/")
            row = {"family": family, "instance": name, "backend": backend}
            for label, runs in samples.items():
                visited = runs[0][backend][key]["visited"]
                ms = statistics.median(
                    statistics.median(run[backend][key]["times"]) for run in runs
                )
                row[f"visited_{label}"] = visited
                row[f"solve_ms_{label}"] = round(ms, 3)
                row[f"nodes_per_s_{label}"] = round(visited / ms * 1e3)
                for metric, value in (("visited", visited), ("solve_ms", ms)):
                    total = f"{family} {backend} {metric}_{label}"
                    totals[total] = round(totals.get(total, 0) + value, 3)
            if args.before:
                schemes = {runs[0][backend][key]["scheme"] for runs in samples.values()}
                row["same_scheme"] = len(schemes) == 1
            rows.append(row)
    payload = {
        "what": "solver.solve per instance and backend, demand order, collector"
        f" paused: visited search nodes, the median ms over {ROUNDS} child"
        f" processes of the median of up to {REPS} solves (fewer past"
        f" {BUDGET_S} s per instance and child), and visited nodes per second"
        " of that solve time",
        "command": "PYTHONPATH=src python3 scripts/bench_search.py -o BENCH_search.json"
        + (" --before <parent checkout>" if args.before else ""),
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "backends": backends,
        },
        "totals": totals,
        "rows": rows,
    }
    Path(args.output).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
