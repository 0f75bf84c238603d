"""Time the search kernels alone, on both backends, on the tight_search set.

For each instance of perfbench/gen.py `tight_cases(1)`, scaled by
`solver._scale` in demand order, this calls `solve_search` of each
backend directly and records the visited search nodes, the median kernel
time of `--reps` calls and the node rate.  The C kernels are compiled
from src/mvalloc/_kernels.c into a temporary directory unless a library
is already built next to the package.

    PYTHONPATH=src python3 scripts/bench_kernels.py -o BENCH_kernels.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402  (perfbench/gen.py)

from mvalloc import engine, formats  # noqa: E402
from mvalloc.compaction import build_high_layer  # noqa: E402
from mvalloc.solver import SolverConfig, _scale  # noqa: E402

CC_FLAGS = ["-O2", "-std=c99", "-shared", "-fPIC"]


def _time(kernel, args, reps: int) -> tuple[tuple, float]:
    times = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        result = kernel(*args)
        times.append(time.perf_counter_ns() - start)
    return result, statistics.median(times) / 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", required=True)
    parser.add_argument("--reps", type=int, default=21)
    args = parser.parse_args()

    flags = "prebuilt library next to the package"
    if "c" not in engine.available_backends():
        with tempfile.TemporaryDirectory() as build:
            library = os.path.join(build, "_kernels.so")
            source = ROOT / "src" / "mvalloc" / "_kernels.c"
            subprocess.run(["cc", *CC_FLAGS, "-o", library, str(source)], check=True)
            engine._load(library)  # loaded, so the file may go
        flags = " ".join(["cc", *CC_FLAGS])
    rows = []
    for case in gen.tight_cases(1):
        repo, plat, arch = formats.parse_model(case.text())
        scaled = _scale(build_high_layer(arch, repo), plat, SolverConfig(), "demand")
        call = (*scaled.kernel_args, scaled.suffix_min, *scaled.suffix_need, None)
        row = {"instance": case.name}
        results = []
        for name in ("c", "python"):
            result, ms = _time(engine.get_backend(name).solve_search, call, args.reps)
            results.append(result)
            row[f"{name}_kernel_ms"] = round(ms, 4)
            row[f"{name}_nodes_per_s"] = round(result[3] / ms * 1e3)
        if results[0] != results[1]:
            raise SystemExit(f"{case.name}: the backends disagree")
        row["visited"] = results[0][3]
        rows.append(row)

    totals = {"visited": sum(r["visited"] for r in rows)}
    for name in ("c", "python"):
        ms = sum(r[f"{name}_kernel_ms"] for r in rows)
        totals[f"{name}_kernel_ms"] = round(ms, 3)
        totals[f"{name}_nodes_per_s"] = round(totals["visited"] / ms * 1e3)
    payload = {
        "what": "solve_search alone on each tight_cases(1) instance, scaled in demand order:"
        f" visited search nodes, median kernel ms of {args.reps} calls, and nodes/s,"
        " on the C kernels (through ctypes, marshalling included) and the Python kernels",
        "command": "PYTHONPATH=src python3 scripts/bench_kernels.py -o BENCH_kernels.json",
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "c_build": flags,
        },
        "totals": totals,
        "rows": rows,
    }
    Path(args.output).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
