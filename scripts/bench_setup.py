"""Time the in-process pipeline stage by stage, on the set-up-heavy models.

For the bundled robot and the perfbench/gen.py `large_cases(1)` models of
300, 550 and 800 units, this runs the pipeline that perfbench/run.py runs
in process: parse the model text and validate it, build the compacted
layer, dump it and parse it back, solve, dump the scheme, unfold, check
the assignment, dump it, and export the LP.  Nothing is written to disk.
Each stage's time is the median over `--rounds` child processes of
`--reps` passes each.

With `--before DIR` the source tree of another checkout DIR (its
`src/mvalloc`) is timed as well, in child processes that alternate with
this checkout's, and the output holds both sets of rows with their
ratios.  Both trees run the models of this checkout's perfbench/gen.py.

    PYTHONPATH=src python3 scripts/bench_setup.py -o BENCH_setup.json --before ../parent
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = (
    "parse_model",
    "validate",
    "build_high_layer",
    "dump_compacted",
    "parse_compacted",
    "solve",
    "dump_scheme",
    "unfold",
    "check_feasibility",
    "dump_assignment",
    "export_lp",
)


def _models() -> list[tuple[str, int, str]]:
    """(name, units, model text) for the robot and large_cases(1) but its
    oversized last model, which the Python kernels cannot solve."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen  # perfbench/gen.py

    robot = (ROOT / "src" / "mvalloc" / "data" / "robot.json").read_text(encoding="utf-8")
    cases = gen.robot_cases(robot)[:1] + gen.large_cases(1)[:-1]
    return [(case.name, case.units, case.text()) for case in cases]


def _pass(text: str, times: dict[str, list[float]]) -> None:
    from mvalloc import compaction, formats, lp, model, solver

    t0 = time.perf_counter_ns()
    marks = []

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
    for stage, t1 in marks:
        times[stage].append((t1 - t0) / 1e6)
        t0 = t1


def child(src: str, reps: int) -> int:
    """Time `reps` passes of every model with mvalloc imported from `src`;
    print the kernels available and {model: {stage: [ms, ...]}} as JSON."""
    sys.path.insert(0, src)
    import mvalloc
    from mvalloc import engine

    if Path(mvalloc.__file__).resolve().parent != (Path(src) / "mvalloc").resolve():
        raise SystemExit(f"imported mvalloc from {mvalloc.__file__}, not from {src}")
    times = {}
    for name, _, text in _models():
        times[name] = {stage: [] for stage in STAGES}
        _pass(text, times[name])  # warm-up, not counted
        for _ in range(reps):
            _pass(text, times[name])
    print(json.dumps({"backends": engine.available_backends(), "times": times}))
    return 0


def _rows(samples: list[dict]) -> list[dict]:
    rows = []
    for name, units, _ in _models():
        row = {"model": name, "units": units}
        for stage in STAGES:
            row[f"{stage}_ms"] = round(
                statistics.median(t for s in samples for t in s["times"][name][stage]), 3
            )
        row["total_ms"] = round(sum(row[f"{stage}_ms"] for stage in STAGES), 3)
        rows.append(row)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output")
    parser.add_argument("--before", help="another checkout whose src/ is timed too")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return child(args.child, args.reps)
    if not args.output:
        parser.error("the following arguments are required: -o/--output")

    trees = {"after": ROOT / "src"}
    if args.before:
        trees = {"before": Path(args.before).resolve() / "src", **trees}
    samples: dict[str, list[dict]] = {label: [] for label in trees}
    for _ in range(args.rounds):
        for label, src in trees.items():
            argv = [sys.executable, __file__, "--reps", str(args.reps), "--child", str(src)]
            proc = subprocess.run(argv, capture_output=True, text=True, check=True)
            samples[label].append(json.loads(proc.stdout))
    rows = {label: _rows(s) for label, s in samples.items()}
    payload = {
        "what": "in-process pipeline per stage, without file I/O: median ms over"
        f" {args.rounds} child processes x {args.reps} passes, one warm-up pass each;"
        " Python kernels unless a C library is built next to the package",
        "command": "PYTHONPATH=src python3 scripts/bench_setup.py -o BENCH_setup.json"
        + (" --before <parent checkout>" if args.before else ""),
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "backends": {label: s[0]["backends"] for label, s in samples.items()},
        },
        "rows": rows,
    }
    if args.before:
        payload["speedup"] = {
            b["model"]: {
                key[: -len("_ms")]: round(b[key] / a[key], 2)
                for key in b
                if key.endswith("_ms") and a[key] > 0
            }
            for b, a in zip(rows["before"], rows["after"])
        }
    Path(args.output).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
