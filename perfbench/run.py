"""End-to-end benchmark of mvalloc.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cli_large --seed 1 --seconds 50 --trace 0

Every workload is a list of generated model files (see gen.py).  A round
takes the workload's first `cli_cases` models through the command line,
one process per command (validate, compact, solve, solve --compacted,
unfold, export-lp), then every model through the same pipeline in
process, file to file, then sets up once more.  Rounds repeat until
--seconds have passed; a run always does whole rounds, so the operations
attempted, and the ones that fail, are the same in every round.  Each
output file is checked by check.py.

Every timing is taken at reference speed (see Stopwatch): right before
and right after it, on the same CPU, the run times a fixed reference
task (a bare interpreter start around a process, `reference_work` around
in-process work) and scales the timing by the reference's nominal time
over the mean of the two measured times.  The host's speed swings by up
to ~1.8x for seconds at a time, and a timing and the references beside
it swing together (see README.md).  Each metric is a median over the
run.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics, and
the spans behind them are written to .perfbench/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import check
import gen
import spans

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"

# every solve, in process and on the command line, gets this budget
BUDGET_MS = 30_000
PROCESS_TIMEOUT_S = 90
PROBE_REPEATS = 10
# nominal times of the two reference tasks: roughly their times on a
# quiet two-CPU x86-64 virtual machine with Python 3.11
REF_PROCESS_S = 0.055
REF_WORK_S = 0.020
CASE_STUDY_MS = Fraction(45)
# what the console script `mvalloc` runs
CLI_MAIN = "import sys; from mvalloc.cli import main; sys.exit(main())"


@dataclass
class Workload:
    cases: Callable[[int], list]
    # how many of the cases, from the first, go through the command line
    cli_cases: int


def _cli_large(seed: int) -> list:
    robot = (SRC / "mvalloc" / "data" / "robot.json").read_text(encoding="utf-8")
    return gen.robot_cases(robot) + gen.large_cases(seed)


WORKLOADS = {
    "cli_large": Workload(_cli_large, cli_cases=2),
    "tight_search": Workload(gen.tight_cases, cli_cases=1),
}


def _median(values: list[float]) -> float:
    if not values:
        raise RuntimeError("no successful operation to measure")
    return statistics.median(values)


def _calibration_s() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return time.perf_counter() - t0


def pick_cpu(cpus: list[int]) -> None:
    """Move this process, and the processes it starts from now on, to the
    CPU among `cpus` where a short calibration loop runs fastest, so that
    every timing and the reference tasks beside it run on one CPU."""
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_calibration_s() for _ in range(3))
    os.sched_setaffinity(0, {min(cpus, key=speed.__getitem__)})


def reference_work() -> int:
    """A fixed task in plain Python, of the kind the program does (dicts,
    JSON text, exact fractions from decimal strings, sorting), taking some
    tens of milliseconds.  It calls nothing in mvalloc, so no change to the
    program moves its time, only the host's speed does."""
    rows = {
        f"c{i}": {"mem": f"{i % 997}.{i % 100:02d}", "cpu": i % 13, "next": [f"c{(i * 7919) % 1500}"]}
        for i in range(1500)
    }
    text = json.dumps(rows)
    back = json.loads(text)
    total = sum((Fraction(r["mem"]) for r in back.values()), Fraction(0))
    order = sorted(back, key=lambda k: (back[k]["cpu"], k))
    return len(text) + len(order) + total.denominator


class Stopwatch:
    """Times consecutive segments of work at reference speed.

    It times the reference task when it starts and at each `split()`,
    outside the segments; a segment is scaled by the task's nominal time
    over the mean of its times right before and right after the segment.
    """

    def __init__(self, reference: Callable[[], float], nominal_s: float):
        self.reference = reference
        self.nominal_s = nominal_s
        self.before = reference()
        self.t0 = time.perf_counter()

    def split(self) -> float:
        """End the current segment and start the next; returns the ended
        segment's time in s at reference speed."""
        elapsed = time.perf_counter() - self.t0
        after = self.reference()
        scaled = elapsed * self.nominal_s * 2 / (self.before + after)
        self.before = after
        self.t0 = time.perf_counter()
        return scaled


def _python(argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=PROCESS_TIMEOUT_S,
    )
    return proc, time.perf_counter() - t0


# --- reading outputs for the checker ----------------------------------------


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _placements(scheme: dict) -> dict[str, tuple[int, str]]:
    return {uid: (p["variant"], p["node"]) for uid, p in scheme.get("placements", {}).items()}


@dataclass
class Run:
    workload: str
    seed: int
    seconds: int
    traced: bool
    work: Path
    spec: Workload = field(init=False)
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)
    backends: set = field(default_factory=set)
    setup_s: list = field(default_factory=list)
    # kind ("cli.<command>", "pipeline", "solve") -> case name -> seconds
    # at reference speed, one entry per repetition; "pipeline" keeps only
    # the ones that succeeded, "solve" the calls that returned
    samples: dict = field(default_factory=lambda: defaultdict(lambda: defaultdict(list)))
    pass_s: list = field(default_factory=list)
    layers: list = field(default_factory=list)
    # measured times of the reference tasks, by kind ("process", "work")
    references: dict = field(default_factory=lambda: defaultdict(list))

    def __post_init__(self) -> None:
        self.spec = WORKLOADS[self.workload]
        self.tracer = spans.Tracer()
        self.cpus = sorted(os.sched_getaffinity(0))

    # --- reference speed -------------------------------------------------------

    def _reference_process(self) -> float:
        """Time a bare interpreter start."""
        elapsed = _python(["-c", "pass"])[1]
        self.references["process"].append(elapsed)
        return elapsed

    def _reference_work(self) -> float:
        t0 = time.perf_counter()
        reference_work()
        elapsed = time.perf_counter() - t0
        self.references["work"].append(elapsed)
        return elapsed

    def _process_watch(self) -> Stopwatch:
        return Stopwatch(self._reference_process, REF_PROCESS_S)

    def _work_watch(self) -> Stopwatch:
        return Stopwatch(self._reference_work, REF_WORK_S)

    # --- set-up ----------------------------------------------------------------

    def setup(self, directory: Path) -> tuple[list, dict[str, Path]]:
        """Generate the inputs, write the model files and start one
        interpreter that imports the command line."""
        watch = self._work_watch()
        cases = self.spec.cases(self.seed)
        generate = watch.split()
        paths = gen.write_cases(cases, directory)
        generate += watch.split()
        watch = self._process_watch()
        proc, _ = _python(["-c", "import mvalloc.cli"])
        start = watch.split()
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import mvalloc.cli: {proc.stderr.strip()}")
        self.setup_s.append(generate + start)
        return cases, paths

    def _references(self) -> dict[str, Fraction | None]:
        """Planted optima where the generator knows them, else HiGHS."""
        refs = {c.name: c.planted_ms for c in self.cases if c.planted_ms is not None}
        unknown = [str(self.paths[c.name]) for c in self.cases if c.name not in refs]
        if unknown:
            out = self.work / "highs.json"
            proc, _ = _python([str(BENCH / "check.py"), "--highs", str(out), *unknown])
            if proc.returncode != 0:
                raise RuntimeError(f"HiGHS reference failed: {proc.stderr.strip()[-500:]}")
            refs.update((k, None if v is None else Fraction(v)) for k, v in _read_json(out).items())
        if "robot" in refs and refs["robot"] != CASE_STUDY_MS:
            raise RuntimeError(f"robot reference is {refs['robot']}, not the case study's 45 ms")
        return refs

    # --- checks on written files ---------------------------------------------

    def _check(self, what: str, problems: list[str]) -> None:
        for problem in problems:
            self.problems.append(f"{what}: {problem}")

    def _compacted_problems(self, case, path: Path) -> list[str]:
        units = [
            (
                u["id"],
                [
                    (
                        v["members"],
                        check.Props(
                            Fraction(v["mem"]), Fraction(v["cpu"]), v["gpu_threads"], Fraction(v["exec_ms"])
                        ),
                    )
                    for v in u["variants"]
                ],
            )
            for u in _read_json(path)["units"]
        ]
        return check.compacted_problems(units, self.insts[case.name])

    def _scheme_problems(self, case, path: Path) -> list[str]:
        scheme = _read_json(path)
        objective = scheme.get("objective_ms")
        return check.scheme_problems(
            scheme["status"],
            None if objective is None else Fraction(objective),
            _placements(scheme),
            self.insts[case.name],
            self.refs[case.name],
        )

    def _assignment_problems(self, case, path: Path, scheme_path: Path) -> list[str]:
        inst = self.insts[case.name]
        expected, conflicts = check.unfold(_placements(_read_json(scheme_path)), inst)
        if conflicts:
            return [f"the scheme does not unfold, yet unfold succeeded: {conflicts[0]}"]
        return check.assignment_problems(_read_json(path)["assignments"], expected, inst)

    def _lp_problems(self, case, path: Path) -> list[str]:
        inst = self.insts[case.name]
        return check.lp_problems(path.read_text(encoding="utf-8"), inst, list(inst.units))

    # --- one model through the command line ------------------------------------

    def cli_session(self, case) -> None:
        out = self.work / "cli" / case.name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        model = str(self.paths[case.name])
        compacted, scheme, scheme2 = out / "compacted.json", out / "scheme.json", out / "scheme2.json"
        assignment, lp_file = out / "assignment.json", out / "model.lp"
        budget = ["--time-limit-ms", str(BUDGET_MS)]

        def same_scheme() -> list[str]:
            if scheme.exists() and scheme.read_bytes() != scheme2.read_bytes():
                return ["solve --compacted wrote another scheme than solve"]
            return self._scheme_problems(case, scheme2)

        steps = (
            ("validate", ["validate", model], lambda out_text: [] if out_text.strip() == "ok" else [f"printed {out_text!r}"]),
            ("compact", ["compact", model, "-o", str(compacted)], lambda _: self._compacted_problems(case, compacted)),
            ("solve", ["solve", model, "-o", str(scheme), *budget], lambda _: self._scheme_problems(case, scheme)),
            (
                "solve_compacted",
                ["solve", model, "--compacted", str(compacted), "-o", str(scheme2), *budget],
                lambda _: same_scheme(),
            ),
            ("unfold", ["unfold", model, str(scheme), "-o", str(assignment)], lambda _: self._assignment_problems(case, assignment, scheme)),
            ("export_lp", ["export-lp", model, "-o", str(lp_file)], lambda _: self._lp_problems(case, lp_file)),
        )
        # the commands run back to back, each between two reference
        # starts; their outputs are checked after the last one
        watch = self._process_watch()
        done = []
        for name, argv, verify in steps:
            self.attempted += 1
            with self._span(f"cli.{name}"):
                proc = self._cli(argv)
            self.samples[f"cli.{name}"][case.name].append(watch.split())
            done.append((name, proc, verify))
        for name, proc, verify in done:
            if proc is None or proc.returncode != 0:
                self.failed += 1
                detail = "timed out" if proc is None else f"exit {proc.returncode}: {proc.stderr.strip()[-160:]}"
                self.failures[f"{case.name} mvalloc {name}: {detail}"] += 1
                continue
            self._check(f"{case.name} mvalloc {name}", verify(proc.stdout))

    def _span(self, name: str):
        return self.tracer.span(name) if self.traced else contextlib.nullcontext()

    def _cli(self, argv: list[str]) -> subprocess.CompletedProcess | None:
        try:
            return _python(["-c", CLI_MAIN, *argv])[0]
        except subprocess.TimeoutExpired:
            return None

    # --- one model through the pipeline in process -----------------------------

    def pipeline(self, case, count: bool = True) -> float:
        """Run one model file to file; returns its time in s at reference
        speed, whether it succeeded or not.  It is timed in five segments
        (parse and validate, compact, write and re-read the compacted
        model, solve, the rest), each scaled by the references right
        beside it."""
        from mvalloc import compaction, formats, lp, model, solver

        out = self.work / "pipeline" / case.name
        out.mkdir(parents=True, exist_ok=True)
        compacted, scheme_file = out / "compacted.json", out / "scheme.json"
        assignment_file, lp_file = out / "assignment.json", out / "model.lp"
        for path in (compacted, scheme_file, assignment_file, lp_file):
            path.unlink(missing_ok=True)
        error = None
        scaled_s = 0.0
        watch = self._work_watch()
        try:
            with self._span(f"pipeline.{case.name}"):
                repo, plat, arch = formats.parse_model(self.paths[case.name].read_text(encoding="utf-8"))
                diags = (
                    model.validate_repository(repo)
                    + model.validate_platform(plat)
                    + model.validate_architecture(arch, repo)
                )
                if diags:
                    raise ValueError(f"validation: {diags[0]}")
                scaled_s += watch.split()
                high = compaction.build_high_layer(arch, repo)
                scaled_s += watch.split()
                formats.write_atomic(compacted, formats.dump_compacted(high))
                high = formats.parse_compacted(compacted.read_text(encoding="utf-8"))
                scaled_s += watch.split()
                scheme = solver.solve(high, plat, solver.SolverConfig(time_limit_ms=BUDGET_MS))
                solve_s = watch.split()
                scaled_s += solve_s
                if count:
                    self.samples["solve"][case.name].append(solve_s)
                self.backends.add(scheme.backend)
                formats.write_atomic(scheme_file, formats.dump_scheme(scheme))
                if scheme.status != solver.OPTIMAL:
                    raise ValueError(f"solve ended {scheme.status}")
                assignment = compaction.unfold(scheme, high)
                fit = model.check_feasibility(assignment, repo, plat)
                if not fit.feasible:
                    raise ValueError(f"unfolded assignment overloads {fit.violations[:3]}")
                formats.write_atomic(assignment_file, formats.dump_assignment(assignment))
                formats.write_atomic(lp_file, lp.export_lp(high, plat))
        except Exception as exc:
            # a failed operation: counted, and named once per distinct message
            error = f"{type(exc).__name__}: {str(exc)[:160]}"
        scaled_s += watch.split()
        what = f"{case.name} pipeline"
        if count:
            self.attempted += 1
            if error is None:
                self.samples["pipeline"][case.name].append(scaled_s)
            else:
                self.failed += 1
                self.failures[f"{what}: {error}"] += 1
        # whatever the pipeline wrote before it stopped is checked too; a
        # scheme that is not optimal is the failure itself
        if compacted.exists():
            self._check(what, self._compacted_problems(case, compacted))
        if scheme_file.exists() and _read_json(scheme_file)["status"] == "optimal":
            self._check(what, self._scheme_problems(case, scheme_file))
        if assignment_file.exists():
            self._check(what, self._assignment_problems(case, assignment_file, scheme_file))
        if lp_file.exists():
            self._check(what, self._lp_problems(case, lp_file))
        return scaled_s

    def pipeline_pass(self, count: bool = True) -> float:
        """Every case once through the pipeline; returns the pass's time in
        s at reference speed."""
        total = sum(self.pipeline(case, count) for case in self.cases)
        if count:
            self.pass_s.append(total)
        return total

    # --- the run ---------------------------------------------------------------

    def execute(self) -> dict:
        pick_cpu(self.cpus)
        self.cases, self.paths = self.setup(self.work / "models")
        self.insts = {c.name: check.Instance.from_model(c.model, c.variants) for c in self.cases}
        self.refs = self._references()
        import mvalloc
        from mvalloc import compaction, engine, formats, lp, model, solver

        if Path(mvalloc.__file__).resolve().parent != (SRC / "mvalloc").resolve():
            raise RuntimeError(f"imported mvalloc from {mvalloc.__file__}, not from {SRC}")
        modules = {"formats": formats, "model": model, "compaction": compaction, "solver": solver, "lp": lp, "engine": engine}
        untraced = []
        probes = self._probe_interpreter() if self.traced else {}
        start = time.perf_counter()
        try:
            while True:
                for case in self.cases[: self.spec.cli_cases]:
                    self.cli_session(case)
                if self.traced:
                    # an uncounted pass without the wrappers, for the overhead
                    untraced.append(self.pipeline_pass(count=False))
                    self.tracer.install(modules)
                mark = self.tracer.mark()
                self.pipeline_pass()
                if self.traced:
                    self.layers.append(self.tracer.since(mark))
                    self.tracer.uninstall()
                if time.perf_counter() - start >= self.seconds:
                    break
                # set-up is repeated once per round, so its samples spread
                # over the run like every other timing
                self.setup(self.work / "setup")
        finally:
            self.tracer.uninstall()
        for failure, times in sorted(self.failures.items()):
            print(f"failed x{times}: {failure}", file=sys.stderr)
        for problem in self.problems[:20]:
            print(f"incorrect: {problem}", file=sys.stderr)
        env = self._environment()
        print("env " + json.dumps(env, sort_keys=True))
        if self.traced:
            metrics = self._layer_metrics(probes, untraced)
            self._write_trace(env, metrics)
        else:
            metrics = self._end_to_end_metrics()
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def _end_to_end_metrics(self) -> dict:
        # each case's time is the median of its repetitions in the run
        typical = {
            kind: {case: _median(times) for case, times in by_case.items()}
            for kind, by_case in self.samples.items()
        }
        if not typical.get("pipeline"):
            raise RuntimeError("no model went through the pipeline")
        units = {c.name: c.units for c in self.cases}
        # a session is the six commands, each at its median
        commands = [kind for kind in typical if kind.startswith("cli.")]
        sessions = [sum(typical[kind][case] for kind in commands) for case in typical["cli.solve"]]
        pipeline = typical["pipeline"]
        values = {
            "setup_s": (_median(self.setup_s), "s"),
            "cli_solve_ms": (_median(list(typical["cli.solve"].values())) * 1e3, "ms"),
            "cli_session_ms": (_median(sessions) * 1e3, "ms"),
            "pipeline_units_per_s": (sum(units[c] for c in pipeline) / sum(pipeline.values()), "units/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "tight_solve_ms": (_median(list(typical["solve"].values())) * 1e3, "ms"),
            "tight_total_s": (sum(typical["solve"].values()), "s"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

    def _probe_interpreter(self) -> dict[str, float]:
        """Best wall time of a bare interpreter and of one importing the
        command line."""
        best = {}
        for name, code in (("bare", "pass"), ("import", "import mvalloc.cli")):
            times = []
            for _ in range(PROBE_REPEATS):
                times.append(_python(["-c", code])[1])
            best[name] = min(times)
        return best

    def _layer_metrics(self, probes: dict[str, float], untraced: list[float]) -> dict:
        def per_pass(pick) -> float:
            return _median([pick(self_ms, total_ms, counts) for self_ms, total_ms, counts in self.layers])

        def self_of(*names):
            return lambda s, t, c: sum(s.get(n, 0.0) for n in names)

        kernel = per_pass(lambda s, t, c: t.get("engine.solve_search", 0.0))
        nodes = per_pass(lambda s, t, c: c.get("engine.nodes", 0))
        values = {
            "cli.interpreter_ms": (probes["bare"] * 1e3, "ms"),
            "cli.import_ms": ((probes["import"] - probes["bare"]) * 1e3, "ms"),
            "formats.parse_model_ms": (per_pass(self_of("formats.parse_model")), "ms"),
            "formats.parse_compacted_ms": (per_pass(self_of("formats.parse_compacted")), "ms"),
            "formats.dump_ms": (
                per_pass(
                    self_of("formats.dump_compacted", "formats.dump_scheme", "formats.dump_assignment", "formats.write_atomic")
                ),
                "ms",
            ),
            "formats.bytes_written": (per_pass(lambda s, t, c: c.get("formats.bytes_written", 0)), "bytes"),
            "model.validate_ms": (
                per_pass(self_of("model.validate_repository", "model.validate_platform", "model.validate_architecture")),
                "ms",
            ),
            "model.check_feasibility_ms": (per_pass(self_of("model.check_feasibility")), "ms"),
            "compaction.build_high_layer_ms": (per_pass(self_of("compaction.build_high_layer")), "ms"),
            "compaction.enumerate_ms": (per_pass(self_of("compaction.enumerate_alternatives")), "ms"),
            "compaction.variants": (per_pass(lambda s, t, c: c.get("compaction.variants", 0)), "count"),
            "compaction.unfold_ms": (per_pass(self_of("compaction.unfold")), "ms"),
            "solver.solve_ms": (per_pass(lambda s, t, c: t.get("solver.solve", 0.0)), "ms"),
            "solver.setup_ms": (per_pass(self_of("solver.solve")), "ms"),
            "engine.kernel_ms": (kernel, "ms"),
            "engine.nodes": (nodes, "count"),
            "engine.nodes_per_s": (nodes / kernel * 1e3 if kernel else 0.0, "1/s"),
            "lp.export_lp_ms": (per_pass(self_of("lp.export_lp")), "ms"),
            "lp.bytes": (per_pass(lambda s, t, c: c.get("lp.bytes", 0)), "bytes"),
            "trace.overhead_ms": ((_median(self.pass_s) - _median(untraced)) * 1e3, "ms"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

    def _environment(self) -> dict:
        try:
            importlib.import_module("mvalloc._kernels")
            compiled = True
        except ImportError:
            compiled = False
        return {
            "workload": self.workload,
            "seed": self.seed,
            "scheme_backends": sorted(self.backends),
            "compiled_kernels": compiled,
            "python": platform.python_version(),
            "nproc": len(self.cpus),
            # how fast the host ran: the reference tasks' median times
            "reference_process_ms": round(statistics.median(self.references["process"]) * 1e3, 1),
            "reference_work_ms": round(statistics.median(self.references["work"]) * 1e3, 1),
        }

    def _write_trace(self, env: dict, metrics: dict) -> None:
        path = WORK / f"trace-{self.workload}-seed{self.seed}.json"
        records = [[name, t0, t1, parent] for name, t0, t1, parent, _ in self.tracer.spans]
        path.write_text(
            json.dumps({"env": env, "metrics": metrics, "spans": records}) + "\n", encoding="utf-8"
        )
        print(f"trace with {len(records)} spans -> {path.relative_to(ROOT)}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="mvalloc end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mvalloc" / "__init__.py").is_file():
        print(f"perfbench: no mvalloc sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = Run(args.workload, args.seed, args.seconds, bool(args.trace), work).execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
