"""The timing harness behind the committed benchmark record still runs.

`scripts/bench_record.py` imports the package in child processes, so a
change to a function it calls would otherwise show only when someone
next regenerates `BENCH_record.json`.  Timing one solve per backend and
listing the search set here makes that change fail the ordinary test
suite.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from mvalloc import engine, formats
from mvalloc.compaction import build_high_layer

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_record.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_gen(monkeypatch):
    """perfbench/gen.py, registered for its dataclasses while the test runs."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_harness_times_a_solve_and_its_kernel_call_per_backend(robot, robot_high):
    script = _load_script()
    _, platform, _ = robot
    get_backend = engine.get_backend
    for backend in engine.available_backends():
        solved = script._solve(robot_high, platform, backend)
        assert engine.get_backend is get_backend
        assert solved["status"] == "optimal"
        assert '"objective_ms": "45"' in solved["scheme"]
        assert solved["visited"] > 0
        assert 1 <= len(solved["times"]) <= script.REPS
        assert len(solved["kernel_times"]) == len(solved["times"])
        for kernel_ms, solve_ms in zip(solved["kernel_times"], solved["times"]):
            assert 0 < kernel_ms <= solve_ms


def test_search_set_is_the_four_families_as_generated(monkeypatch):
    script = _load_script()
    gen = _load_gen(monkeypatch)
    instances = list(script._instances(gen))
    families = list(dict.fromkeys(family for family, *_ in instances))
    assert families == [
        "tight_cases(1)",
        "bench seed 1 n=30",
        "bench seed 1 n=40",
        "bench seed 1 n=50",
        f"bench seed 1 n={script.HARD_N} first draw",
        "large_cases(1)",
    ]
    assert len(instances) == 23
    # the tight and planted models come as compaction builds them, none reversed
    generated = {case.name: case for case in gen.tight_cases(1) + gen.large_cases(1)[:3]}
    built = {name: (model, plat) for family, name, model, plat in instances if name in generated}
    assert len(built) == 13
    for name, case in generated.items():
        repo, plat, arch = formats.parse_model(case.text())
        assert built[name] == (build_high_layer(arch, repo), plat)


def test_the_run_pins_itself_to_one_cpu_it_may_use():
    # in a process of its own, as the pin holds for the rest of the process
    code = (
        "import os, runpy, sys; script = runpy.run_path(sys.argv[1]);"
        " print(script['_pin'](), *sorted(os.sched_getaffinity(0)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SCRIPT)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    cpu, *pinned = map(int, proc.stdout.split())
    assert pinned == [cpu]
    assert cpu in os.sched_getaffinity(0)
