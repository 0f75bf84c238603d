"""The timing harness behind the committed benchmark record still runs.

`scripts/bench_record.py` imports the package in child processes, so a
change to a function it calls would otherwise show only when someone
next regenerates `BENCH_record.json`.  Running one stage pass and one
timed solve per backend here makes that change fail the ordinary test
suite.
"""

import importlib.util
from pathlib import Path

from mvalloc import engine
from mvalloc.fixtures import robot_model_text

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_harness_times_a_robot_pass_and_a_solve_per_backend(robot, robot_high):
    script = _load_script()
    times = {}
    script._pass(robot_model_text(), times)
    assert len(times) == 11
    assert all(len(ms) == 1 and ms[0] >= 0 for ms in times.values())
    _, platform, _ = robot
    for backend in engine.available_backends():
        solved = script._solve(robot_high, platform, backend)
        assert solved["status"] == "optimal"
        assert '"objective_ms": "45"' in solved["scheme"]
        assert solved["visited"] > 0
        assert 1 <= len(solved["times"]) <= script.REPS
