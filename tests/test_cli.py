import importlib
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from random_models import self_named_unit_model

from mvalloc.cli import main
from mvalloc.compaction import build_high_layer
from mvalloc.engine import available_backends
from mvalloc.fixtures import robot_model_text
from mvalloc.formats import (
    dump_model,
    dump_scheme,
    parse_assignment,
    parse_compacted,
    parse_model,
    parse_scheme,
)
from mvalloc.model import (
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


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture()
def robot_file(tmp_path):
    path = tmp_path / "robot.json"
    path.write_text(robot_model_text())
    return str(path)


def _tiny_model(mem_demand, mem_cap):
    repo = Repository(
        components=[
            Component(
                id="only",
                kind=Kind.CPU,
                function="f",
                demand=ResourceDemand(Fraction(mem_demand), Fraction(1), 0, Fraction(2)),
            )
        ]
    )
    platform = Platform(nodes=[HardwareNode("h", Fraction(mem_cap), Fraction(10))])
    arch = SystemArchitecture(units=[], singletons=["only"])
    return dump_model(repo, platform, arch)


def test_example_writes_the_fixture(tmp_path, capsys):
    out = tmp_path / "model.json"
    code, stdout, _ = run(capsys, "example", "-o", str(out))
    assert code == 0
    assert out.read_text() == robot_model_text()
    assert str(out) in stdout


def test_validate_ok(robot_file, capsys):
    code, stdout, stderr = run(capsys, "validate", robot_file)
    assert code == 0
    assert stdout.strip() == "ok"
    assert stderr == ""


def test_validate_reports_diagnostics_on_stderr(tmp_path, capsys):
    doc = json.loads(robot_model_text())
    doc["repository"]["components"][0]["mem"] = "-1"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "validate", str(path))
    assert code == 1
    assert "mem-negative" in stderr
    assert "problem(s) found" in stdout


def test_validate_parse_failure_is_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{broken")
    code, _, stderr = run(capsys, "validate", str(path))
    assert code == 2
    assert "line 1" in stderr


def test_missing_file_is_exit_2(capsys):
    code, _, stderr = run(capsys, "validate", "/nonexistent/model.json")
    assert code == 2
    assert "error" in stderr


def test_validate_rejects_alternatives_realizing_different_functions(tmp_path, capsys):
    # alternative [a] realizes f and [b] realizes g: validate must say so,
    # as compact does, instead of printing ok
    demand = ResourceDemand(Fraction(1), Fraction(1), 0, Fraction(1))
    repo = Repository(
        components=[Component(cid, Kind.CPU, f, demand) for cid, f in (("a", "f"), ("b", "g"))]
    )
    spec = UnitSpec("U", "declared", alternatives=[Assembly(["a"]), Assembly(["b"])])
    platform = Platform(nodes=[HardwareNode("h", Fraction(10), Fraction(10))])
    path = tmp_path / "model.json"
    path.write_text(dump_model(repo, platform, SystemArchitecture(units=[spec])))
    code, stdout, stderr = run(capsys, "validate", str(path))
    assert code == 1
    assert stderr == (
        "alternative-functions-differ [U]: alternative ['b'] does not realize"
        " the unit's functions\n"
    )
    assert stdout == "1 problem(s) found\n"
    code, _, stderr = run(capsys, "compact", str(path), "-o", str(tmp_path / "out.json"))
    assert code == 1
    assert "alternative-functions-differ [U]" in stderr


def test_compact_writes_the_high_layer(robot_file, tmp_path, capsys):
    out = tmp_path / "compact.json"
    code, stdout, _ = run(capsys, "compact", robot_file, "-o", str(out))
    assert code == 0
    model = parse_compacted(out.read_text())
    by_id = {u.id: u for u in model.units}
    assert len(by_id["FrontVision"].variants) == 6
    assert len(by_id["BottomVision"].variants) == 5
    assert sum(len(u.variants) == 1 for u in model.units) == 5
    assert stdout == f"compacted 2 unit(s) with 11 variant(s) and 5 singleton(s) -> {out}\n"


def test_solve_writes_the_optimal_scheme(robot_file, tmp_path, capsys):
    out = tmp_path / "scheme.json"
    code, stdout, _ = run(capsys, "solve", robot_file, "-o", str(out))
    assert code == 0
    scheme = parse_scheme(out.read_text())
    assert scheme.status == "optimal"
    assert scheme.objective_ms == Fraction(45)
    assert scheme.placements["FrontVision"].node == "H1"
    assert "objective 45 ms" in stdout


def test_solve_compacted_writes_the_same_scheme(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(dump_model(*self_named_unit_model()))
    compacted = tmp_path / "compacted.json"
    direct, reread = tmp_path / "direct.json", tmp_path / "reread.json"
    assert run(capsys, "compact", str(model), "-o", str(compacted))[0] == 0
    assert run(capsys, "solve", str(model), "-o", str(direct))[0] == 0
    code, _, _ = run(
        capsys, "solve", str(model), "--compacted", str(compacted), "-o", str(reread)
    )
    assert code == 0
    assert reread.read_bytes() == direct.read_bytes()
    assert parse_scheme(direct.read_text()).placements["Cam"].node == "h0"


@pytest.mark.parametrize(
    "command, message",
    [
        ("solve", "the model has no architecture section; pass --compacted instead"),
        ("compact", "the model has no architecture section to compact"),
    ],
)
def test_a_model_without_architecture_needs_a_compacted_file(command, message, tmp_path, capsys):
    repo, platform, _ = parse_model(robot_model_text())
    model = tmp_path / "bare.json"
    model.write_text(dump_model(repo, platform))
    out = tmp_path / "out.json"
    code, _, stderr = run(capsys, command, str(model), "-o", str(out))
    assert code == 1
    assert stderr == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "compact", "solve", "unfold", "export-lp"])
@pytest.mark.parametrize("mem", ["1e1000000", "1e10000000", "1e-5000"])
def test_an_exponent_is_refused_at_once_by_every_command(command, mem, tmp_path, capsys):
    # Fraction(str) would expand the power of ten in full: 10 s for "1e10000000"
    doc = json.loads(robot_model_text())
    doc["repository"]["components"][3]["mem"] = mem
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    scheme = tmp_path / "scheme.json"
    scheme.write_text("{}")
    out = tmp_path / "out"
    argv = [command, str(model), *([str(scheme)] if command == "unfold" else [])]
    if command != "validate":
        argv += ["-o", str(out)]
    start = time.perf_counter()
    code, _, stderr = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert stderr == f"error: $.repository.components[3].mem: not a valid number string: {mem!r}\n"
    assert not out.exists()


def test_a_long_accepted_decimal_is_written_by_every_command(tmp_path, capsys):
    # 3 002 digits: readable, and written with as many, within CPython's
    # 4 300-digit limit for integer strings
    mem = "0." + "0" * 3000 + "1"
    doc = json.loads(robot_model_text())
    doc["repository"]["components"][3]["mem"] = mem
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    compacted = tmp_path / "compacted.json"
    assert run(capsys, "validate", str(model))[0] == 0
    assert run(capsys, "compact", str(model), "-o", str(compacted))[0] == 0
    scheme = tmp_path / "scheme.json"
    argv = ["solve", str(model), "--compacted", str(compacted), "-o", str(scheme)]
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, "export-lp", str(model), "-o", str(tmp_path / "model.lp"))[0] == 0
    repo, _, architecture = parse_model(model.read_text())
    assert parse_compacted(compacted.read_text()) == build_high_layer(architecture, repo)


def test_solve_oracle_agrees(robot_file, tmp_path, capsys):
    out = tmp_path / "scheme.json"
    code, stdout, _ = run(capsys, "solve", robot_file, "-o", str(out), "--oracle")
    assert code == 0
    assert "oracle agrees" in stdout


def test_solve_oracle_disagrees(robot_file, tmp_path, capsys, monkeypatch):
    from mvalloc import solver
    from mvalloc.compaction import AllocationScheme

    def wrong(model, platform, config):
        return AllocationScheme("infeasible", None, {})

    monkeypatch.setattr(solver, "brute_force", wrong)
    out = tmp_path / "scheme.json"
    code, _, stderr = run(capsys, "solve", robot_file, "-o", str(out), "--oracle")
    assert code == 1
    assert stderr == (
        "error: oracle disagrees: solve says optimal/45, brute force says infeasible/None\n"
    )
    assert not out.exists()


def test_solve_python_backend(robot_file, tmp_path, capsys):
    out = tmp_path / "scheme.json"
    code, _, _ = run(capsys, "solve", robot_file, "-o", str(out), "--backend", "python")
    assert code == 0
    assert parse_scheme(out.read_text()).objective_ms == Fraction(45)


def test_solve_from_compacted_file(robot_file, tmp_path, capsys):
    compacted = tmp_path / "compact.json"
    assert run(capsys, "compact", robot_file, "-o", str(compacted))[0] == 0
    out = tmp_path / "scheme.json"
    code, _, _ = run(
        capsys, "solve", robot_file, "--compacted", str(compacted), "-o", str(out)
    )
    assert code == 0
    assert parse_scheme(out.read_text()).objective_ms == Fraction(45)


def test_solve_weights_change_the_objective(robot_file, tmp_path, capsys):
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"FrontVision": 2}))
    out = tmp_path / "scheme.json"
    code, _, _ = run(
        capsys, "solve", robot_file, "--weights", str(weights), "-o", str(out)
    )
    assert code == 0
    scheme = parse_scheme(out.read_text())
    assert scheme.status == "optimal"
    assert scheme.objective_ms > Fraction(45)


def test_solve_infeasible_still_writes_the_scheme(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(_tiny_model(mem_demand=100, mem_cap=10))
    out = tmp_path / "scheme.json"
    code, stdout, _ = run(capsys, "solve", str(model), "-o", str(out))
    assert code == 3
    assert "infeasible" in stdout
    scheme = parse_scheme(out.read_text())
    assert scheme.status == "infeasible"
    assert scheme.placements == {}


def test_solve_timeout_is_exit_4(robot_file, tmp_path, capsys):
    out = tmp_path / "scheme.json"
    code, stdout, _ = run(
        capsys, "solve", robot_file, "-o", str(out), "--time-limit-ms", "0"
    )
    assert code == 4
    assert "timeout" in stdout
    assert parse_scheme(out.read_text()).status == "timeout"


def test_solve_oracle_is_skipped_after_a_timeout(robot_file, tmp_path, capsys):
    # a timed-out solve claims no optimum, so the oracle has nothing to check
    out = tmp_path / "scheme.json"
    argv = ["solve", robot_file, "-o", str(out), "--time-limit-ms", "0", "--oracle"]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 4
    assert "oracle skipped" in stdout
    assert "disagrees" not in stderr
    assert parse_scheme(out.read_text()).status == "timeout"


@pytest.mark.skipif("c" not in available_backends(), reason="extension not built")
def test_solve_oracle_line_is_the_same_on_both_backends(robot_file, tmp_path, capsys):
    # one oracle checks either backend, so the enumeration is the same
    lines = []
    for backend in ("c", "python"):
        out = tmp_path / f"{backend}.json"
        argv = ["solve", robot_file, "-o", str(out), "--oracle", "--backend", backend]
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        lines.append(stdout.splitlines()[0])
    assert lines == ["oracle agrees after 443 enumeration steps"] * 2


def test_unfold_round_trip(robot_file, tmp_path, capsys):
    scheme_path = tmp_path / "scheme.json"
    assert run(capsys, "solve", robot_file, "-o", str(scheme_path))[0] == 0
    out = tmp_path / "assignment.json"
    code, stdout, _ = run(capsys, "unfold", robot_file, str(scheme_path), "-o", str(out))
    assert code == 0
    assignment = parse_assignment(out.read_text())
    assert assignment["MergeAndEnhanceGPU"] == "H1"
    assert assignment["DecisionCenter"] == "H2"
    assert assignment["Camera1"] == "H1"
    assert "13 component(s)" in stdout


def test_unfold_rejects_an_overloaded_scheme(robot_file, tmp_path, capsys):
    scheme_path = tmp_path / "scheme.json"
    assert run(capsys, "solve", robot_file, "-o", str(scheme_path))[0] == 0
    scheme = parse_scheme(scheme_path.read_text())
    for unit_id in ("FrontVision", "BottomVision"):
        scheme.placements[unit_id] = type(scheme.placements[unit_id])(
            variant=scheme.placements[unit_id].variant, node="H2"
        )
    scheme_path.write_text(dump_scheme(scheme))
    out = tmp_path / "assignment.json"
    code, _, stderr = run(capsys, "unfold", robot_file, str(scheme_path), "-o", str(out))
    assert code == 1
    assert "over gpu_threads" in stderr
    assert not out.exists()


def test_unfold_unknown_node_is_a_domain_error(robot_file, tmp_path, capsys):
    scheme_path = tmp_path / "scheme.json"
    assert run(capsys, "solve", robot_file, "-o", str(scheme_path))[0] == 0
    scheme = parse_scheme(scheme_path.read_text())
    placement = scheme.placements["VisionManager"]
    scheme.placements["VisionManager"] = type(placement)(variant=0, node="H9")
    scheme_path.write_text(dump_scheme(scheme))
    code, _, stderr = run(
        capsys, "unfold", robot_file, str(scheme_path), "-o", str(tmp_path / "a.json")
    )
    assert code == 1
    assert "unknown id" in stderr


def test_export_lp(robot_file, tmp_path, capsys):
    out = tmp_path / "problem.lp"
    code, stdout, _ = run(capsys, "export-lp", robot_file, "-o", str(out))
    assert code == 0
    text = out.read_text()
    assert text.startswith("\\ allocation MILP")
    assert text.endswith("End\n")
    assert "7 unit(s)" in stdout


def test_bench_smoke(tmp_path, capsys):
    json_out = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys,
        "bench",
        "--n",
        "3",
        "--seed",
        "1",
        "--reps",
        "2",
        "--warmup",
        "1",
        "--json",
        str(json_out),
    )
    assert code == 0
    assert "naive_cpu" in stdout
    assert "(mean solve time per model, ms)" in stdout
    payload = json.loads(json_out.read_text())
    assert len(payload["reports"]) == 1


def test_bench_prints_the_rows_it_finished_when_a_later_n_fails(capsys, monkeypatch):
    from mvalloc import bench

    finished = bench.run_bench

    def run_bench(spec):
        if spec.n == 4:
            raise RuntimeError("no instance accepted at n=4")
        return finished(spec)

    monkeypatch.setattr(bench, "run_bench", run_bench)
    code, stdout, stderr = run(
        capsys, "bench", "--n", "3", "--n", "4", "--reps", "2", "--warmup", "1"
    )
    assert code == 1
    rows = [line.split()[0] for line in stdout.splitlines()[2:-2]]
    assert rows == ["3"]
    assert "no instance accepted at n=4" in stderr


def test_bench_gives_up_on_a_size_without_instances_at_once(tmp_path, capsys):
    # at n = 200 no draw is ever accepted; before generation was capped at
    # 50 draws the command ran for about 2.5 min, now for under a second
    json_out = tmp_path / "report.json"
    start = time.perf_counter()
    code, stdout, stderr = run(
        capsys, "bench", "--n", "100", "--n", "200", "--reps", "3", "--json", str(json_out)
    )
    assert time.perf_counter() - start < 5
    assert code == 1
    assert [line.split()[0] for line in stdout.splitlines()[2:-2]] == ["100"]
    assert "no acceptable instance within 50 attempts (n=200, seed=1): 50 rejected" in stderr
    assert [report["n"] for report in json.loads(json_out.read_text())["reports"]] == [100]


@pytest.mark.parametrize(
    "argv",
    [
        ["export-lp", "{model}", "-o", "{out}", "--backend", "python"],
        ["solve", "{model}", "-o", "{out}", "--unit-order", "declared"],
        ["solve", "{model}", "-o", "{out}", "--incumbent-on-timeout", "--oracle"],
        ["bench", "--n", "3", "--csv", "{out}"],
        ["bench", "--n", "3", "--backend", "both"],
    ],
)
def test_options_that_do_not_exist_are_usage_errors(argv, robot_file, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main([a.format(model=robot_file, out=out) for a in argv])
    assert exit_info.value.code == 2
    assert argv[-2] in capsys.readouterr().err
    assert not out.exists()


def test_unrecognized_log_level_warns_but_runs(robot_file, capsys, monkeypatch):
    monkeypatch.setenv("ALLOC_LOG", "chatty")
    code, stdout, stderr = run(capsys, "validate", robot_file)
    assert code == 0
    assert stdout.strip() == "ok"
    assert "ALLOC_LOG" in stderr


def test_missing_output_flag_is_a_usage_error(robot_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["compact", robot_file])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_console_script_is_installed():
    exe = shutil.which("mvalloc")
    if exe is None:
        pytest.skip("entry point not on PATH")
    proc = subprocess.run(
        [exe, "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "validate" in proc.stdout


def test_console_script_names_the_cli_main(capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"mvalloc": "mvalloc.cli:main"}
    module, _, name = scripts["mvalloc"].partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert entry is main
    with pytest.raises(SystemExit) as exit_info:
        entry(["--help"])
    assert exit_info.value.code == 0
    assert "validate" in capsys.readouterr().out


def test_module_main_guard(robot_file, tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from mvalloc.cli import main; sys.exit(main(sys.argv[1:]))",
            "validate",
            robot_file,
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "ok"


def test_cli_import_leaves_bench_and_fixtures_unloaded():
    # ctypes comes in only with the engine, which only solving commands load
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, mvalloc.cli; "
            "print(sorted({'mvalloc.bench', 'mvalloc.fixtures', 'ctypes'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_SOLVER_MODULES = ("mvalloc.solver", "mvalloc.engine", "mvalloc._kernels_py", "ctypes")


@pytest.mark.parametrize(
    "command, solves",
    [("validate", False), ("compact", False), ("unfold", False), ("example", False), ("solve", True)],
)
def test_each_command_loads_only_what_it_runs(command, solves, robot_file, tmp_path):
    scheme = str(tmp_path / "scheme.json")
    assert main(["solve", robot_file, "-o", scheme]) == 0
    argv = {
        "validate": [robot_file],
        "compact": [robot_file, "-o", str(tmp_path / "compacted.json")],
        "unfold": [robot_file, scheme, "-o", str(tmp_path / "assignment.json")],
        "example": ["-o", str(tmp_path / "example.json")],
        "solve": [robot_file, "-o", str(tmp_path / "again.json")],
    }[command]
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json, sys; from mvalloc.cli import main; code = main(sys.argv[1:]); "
            f"print(json.dumps([code, sorted(set({_SOLVER_MODULES!r}) & set(sys.modules))]))",
            command,
            *argv,
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    if solves:
        assert "mvalloc.solver" in loaded
    else:
        assert loaded == []
