import functools
import importlib.util
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from random_models import random_high_model

from mvalloc.compaction import OPTIMAL, HighLayerModel, build_high_layer
from mvalloc.fixtures import robot_model_text
from mvalloc.formats import parse_model
from mvalloc.lp import export_lp
from mvalloc.model import Platform
from mvalloc.solver import SolverConfig, SolverError, solve
from test_solver import node, unit

GOLDEN = """\
\\ allocation MILP: 1 units, 1 nodes
\\ u0 = U
\\ h0 = H
Minimize
 obj:
  5 x_u0_v0_h0
  + 3 x_u0_v1_h0
Subject To
 assign_u0:
  1 x_u0_v0_h0
  + 1 x_u0_v1_h0 = 1
 mem_h0:
  1 x_u0_v0_h0
  + 2 x_u0_v1_h0 <= 10
 cpu_h0:
  1 x_u0_v0_h0
  + 1 x_u0_v1_h0 <= 10
 gpu_h0:
  0 x_u0_v0_h0 <= 0
Binary
 x_u0_v0_h0
 x_u0_v1_h0
End
"""


def test_small_instance_matches_the_golden_text():
    model = HighLayerModel(units=[unit("U", (1, 1, 0, 5), (2, 1, 0, 3))])
    platform = Platform(nodes=[node("H", 10, 10)])
    assert export_lp(model, platform) == GOLDEN


def test_robot_export_structure(robot, robot_high):
    _, platform, _ = robot
    text = export_lp(robot_high, platform)
    lines = text.splitlines()
    assert lines[0] == "\\ allocation MILP: 7 units, 2 nodes"
    assert "\\ u0 = FrontVision" in lines
    assert "\\ h0 = H1" in lines
    assert "\\ h1 = H2" in lines
    for keyword in ("Minimize", "Subject To", "Binary", "End"):
        assert keyword in lines
    for u in range(7):
        assert f" assign_u{u}:" in lines
    for h in range(2):
        for resource in ("mem", "cpu", "gpu"):
            assert f" {resource}_h{h}:" in lines
    assert max(len(line) for line in lines) <= 90
    assert text.endswith("End\n")


def test_coefficients_are_scaled_integers(robot, robot_high):
    _, platform, _ = robot
    text = export_lp(robot_high, platform)
    body = text[text.index("Minimize") :]
    assert "." not in body and "/" not in body
    # each row is multiplied through by its resource's common denominator
    assert "+ 11 x_u0_v1_h0" in text  # CPU 0.55, times 20
    assert "+ 9 x_u1_v1_h0" in text  # memory 4.5, times 2
    assert "  + 8 x_u3_v0_h1\n  + 6 x_u4_v0_h1\n  + 4 x_u5_v0_h1\n  + 4 x_u6_v0_h1 <= 30\n" in text
    assert "objective_ms" not in text  # integral exec times need no divisor


def test_fractional_objective_is_scaled_with_its_divisor():
    model = HighLayerModel(units=[unit("U", (1, 1, 0, Fraction(1, 3)))])
    platform = Platform(nodes=[node("H", 10, 10)])
    text = export_lp(model, platform)
    assert "\\ objective_ms = obj / 3\nMinimize\n obj:\n  1 x_u0_v0_h0\n" in text


def test_export_validates_inputs():
    platform = Platform(nodes=[node("H", 10, 10)])
    with pytest.raises(SolverError, match="no units"):
        export_lp(HighLayerModel(units=[]), platform)
    model = HighLayerModel(units=[unit("U", (1, 1, 0, 1))])
    with pytest.raises(SolverError, match="no nodes"):
        export_lp(model, Platform(nodes=[]))
    with pytest.raises(SolverError, match="unknown units"):
        export_lp(model, platform, SolverConfig(unit_weights={"zz": Fraction(1)}))


def test_weights_scale_objective_coefficients():
    model = HighLayerModel(units=[unit("U", (1, 1, 0, 5))])
    platform = Platform(nodes=[node("H", 10, 10)])
    text = export_lp(model, platform, SolverConfig(unit_weights={"U": Fraction(3, 2)}))
    assert " obj:\n  15 x_u0_v0_h0\n" in text
    assert "\\ objective_ms = obj / 2\n" in text


def test_lp_check_reads_integers_only():
    lp_check = pytest.importorskip("lp_check")
    objective, constraints, binaries = lp_check.parse_lp(GOLDEN)
    assert objective == [(5, "x_u0_v0_h0"), (3, "x_u0_v1_h0")]
    assert constraints[0] == ("assign_u0", [(1, "x_u0_v0_h0"), (1, "x_u0_v1_h0")], "=", 1)
    assert binaries == ["x_u0_v0_h0", "x_u0_v1_h0"]
    faults = [
        ("5 x_u0_v0_h0", "5.0 x_u0_v0_h0"),  # a non-integer coefficient
        ("5 x_u0_v0_h0", "5e0 x_u0_v0_h0"),
        ("<= 10", "<= 10.5"),  # a non-integer right-hand side
        ("+ 3 x_u0_v1_h0", "3 x_u0_v1_h0"),  # a later term with no sign
    ]
    for old, new in faults:
        with pytest.raises(ValueError):
            lp_check.parse_lp(GOLDEN.replace(old, new, 1))


def _milp_cross_check(seeds, integral):
    """HiGHS on the exported text agrees with `solve`: same status, and
    the LP objective is objective_ms times the header's divisor."""
    lp_check = pytest.importorskip("lp_check")
    pytest.importorskip("scipy")
    solved = 0
    for seed in seeds:
        model, platform = random_high_model(seed, product_cap=20_000, integral=integral)
        expected = solve(model, platform)
        text = export_lp(model, platform)
        divisor = re.search(r"^\\ objective_ms = obj / (\d+)$", text, re.M)
        assert (divisor is None) == integral, f"seed {seed}"
        status, objective, _ = lp_check.solve_lp_text(text)
        assert status == expected.status, f"seed {seed}"
        if status == "optimal":
            solved += 1
            scale = int(divisor[1]) if divisor else 1
            assert objective == expected.objective_ms * scale, f"seed {seed}"
    assert solved >= 2


def test_milp_cross_check_on_integral_instances():
    _milp_cross_check(range(5000, 5008), integral=True)


def test_milp_cross_check_on_fractional_instances():
    _milp_cross_check(range(7000, 7008), integral=False)



PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(name):
    """A module of the benchmark, loaded by path (perfbench is not a
    package) and registered before it runs, as its dataclasses need."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[key])
    return sys.modules[key]


@functools.cache
def _planted_300():
    """The smallest planted model of the benchmark's cli_large workload."""
    return _perfbench("gen").large_cases(1)[0]


def _high_layer(case):
    repo, platform, architecture = parse_model(case.text())
    return build_high_layer(architecture, repo), platform


def test_the_benchmark_lp_check_accepts_the_export():
    gen, check = _perfbench("gen"), _perfbench("check")
    cases = gen.robot_cases(robot_model_text()) + gen.tight_cases(1)[:1] + [_planted_300()]
    for case in cases:
        inst = check.Instance.from_model(case.model, case.variants)
        text = export_lp(*_high_layer(case))
        assert check.lp_problems(text, inst, list(inst.units)) == [], case.name


def test_highs_agrees_on_the_benchmark_packings():
    """An exact check beyond the oracle's reach: HiGHS on the exported LP
    of every tight 12-16 unit packing, of the planted 300-unit model and of
    that model with every node's mem and cpu cut to 17/20 (near full)
    finds `solve`'s status and objective."""
    lp_check = pytest.importorskip("lp_check")
    pytest.importorskip("scipy")
    packings = _perfbench("gen").tight_cases(1) + [_planted_300()]
    cases = [(case.name, *_high_layer(case)) for case in packings]
    high, platform = cases[-1][1:]
    cut = Fraction(17, 20)
    near_full = [node(n.id, n.use_mem * cut, n.use_cpu * cut, n.use_gpu) for n in platform.nodes]
    cases.append(("large300 at 17/20", high, Platform(nodes=near_full)))
    for name, high, platform in cases:
        expected = solve(high, platform)
        text = export_lp(high, platform)
        divisor = re.search(r"^\\ objective_ms = obj / (\d+)$", text, re.M)
        status, objective, _ = lp_check.solve_lp_text(text)
        assert status == expected.status == OPTIMAL, name
        assert objective == expected.objective_ms * (int(divisor[1]) if divisor else 1), name
