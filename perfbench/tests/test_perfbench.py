"""Tests of the benchmark itself: its generator and its checker.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import gen  # noqa: E402

ROBOT = (BENCH.parent / "src" / "mvalloc" / "data" / "robot.json").read_text(encoding="utf-8")


def _texts(cases) -> list[str]:
    return [c.text() for c in cases]


@pytest.mark.parametrize("family", [gen.large_cases, gen.tight_cases])
def test_generator_gives_identical_inputs_for_a_seed(family):
    assert _texts(family(3)) == _texts(family(3))
    assert _texts(family(3)) != _texts(family(4))


def _ratios(x: gen.Case, y: gen.Case) -> set:
    """Each non-zero figure of y over the same figure of x, by what it
    measures; a figure that is zero in x must be zero in y."""
    ratios = set()

    def add(key, fx, fy):
        fx, fy = Fraction(fx), Fraction(fy)
        if fx:
            ratios.add((key, fy / fx))
        else:
            assert not fy

    for cx, cy in zip(x.model["repository"]["components"], y.model["repository"]["components"]):
        assert (cx["id"], cx["kind"], cx["function"]) == (cy["id"], cy["kind"], cy["function"])
        for key in ("mem", "cpu", "exec_ms"):
            add(key, cx[key], cy[key])
        add("gpu", cx["gpu_threads"], cy["gpu_threads"])
    for nx, ny in zip(x.model["platform"]["nodes"], y.model["platform"]["nodes"]):
        add("mem", nx["use_mem"], ny["use_mem"])
        add("cpu", nx["use_cpu"], ny["use_cpu"])
        add("gpu", nx["use_gpu"], ny["use_gpu"])
    return ratios


@pytest.mark.parametrize("family", [gen.large_cases, gen.tight_cases])
def test_seeds_differ_only_in_scale(family):
    a, b = family(1), family(2)
    for x, y in zip(a, b):
        assert x.units == y.units and x.variants == y.variants
        ratios = _ratios(x, y)
        # one factor per kind of figure, for demands and capacities alike
        assert len({key for key, _ in ratios}) == len(ratios)
        if x.planted_ms is not None:
            assert {("exec_ms", y.planted_ms / x.planted_ms)} <= ratios


def test_large_models_keep_their_sizes_and_the_oversize_one_is_fixed():
    a, b = gen.large_cases(1), gen.large_cases(2)
    assert [c.units for c in a] == [*gen.LARGE_SIZES, gen.LARGE_OVERSIZE]
    assert a[-1].text() == b[-1].text()


def test_contiguous_choices_follow_the_filtered_product_order():
    length = 5
    everything = gen._all_choices(length)
    gpu = 0  # index of the GPU version in a version group

    def contiguous(choice):
        at = [i for i, c in enumerate(choice) if c == gpu]
        return not at or at[-1] - at[0] + 1 == len(at)

    assert gen._contiguous_choices(length) == [c for c in everything if contiguous(c)]


# --- the checker -----------------------------------------------------------


def _instance() -> check.Instance:
    model = {
        "repository": {
            "components": [
                {"id": "a0", "kind": "CPU", "function": "a", "mem": "6", "cpu": "0.5", "gpu_threads": 0, "exec_ms": "10"},
                {"id": "a1", "kind": "GPU", "function": "a", "mem": "8", "cpu": "0.1", "gpu_threads": 256, "exec_ms": "4"},
                {"id": "b0", "kind": "CPU", "function": "b", "mem": "5", "cpu": "0.5", "gpu_threads": 0, "exec_ms": "7"},
            ]
        },
        "platform": {
            "nodes": [
                {"id": "G", "use_mem": "10", "use_cpu": "1", "use_gpu": 512},
                {"id": "C", "use_mem": "10", "use_cpu": "1", "use_gpu": 0},
            ]
        },
    }
    return check.Instance.from_model(model, {"A": [["a0"], ["a1"]], "B": [["b0"]]})


def test_checker_accepts_a_fitting_optimal_scheme():
    inst = _instance()
    placements = {"A": (1, "G"), "B": (0, "C")}
    assert check.scheme_problems("optimal", Fraction(11), placements, inst, Fraction(11)) == []


def test_checker_rejects_a_scheme_that_overloads_a_node():
    inst = _instance()
    placements = {"A": (1, "G"), "B": (0, "G")}  # 8 + 5 MB on a 10 MB node
    problems = check.scheme_problems("optimal", Fraction(11), placements, inst, Fraction(11))
    assert any("node G over mem" in p for p in problems)


def test_checker_rejects_a_gpu_variant_on_a_cpu_node():
    inst = _instance()
    problems = check.scheme_problems("optimal", Fraction(11), {"A": (1, "C"), "B": (0, "G")}, inst, Fraction(11))
    assert any("node C over gpu_threads" in p for p in problems)


def test_checker_rejects_a_wrong_objective():
    inst = _instance()
    placements = {"A": (1, "G"), "B": (0, "C")}
    problems = check.scheme_problems("optimal", Fraction(10), placements, inst, Fraction(11))
    assert any("reported objective 10" in p for p in problems)


def test_checker_rejects_a_scheme_missing_a_unit():
    inst = _instance()
    problems = check.scheme_problems("optimal", Fraction(4), {"A": (1, "G")}, inst, Fraction(11))
    assert problems and "misses units ['B']" in problems[0]


def test_detailed_check_takes_the_gpu_peak_and_counts_components_once():
    inst = _instance()
    assignment, conflicts = check.unfold({"A": (1, "G"), "B": (0, "C")}, inst)
    assert conflicts == []
    assert check.assignment_problems(assignment, assignment, inst) == []
    overloaded = {"a1": "G", "b0": "G"}
    assert any("over mem" in p for p in check.assignment_problems(overloaded, overloaded, inst))
    assert check.assignment_problems({"a1": "C", "b0": "C"}, assignment, inst)


def test_unfold_reports_a_shared_component_pulled_to_two_nodes():
    robot, g2 = gen.robot_cases(ROBOT)
    inst = check.Instance.from_model(g2.model, g2.variants)
    placements = {uid: (0, "H2") for uid in inst.units}
    placements["FrontVision"] = (5, "H1")
    placements["BottomVision"] = (4, "G2")
    _, conflicts = check.unfold(placements, inst)
    assert any("Camera1" in c for c in conflicts)


def test_lp_shape_check_counts_binaries_and_rows():
    inst = _instance()
    lines = ["\\ u0 = A", "\\ u1 = B", "Minimize", " obj:", "Subject To", " assign_u0:", " assign_u1:"]
    lines += [f" {r}_h{h}:" for h in range(2) for r in ("mem", "cpu", "gpu")]
    binaries = [f" x{i}" for i in range(6)]
    good = "\n".join(lines + ["Binary", *binaries, "End"])
    assert check.lp_problems(good, inst, ["A", "B"]) == []
    short = "\n".join(lines + ["Binary", *binaries[:-1], "End"])
    assert check.lp_problems(short, inst, ["A", "B"])
    assert check.lp_problems(good, inst, ["B", "A"])


def test_highs_reproduces_the_case_study_optimum():
    pytest.importorskip("scipy")
    robot, _ = gen.robot_cases(ROBOT)
    optimum, placements = check.highs_optimum(check.Instance.from_model(robot.model, robot.variants))
    assert optimum == 45
    assert len(placements) == robot.units


def test_checker_rejects_a_non_optimal_objective_on_a_tight_instance():
    pytest.importorskip("scipy")
    case = gen.tight_cases(1)[0]
    inst = check.Instance.from_model(case.model, case.variants)
    optimum, best = check.highs_optimum(inst)
    assert check.scheme_problems("optimal", optimum, best, inst, optimum) == []

    def cost(placements):
        return sum((inst.variant(inst.units[u][v]).exec_ms for u, (v, _) in placements.items()), Fraction(0))

    # any other feasible scheme costs more, and is refused as not optimal
    neighbours = (
        dict(best, **{uid: (v, node)})
        for uid, variants in inst.units.items()
        for v in range(len(variants))
        for node in inst.nodes
    )
    worse = next(
        p for p in neighbours if cost(p) > optimum and not check.scheme_problems("optimal", cost(p), p, inst, cost(p))
    )
    problems = check.scheme_problems("optimal", cost(worse), worse, inst, optimum)
    assert problems == [f"objective {cost(worse)} is not the optimum {optimum}"]
