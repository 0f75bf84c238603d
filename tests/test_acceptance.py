"""Acceptance gate: one test per release criterion, one printed line each.

Every check here is exact; nothing is compared within a tolerance except
the timing criterion, whose 20 percent naive-symmetry band is part of the
criterion itself.
"""

import time
from fractions import Fraction

import pytest

from random_models import random_detailed, random_high_model, random_scheme

from mvalloc.bench import BenchSpec, run_bench
from mvalloc.compaction import HighLayerModel, build_high_layer, unfold
from mvalloc.formats import (
    dump_compacted,
    dump_model,
    dump_scheme,
    parse_compacted,
    parse_model,
    parse_scheme,
)
from mvalloc.lp import export_lp
from mvalloc.model import HardwareNode, Kind, Platform, check_feasibility
from mvalloc.solver import SolverConfig, brute_force, check_scheme, solve

GOLDEN_ROBOT_SCHEME = """\
{
  "objective_ms": "45",
  "placements": {
    "BottomVision": {
      "node": "H1",
      "variant": 3
    },
    "DecisionCenter": {
      "node": "H2",
      "variant": 0
    },
    "FrontVision": {
      "node": "H1",
      "variant": 5
    },
    "MissionPlanner": {
      "node": "H2",
      "variant": 0
    },
    "MovementNavigation": {
      "node": "H2",
      "variant": 0
    },
    "PressureManager": {
      "node": "H2",
      "variant": 0
    },
    "VisionManager": {
      "node": "H2",
      "variant": 0
    }
  },
  "status": "optimal"
}
"""


def test_criterion_1_oracle_equivalence(criterion):
    with criterion("[criterion 1] solve equals brute force on 500 instances") as info:
        start = time.monotonic()
        optimal = infeasible = 0
        for seed in range(500):
            model, platform = random_high_model(seed)
            fast = solve(model, platform)
            slow = brute_force(model, platform)
            assert fast.status == slow.status, f"seed {seed}"
            assert fast.objective_ms == slow.objective_ms, f"seed {seed}"
            if fast.status == "optimal":
                optimal += 1
                assert check_scheme(fast, model, platform) == [], f"seed {seed}"
            else:
                infeasible += 1
        elapsed = time.monotonic() - start
        assert optimal >= 50 and infeasible >= 50, "instance mix degenerated"
        assert elapsed < 60
        info["detail"] = f"{optimal} optimal, {infeasible} infeasible, {elapsed:.1f}s"


def test_criterion_2_compaction_soundness(criterion):
    with criterion("[criterion 2] optimal schemes unfold to feasible placements") as info:
        solved = 0
        for seed in range(200):
            repo, platform, architecture = random_detailed(seed)
            model = build_high_layer(architecture, repo)
            scheme = solve(model, platform)
            if scheme.status != "optimal":
                continue
            solved += 1
            assignment = unfold(scheme, model)
            result = check_feasibility(assignment, repo, platform)
            assert result.feasible, f"seed {seed}: {result.violations}"

            detailed_mem = {}
            detailed_cpu = {}
            detailed_exec = {}
            for cid, node_id in assignment.items():
                demand = repo.component(cid).demand
                detailed_mem[node_id] = detailed_mem.get(node_id, Fraction(0)) + demand.mem
                detailed_cpu[node_id] = detailed_cpu.get(node_id, Fraction(0)) + demand.cpu
                detailed_exec[node_id] = (
                    detailed_exec.get(node_id, Fraction(0)) + demand.exec_ms
                )
            compact_mem = {}
            compact_cpu = {}
            compact_exec = {}
            units = {u.id: u for u in model.all_units()}
            for unit_id, placement in scheme.placements.items():
                props = units[unit_id].variants[placement.variant].props
                compact_mem[placement.node] = (
                    compact_mem.get(placement.node, Fraction(0)) + props.mem
                )
                compact_cpu[placement.node] = (
                    compact_cpu.get(placement.node, Fraction(0)) + props.cpu
                )
                compact_exec[placement.node] = (
                    compact_exec.get(placement.node, Fraction(0)) + props.exec_ms
                )
            assert detailed_mem == compact_mem, f"seed {seed}"
            assert detailed_cpu == compact_cpu, f"seed {seed}"
            assert detailed_exec == compact_exec, f"seed {seed}"
        assert solved >= 100, f"only {solved} of 200 instances were solvable"
        info["detail"] = f"{solved} of 200 solved"


def test_criterion_3_robot_case_study(criterion, robot, robot_high):
    with criterion("[criterion 3] robot case study reproduces exactly") as info:
        repo, platform, _ = robot
        front = next(u for u in robot_high.units if u.id == "FrontVision")
        v0 = front.variants[0].props
        assert (v0.mem, v0.cpu, v0.gpu_threads, v0.exec_ms) == (
            Fraction(6),
            Fraction(3, 5),
            0,
            Fraction(22),
        )

        scheme = solve(robot_high, platform)
        assert scheme.status == "optimal"
        assert scheme.objective_ms == Fraction(45)

        chosen_front = scheme.placements["FrontVision"]
        chosen_bottom = scheme.placements["BottomVision"]
        assert chosen_front.node == "H1"
        assert chosen_bottom.node == "H1"
        def gpu_members(variant):
            return sum(repo.component(cid).kind is Kind.GPU for cid in variant.members)

        assert gpu_members(front.variants[chosen_front.variant]) == 4
        bottom = next(u for u in robot_high.units if u.id == "BottomVision")
        assert gpu_members(bottom.variants[chosen_bottom.variant]) == 1
        controls = (
            "VisionManager",
            "DecisionCenter",
            "MovementNavigation",
            "PressureManager",
            "MissionPlanner",
        )
        for unit_id in controls:
            assert scheme.placements[unit_id].node == "H2"

        assert dump_scheme(scheme) == GOLDEN_ROBOT_SCHEME

        reference = brute_force(robot_high, platform)
        assert (reference.status, reference.objective_ms, reference.placements) == (
            scheme.status,
            scheme.objective_ms,
            scheme.placements,
        )
        assignment = unfold(scheme, robot_high)
        assert check_feasibility(assignment, repo, platform).feasible
        info["detail"] = "objective 45 ms, byte-stable scheme"


def test_criterion_4_scalability_trend(criterion):
    with criterion("[criterion 4] two-variant model solves fastest") as info:
        start = time.monotonic()
        summaries = []
        for n in (30, 40, 50):
            report = run_bench(BenchSpec(n=n, seed=1, repetitions=100))
            # medians of the repetitions: a few stalls of a busy host move
            # a sub-millisecond mean by 20-40%, but not the median
            cpu = report.stat("naive_cpu").median_ms
            gpu = report.stat("naive_gpu").median_ms
            two = report.stat("two_variant").median_ms
            assert two < cpu, f"n={n}: two-variant {two:.4f} not under naive-CPU {cpu:.4f}"
            assert two < gpu, f"n={n}: two-variant {two:.4f} not under naive-GPU {gpu:.4f}"
            gap = abs(cpu - gpu) / max(cpu, gpu)
            assert gap < 0.20, f"n={n}: naive medians differ by {gap:.1%}"
            summaries.append(f"n={n} {two:.3f}<{min(cpu, gpu):.3f}ms gap {gap:.0%}")
        elapsed = time.monotonic() - start
        assert elapsed < 300
        info["detail"] = "; ".join(summaries) + f"; {elapsed:.0f}s"


def _optimal_instances(start_seed, needed, cap=1000, **kwargs):
    found = []
    seed = start_seed
    while len(found) < needed and seed < start_seed + cap:
        model, platform = random_high_model(seed, **kwargs)
        scheme = solve(model, platform)
        if scheme.status == "optimal":
            found.append((seed, model, platform, scheme))
        seed += 1
    assert len(found) == needed, f"only {len(found)} solvable instances in range"
    return found


def _scaled_exec(model, factor):
    def scale_unit(unit):
        return unit._replace(
            variants=[
                v._replace(props=v.props._replace(exec_ms=v.props.exec_ms * factor))
                for v in unit.variants
            ],
        )

    return HighLayerModel([scale_unit(u) for u in model.units], model.connections)


def test_criterion_5_scaling_invariance(criterion):
    with criterion("[criterion 5] objective scaling keeps the argmin") as info:
        factors = (Fraction(2), Fraction(1, 2), Fraction(3, 7), Fraction(5))
        cases = _optimal_instances(10_000, 100)
        for i, (seed, model, platform, scheme) in enumerate(cases):
            factor = factors[i % len(factors)]
            scaled = solve(_scaled_exec(model, factor), platform)
            assert scaled.status == "optimal", f"seed {seed}"
            assert scaled.objective_ms == scheme.objective_ms * factor, f"seed {seed}"
            assert scaled.placements == scheme.placements, f"seed {seed}"
            assert scaled.visited == scheme.visited, f"seed {seed}"
        info["detail"] = "100 cases, 4 factors"


def test_criterion_5_capacity_monotonicity(criterion):
    with criterion("[criterion 5] growing capacities never hurts") as info:
        checked = 0
        seed = 20_000
        while checked < 100:
            model, platform = random_high_model(seed)
            seed += 1
            before = solve(model, platform)
            if before.status != "optimal":
                continue
            wider = Platform(
                nodes=[
                    HardwareNode(
                        id=n.id,
                        use_mem=n.use_mem * 2,
                        use_cpu=n.use_cpu * 2,
                        use_gpu=n.use_gpu * 2,
                    )
                    for n in platform.nodes
                ]
            )
            after = solve(model, wider)
            assert after.status == "optimal", f"seed {seed - 1}"
            assert after.objective_ms <= before.objective_ms, f"seed {seed - 1}"
            checked += 1
        info["detail"] = "100 cases"


def test_criterion_5_aggregate_infeasibility(criterion):
    with criterion("[criterion 5] demand beyond total capacity is infeasible") as info:
        for seed in range(30_000, 30_100):
            model, platform = random_high_model(seed)
            total_min_mem = sum(
                min(v.props.mem for v in unit.variants) for unit in model.all_units()
            )
            old_total = sum(n.use_mem for n in platform.nodes)
            shrink = total_min_mem * Fraction(9, 10) / old_total
            tight = Platform(
                nodes=[
                    HardwareNode(
                        id=n.id,
                        use_mem=n.use_mem * shrink,
                        use_cpu=n.use_cpu,
                        use_gpu=n.use_gpu,
                    )
                    for n in platform.nodes
                ]
            )
            scheme = solve(model, tight)
            assert scheme.status == "infeasible", f"seed {seed}"
            assert scheme.visited == 0, f"seed {seed}: not caught before the search"
        info["detail"] = "100 cases"


def test_criterion_5_determinism(criterion):
    with criterion("[criterion 5] reruns are byte-identical") as info:
        for seed in range(40_000, 40_100):
            model, platform = random_high_model(seed)
            first = solve(model, platform)
            second = solve(model, platform)
            assert dump_scheme(first) == dump_scheme(second), f"seed {seed}"
            assert first.visited == second.visited, f"seed {seed}"
        info["detail"] = "100 cases"


def test_criterion_5_round_trip(criterion):
    with criterion("[criterion 5] serialization round-trips exactly") as info:
        for seed in range(50_000, 50_100):
            repo, platform, architecture = random_detailed(seed)
            model_text = dump_model(repo, platform, architecture)
            assert parse_model(model_text) == (repo, platform, architecture), f"seed {seed}"
            assert dump_model(*parse_model(model_text)) == model_text, f"seed {seed}"

            high, _ = random_high_model(seed)
            compact_text = dump_compacted(high)
            back = parse_compacted(compact_text)
            assert (back.units, back.connections) == (
                high.units,
                high.connections,
            ), f"seed {seed}"
            assert dump_compacted(back) == compact_text, f"seed {seed}"

            scheme = random_scheme(seed)
            scheme_text = dump_scheme(scheme)
            assert parse_scheme(scheme_text) == scheme, f"seed {seed}"
            assert dump_scheme(parse_scheme(scheme_text)) == scheme_text, f"seed {seed}"
        info["detail"] = "100 seeds, 3 formats each"


def test_criterion_6_milp_cross_check(criterion):
    pytest.importorskip("scipy")
    import lp_check

    with criterion("[criterion 6] external MILP solver agrees on 10 instances") as info:
        optimal = 0
        for seed in range(60_000, 60_010):
            model, platform = random_high_model(seed, integral=True, product_cap=50_000)
            expected = solve(model, platform, SolverConfig())
            status, objective, _ = lp_check.solve_lp_text(export_lp(model, platform))
            assert status == expected.status, f"seed {seed}"
            if status == "optimal":
                optimal += 1
                assert objective == expected.objective_ms, f"seed {seed}"
        assert optimal >= 3, "too few solvable instances to be meaningful"
        info["detail"] = f"{optimal} of 10 optimal, objectives equal"
