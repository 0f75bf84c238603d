import gc
import time
from fractions import Fraction

import pytest

from gen import random_high_model

from mvalloc.compaction import HighLayerModel, MultiVariantUnit, Variant
from mvalloc.engine import available_backends
from mvalloc.formats import dump_scheme
from mvalloc.model import HardwareNode, Platform, ResourceDemand, UnknownIdError
from mvalloc.solver import (
    BRUTE_FORCE_GUARD,
    EnumerationGuardError,
    SolverConfig,
    SolverError,
    brute_force,
    check_scheme,
    solve,
)


def unit(uid, *variants):
    return MultiVariantUnit(
        id=uid,
        variants=[
            Variant(
                members=[f"{uid}x{i}"],
                props=ResourceDemand(
                    mem=Fraction(mem),
                    cpu=Fraction(cpu),
                    gpu_threads=gpu,
                    exec_ms=Fraction(exec_ms),
                ),
            )
            for i, (mem, cpu, gpu, exec_ms) in enumerate(variants)
        ],
    )


def node(nid, mem, cpu, gpu=0):
    return HardwareNode(id=nid, use_mem=Fraction(mem), use_cpu=Fraction(cpu), use_gpu=gpu)


def test_picks_the_cheapest_feasible_variant():
    model = HighLayerModel(units=[unit("u", (1, 1, 600, 3), (1, 1, 0, 10))])
    platform = Platform(nodes=[node("plain", 10, 10)])
    scheme = solve(model, platform)
    assert scheme.status == "optimal"
    assert scheme.objective_ms == Fraction(10)
    assert scheme.placements["u"].variant == 1


def test_ties_break_to_the_first_variant_and_node():
    model = HighLayerModel(units=[unit("u", (1, 1, 0, 5), (1, 1, 0, 5))])
    platform = Platform(nodes=[node("h0", 10, 10), node("h1", 10, 10)])
    scheme = solve(model, platform)
    assert scheme.placements["u"] .variant == 0
    assert scheme.placements["u"].node == "h0"


def test_objective_is_exact():
    model = HighLayerModel(
        units=[
            unit("a", (1, 1, 0, Fraction(1, 3))),
            unit("b", (1, 1, 0, Fraction(1, 6))),
        ]
    )
    platform = Platform(nodes=[node("h", 10, 10)])
    scheme = solve(model, platform)
    assert scheme.objective_ms == Fraction(1, 2)


def test_empty_model_is_trivially_optimal():
    scheme = solve(HighLayerModel(units=[]), Platform(nodes=[node("h", 1, 1)]))
    assert scheme.status == "optimal"
    assert scheme.objective_ms == Fraction(0)
    assert scheme.placements == {}


def test_infeasible_reports_no_placements():
    model = HighLayerModel(units=[unit("u", (100, 1, 0, 1))])
    platform = Platform(nodes=[node("h", 10, 10)])
    scheme = solve(model, platform)
    assert scheme.status == "infeasible"
    assert scheme.objective_ms is None
    assert scheme.placements == {}


def test_aggregate_overload_is_caught_before_the_search():
    units = [unit(f"u{i}", (6, 1, 0, 1)) for i in range(4)]
    platform = Platform(nodes=[node("h0", 10, 99), node("h1", 10, 99)])
    scheme = solve(HighLayerModel(units=units), platform)
    assert scheme.status == "infeasible"
    assert scheme.visited == 0


def test_gpu_threads_sum_across_units_on_a_node():
    units = [unit("a", (1, 1, 600, 1)), unit("b", (1, 1, 600, 1))]
    platform = Platform(nodes=[node("g", 10, 10, gpu=1000)])
    scheme = solve(HighLayerModel(units=units), platform)
    assert scheme.status == "infeasible"
    wider = Platform(nodes=[node("g", 10, 10, gpu=1200)])
    assert solve(HighLayerModel(units=units), wider).status == "optimal"


def test_solve_is_deterministic():
    model, platform = random_high_model(404)
    first = solve(model, platform)
    second = solve(model, platform)
    assert first == second
    assert first.visited == second.visited
    assert dump_scheme(first) == dump_scheme(second)


def test_unit_order_does_not_change_the_objective():
    for seed in range(40):
        model, platform = random_high_model(seed, product_cap=20_000)
        demand = solve(model, platform, SolverConfig(unit_order="demand"))
        declared = solve(model, platform, SolverConfig(unit_order="declared"))
        assert demand.status == declared.status, f"seed {seed}"
        assert demand.objective_ms == declared.objective_ms, f"seed {seed}"


def _presorted(model, platform):
    """The model with its units in the documented search order, computed
    independently: descending max over resources of the unit's cheapest
    demand / total capacity (0 where the total is 0), ties in declaration
    order."""
    totals = (
        sum(n.use_mem for n in platform.nodes),
        sum(n.use_cpu for n in platform.nodes),
        sum(n.use_gpu for n in platform.nodes),
    )

    def score(u):
        minima = (
            min(v.props.mem for v in u.variants),
            min(v.props.cpu for v in u.variants),
            min(v.props.gpu_threads for v in u.variants),
        )
        return max(Fraction(m) / t if t else Fraction(0) for m, t in zip(minima, totals))

    units = model.all_units()
    ranked = sorted(range(len(units)), key=lambda i: (-score(units[i]), i))
    return HighLayerModel(units=[units[i] for i in ranked])


def test_demand_order_is_the_documented_rule():
    # no GPU capacity at all; a and c tie, so only declaration order
    # decides which of them takes the first free node
    no_gpu = Platform(nodes=[node("h0", 4, 10), node("h1", 4, 10)])
    tied = HighLayerModel(
        units=[
            unit("a", (1, 1, 0, 5)),
            unit("b", (3, 1, 0, 5)),
            unit("c", (1, 1, 0, 5)),
            unit("d", (2, 2, 256, 1), (2, 2, 0, 4)),
        ]
    )
    cases = [(tied, no_gpu)]
    for seed in range(60):
        model, platform = random_high_model(seed, product_cap=20_000)
        cases.append((model, platform))
        plain = [node(n.id, n.use_mem, n.use_cpu) for n in platform.nodes]
        cases.append((model, Platform(nodes=plain)))
    reordered = 0
    for model, platform in cases:
        presorted = _presorted(model, platform)
        if [u.id for u in presorted.all_units()] != [u.id for u in model.all_units()]:
            reordered += 1
        by_demand = solve(model, platform, SolverConfig(unit_order="demand"))
        declared = solve(presorted, platform, SolverConfig(unit_order="declared"))
        assert dump_scheme(by_demand) == dump_scheme(declared)
        assert by_demand.visited == declared.visited
    assert reordered > len(cases) // 2
    scheme = solve(tied, no_gpu)
    assert [(u, p.node) for u, p in scheme.placements.items()] == [
        ("b", "h0"),
        ("d", "h1"),
        ("a", "h0"),
        ("c", "h1"),
    ]


def test_solve_agrees_with_brute_force():
    for seed in range(60):
        model, platform = random_high_model(seed, product_cap=30_000)
        fast = solve(model, platform)
        slow = brute_force(model, platform)
        assert fast.status == slow.status, f"seed {seed}"
        assert fast.objective_ms == slow.objective_ms, f"seed {seed}"
        if fast.status == "optimal":
            assert check_scheme(fast, model, platform) == [], f"seed {seed}"
            assert check_scheme(slow, model, platform) == [], f"seed {seed}"


def _shrunk(platform):
    return Platform(
        nodes=[
            HardwareNode(
                id=n.id,
                use_mem=n.use_mem * Fraction(3, 4),
                use_cpu=n.use_cpu * Fraction(3, 4),
                use_gpu=n.use_gpu,
            )
            for n in platform.nodes
        ]
    )


def test_declared_order_returns_brute_force_placements():
    # brute_force keeps the first optimum of the declared-order walk, so a
    # cut that loses it changes the placements even where the objective holds
    declared = SolverConfig(unit_order="declared")
    for seed in range(300):
        model, full = random_high_model(seed, product_cap=30_000)
        weighted = SolverConfig(
            unit_order="declared", unit_weights={model.all_units()[0].id: Fraction(7, 2)}
        )
        for platform in (full, _shrunk(full)):
            for cfg in (declared, weighted):
                fast = solve(model, platform, cfg)
                slow = brute_force(model, platform, cfg)
                assert (fast.status, fast.placements) == (slow.status, slow.placements), (
                    f"seed {seed}"
                )


def _weighted_instance():
    model = HighLayerModel(
        units=[
            unit("A", (1, 1, 0, 10), (1, 1, 600, 1)),
            unit("B", (1, 1, 0, 10), (1, 1, 600, 1)),
        ]
    )
    platform = Platform(nodes=[node("g", 100, 100, gpu=600), node("c", 100, 100)])
    return model, platform


def test_weights_steer_the_scarce_gpu_to_the_heavy_unit():
    model, platform = _weighted_instance()
    favour_a = solve(model, platform, SolverConfig(unit_weights={"A": Fraction(100)}))
    assert favour_a.placements["A"].variant == 1
    assert favour_a.placements["B"].variant == 0
    assert favour_a.objective_ms == Fraction(110)
    favour_b = solve(model, platform, SolverConfig(unit_weights={"B": Fraction(100)}))
    assert favour_b.placements["B"].variant == 1
    assert favour_b.placements["A"].variant == 0
    assert favour_b.objective_ms == Fraction(110)


def test_config_validation():
    model, platform = _weighted_instance()
    with pytest.raises(SolverError, match="unknown units"):
        solve(model, platform, SolverConfig(unit_weights={"nobody": Fraction(1)}))
    with pytest.raises(SolverError, match="positive"):
        solve(model, platform, SolverConfig(unit_weights={"A": Fraction(0)}))
    with pytest.raises(SolverError, match="unit_order"):
        solve(model, platform, SolverConfig(unit_order="random"))
    with pytest.raises(SolverError, match="non-negative"):
        solve(model, platform, SolverConfig(time_limit_ms=-1))


def test_model_validation():
    platform = Platform(nodes=[node("h", 10, 10)])
    twice = HighLayerModel(units=[unit("u", (1, 1, 0, 1)), unit("u", (1, 1, 0, 1))])
    with pytest.raises(SolverError, match="duplicate unit"):
        solve(twice, platform)
    dup_nodes = Platform(nodes=[node("h", 10, 10), node("h", 10, 10)])
    with pytest.raises(SolverError, match="duplicate node"):
        solve(HighLayerModel(units=[unit("u", (1, 1, 0, 1))]), dup_nodes)
    empty = HighLayerModel(units=[MultiVariantUnit(id="u", variants=[])])
    with pytest.raises(SolverError, match="no variants"):
        solve(empty, platform)
    negative = HighLayerModel(units=[unit("u", (-1, 1, 0, 1))])
    with pytest.raises(SolverError, match="negative"):
        solve(negative, platform)


def test_zero_time_limit_times_out_without_searching():
    model, platform = _weighted_instance()
    scheme = solve(model, platform, SolverConfig(time_limit_ms=0))
    assert scheme.status == "timeout"
    assert scheme.objective_ms is None
    assert scheme.placements == {}
    assert scheme.visited == 0


def _hard_packing(units_count=30):
    """Feasible instance whose optimality proof takes far longer than the
    time limits used below: per unit, a memory-hungry cheap variant and a
    tiny expensive one, with node memory fitting only a few hungry ones."""
    units = [unit(f"u{i}", (50, 1, 0, 1), (1, 1, 0, 2)) for i in range(units_count)]
    platform = Platform(
        nodes=[node("h0", 210, 1000), node("h1", 210, 1000), node("h2", 210, 1000)]
    )
    return HighLayerModel(units=units), platform


def _solve_collector_paused(model, platform, config):
    """`solve` with the collector paused, as `bench.run_bench` times it: a
    full collection of the test process takes tens of milliseconds and,
    when it falls before the search starts, uses up a 25 ms budget there."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return solve(model, platform, config)
    finally:
        if collecting:
            gc.enable()


def test_timeout_mid_search_keeps_no_placements_by_default():
    model, platform = _hard_packing()
    start = time.monotonic()
    scheme = _solve_collector_paused(model, platform, SolverConfig(time_limit_ms=25))
    assert time.monotonic() - start < 10
    assert scheme.status == "timeout"
    assert scheme.placements == {}
    assert scheme.objective_ms is None
    assert scheme.visited > 0


def test_timeout_with_incumbent_reports_a_feasible_scheme():
    model, platform = _hard_packing()
    scheme = _solve_collector_paused(
        model, platform, SolverConfig(time_limit_ms=25, incumbent_on_timeout=True)
    )
    assert scheme.status == "timeout"
    assert len(scheme.placements) == 30
    assert scheme.objective_ms is not None
    assert check_scheme(scheme, model, platform) == []


def test_incumbent_flag_changes_nothing_when_optimal():
    model, platform = _weighted_instance()
    plain = solve(model, platform)
    flagged = solve(model, platform, SolverConfig(incumbent_on_timeout=True))
    assert plain == flagged


def test_brute_force_guard_refuses_oversized_instances():
    units = [unit(f"u{i}", (1, 1, 0, 1), (1, 1, 0, 2)) for i in range(12)]
    platform = Platform(nodes=[node(f"h{j}", 100, 100) for j in range(4)])
    with pytest.raises(EnumerationGuardError, match=str(BRUTE_FORCE_GUARD)):
        brute_force(HighLayerModel(units=units), platform)


def test_brute_force_ignores_the_time_limit():
    model, platform = _weighted_instance()
    scheme = brute_force(model, platform, SolverConfig(time_limit_ms=0))
    assert scheme.status == "optimal"


def test_check_scheme_flags_overruns_per_resource():
    units = [unit("a", (6, 1, 600, 1)), unit("b", (6, 1, 600, 1))]
    model = HighLayerModel(units=units)
    platform = Platform(nodes=[node("g", 10, 10, gpu=1000)])
    from mvalloc.solver import AllocationScheme, Placement

    crammed = AllocationScheme(
        status="optimal",
        objective_ms=Fraction(2),
        placements={"a": Placement(0, "g"), "b": Placement(0, "g")},
    )
    violations = check_scheme(crammed, model, platform)
    assert ("g", "mem") in violations
    assert ("g", "gpu_threads") in violations
    assert ("g", "cpu") not in violations


def test_check_scheme_rejects_unknown_ids():
    from mvalloc.solver import AllocationScheme, Placement

    model = HighLayerModel(units=[unit("a", (1, 1, 0, 1))])
    platform = Platform(nodes=[node("h", 10, 10)])
    ghost = AllocationScheme("optimal", Fraction(1), {"zz": Placement(0, "h")})
    with pytest.raises(SolverError, match="unknown unit"):
        check_scheme(ghost, model, platform)
    bad_variant = AllocationScheme("optimal", Fraction(1), {"a": Placement(7, "h")})
    with pytest.raises(SolverError, match="no variant"):
        check_scheme(bad_variant, model, platform)
    bad_node = AllocationScheme("optimal", Fraction(1), {"a": Placement(0, "zz")})
    with pytest.raises(UnknownIdError):
        check_scheme(bad_node, model, platform)


def test_oversized_integers_fall_back_to_python_kernels():
    huge = 2**61
    model = HighLayerModel(
        units=[unit("a", (huge, 1, 0, 1)), unit("b", (huge, 1, 0, 2))]
    )
    platform = Platform(nodes=[node("h", 2 * huge, 10)])
    scheme = solve(model, platform)
    assert scheme.backend == "python"
    assert scheme.status == "optimal"
    assert scheme.objective_ms == Fraction(3)
    if "c" in available_backends():
        with pytest.raises(SolverError, match="do not fit"):
            solve(model, platform, backend="c")


def test_backend_is_reported():
    model, platform = random_high_model(7)
    scheme = solve(model, platform)
    assert scheme.backend in available_backends()


@pytest.mark.skipif("c" not in available_backends(), reason="extension not built")
def test_backends_agree_exactly():
    # the instances of test_declared_order_returns_brute_force_placements,
    # in both unit orders
    def outcome(scheme):
        return scheme.status, scheme.objective_ms, scheme.placements, scheme.visited

    for seed in range(300):
        model, full = random_high_model(seed, product_cap=30_000)
        weight = {model.all_units()[0].id: Fraction(7, 2)}
        configs = [
            SolverConfig(unit_order=order, unit_weights=weights)
            for order in ("demand", "declared")
            for weights in ({}, weight)
        ]
        for platform in (full, _shrunk(full)):
            for cfg in configs:
                a = solve(model, platform, cfg, backend="c")
                b = solve(model, platform, cfg, backend="python")
                assert outcome(a) == outcome(b), f"seed {seed}"
