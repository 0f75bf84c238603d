import dataclasses
import gc
import random
import time
from fractions import Fraction

import pytest

from random_models import random_high_model, reversed_variants, tie_heavy_model

from mvalloc import engine
from mvalloc.compaction import HighLayerModel, MultiVariantUnit, Variant
from mvalloc.engine import available_backends
from mvalloc.formats import dump_scheme
from mvalloc.lp import export_lp
from mvalloc.model import HardwareNode, Platform, ResourceDemand, UnknownIdError
from mvalloc.solver import (
    BRUTE_FORCE_GUARD,
    EnumerationGuardError,
    Placement,
    SolverConfig,
    SolverError,
    _scale,
    _search,
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


@pytest.mark.parametrize("run", [solve, brute_force])
def test_empty_model_is_trivially_optimal(run):
    scheme = run(HighLayerModel(units=[]), Platform(nodes=[node("h", 1, 1)]))
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


def test_aggregate_overload_is_caught_before_the_search(caplog):
    units = [unit(f"u{i}", (6, 1, 0, 1)) for i in range(4)]
    platform = Platform(nodes=[node("h0", 10, 99), node("h1", 10, 99)])
    with caplog.at_level("INFO", logger="mvalloc.solver"):
        scheme = solve(HighLayerModel(units=units), platform)
    assert scheme.status == "infeasible"
    assert scheme.visited == 0
    assert "total mem demand" in caplog.text
    # also holds a unit no node can hold: the total demand is reported first
    caplog.clear()
    homeless = HighLayerModel(units=[*units, unit("big", (1, 1, 100, 1))])
    with caplog.at_level("INFO", logger="mvalloc.solver"):
        scheme = solve(homeless, platform)
    assert (scheme.status, scheme.visited) == ("infeasible", 0)
    assert "total mem demand" in caplog.text
    assert "'big'" not in caplog.text


@pytest.mark.parametrize("name", available_backends())
def test_a_unit_no_node_can_hold_is_caught_before_the_search(name, caplog):
    # each minimum fits some node, and the totals fit, but no node holds
    # all three of "gpu"'s minima at once
    units = [unit("cpu", (1, 1, 0, 1)), unit("gpu", (8, 1, 100, 1), (6, 2, 300, 2))]
    platform = Platform(nodes=[node("big", 10, 10), node("g", 4, 10, gpu=1000)])
    with caplog.at_level("INFO", logger="mvalloc.solver"):
        scheme = solve(HighLayerModel(units=units), platform, backend=name)
    assert (scheme.status, scheme.visited, scheme.placements) == ("infeasible", 0, {})
    assert "'gpu'" in caplog.text
    assert brute_force(HighLayerModel(units=units), platform).status == "infeasible"


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


def test_permuting_the_units_does_not_change_the_objective():
    for seed in range(40):
        model, platform = random_high_model(seed, product_cap=20_000)
        units = model.all_units()
        shuffled = random.Random(seed).sample(units, len(units))
        permuted = HighLayerModel(units=shuffled, connections=model.connections)
        given = solve(model, platform)
        other = solve(permuted, platform)
        assert (given.status, given.objective_ms) == (other.status, other.objective_ms), (
            f"seed {seed}"
        )


def _presorted(model, platform):
    """The model with its units in the documented search order, computed
    independently.  A unit's eligible nodes hold its minimum mem, cpu and
    GPU threads (each over its variants) at once; its score sums, over the
    three resources, that minimum / the eligible nodes' summed capacity (0
    where that is 0).  Descending score, ties in declaration order."""

    def score(u):
        minima = (
            min(v.props.mem for v in u.variants),
            min(v.props.cpu for v in u.variants),
            min(v.props.gpu_threads for v in u.variants),
        )
        eligible = [
            n
            for n in platform.nodes
            if n.use_mem >= minima[0]
            and n.use_cpu >= minima[1]
            and n.use_gpu >= minima[2]
        ]
        capacities = (
            sum(n.use_mem for n in eligible),
            sum(n.use_cpu for n in eligible),
            sum(n.use_gpu for n in eligible),
        )
        return sum(Fraction(m) / c if c else Fraction(0) for m, c in zip(minima, capacities))

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
    # eligibility decides: against total capacity cpu-only y's mem share
    # (40/210) beats GPU-only x's largest or summed share (0.1 + 6/210),
    # but x can use only g, where its shares sum to 0.7
    mixed = Platform(
        nodes=[node("g", 10, 10, gpu=1000), node("p0", 100, 100), node("p1", 100, 100)]
    )
    gpu_only = HighLayerModel(units=[unit("y", (40, 1, 0, 5)), unit("x", (5, 1, 100, 5))])
    assert [u.id for u in _presorted(gpu_only, mixed).all_units()] == ["x", "y"]
    # every node ties in GPU threads, so mem and cpu alone split eligibility
    gpu_tie = Platform(
        nodes=[
            node("t0", 10, 100, gpu=500),
            node("t1", 100, 10, gpu=500),
            node("t2", 50, 50, gpu=500),
        ]
    )
    mixed_units = HighLayerModel(
        units=[
            unit("m", (60, 5, 0, 5)),
            unit("c", (5, 60, 100, 5)),
            unit("g", (5, 5, 500, 5)),
            unit("both", (20, 20, 0, 5), (40, 8, 0, 2)),
        ]
    )
    cases = [(tied, no_gpu), (gpu_only, mixed), (mixed_units, gpu_tie)]
    for seed in range(60):
        model, platform = random_high_model(seed, product_cap=20_000)
        cases.append((model, platform))
        plain = [node(n.id, n.use_mem, n.use_cpu) for n in platform.nodes]
        cases.append((model, Platform(nodes=plain)))
        # every third node zeroed, as on the tight_search platforms
        zeroed = [node(n.id, 0, 0) if i % 3 == 2 else n for i, n in enumerate(platform.nodes)]
        cases.append((model, Platform(nodes=zeroed)))
    reordered = 0
    for model, platform in cases:
        presorted = [u.id for u in _presorted(model, platform).all_units()]
        if presorted != [u.id for u in model.all_units()]:
            reordered += 1
        scaled = _scale(model, platform, SolverConfig())
        assert _search(scaled).unit_ids == presorted
        assert scaled.unit_ids == [u.id for u in model.units]
    assert reordered > len(cases) // 2
    scheme = solve(tied, no_gpu)
    assert [(u, p.node) for u, p in scheme.placements.items()] == [
        ("b", "h0"),
        ("d", "h1"),
        ("a", "h0"),
        ("c", "h1"),
    ]
    scheme = solve(gpu_only, mixed)
    assert [(u, p.node) for u, p in scheme.placements.items()] == [("x", "g"), ("y", "p0")]


def test_search_lays_each_unit_out_in_walk_order():
    # the kernels trust this layout unchecked: each unit's slice lists its
    # variants cheapest first, ties in declared order, and decl names the
    # declared index of the variant whose scaled values each position holds
    checked = 0
    for seed in range(300):
        for model, platform in (
            random_high_model(seed, product_cap=30_000),
            tie_heavy_model(seed, max_units=5, product_cap=300),
        ):
            for m in (model, reversed_variants(model)):
                scaled = _scale(m, platform, SolverConfig())
                search = _search(scaled)
                nv, off, *columns = search.args[:6]  # then mem, cpu, gpu, cost
                decl = search.args[9]
                declared_nv, declared_off, *declared = scaled.kernel_args[:6]
                at = {uid: u for u, uid in enumerate(scaled.unit_ids)}
                for uid, count, a in zip(search.unit_ids, nv, off, strict=True):
                    u = at[uid]
                    assert count == declared_nv[u]
                    labels = decl[a : a + count]
                    assert sorted(labels) == list(range(count))
                    # with decl distinct, costs rise and decl rises across ties
                    keys = [(columns[3][a + j], v) for j, v in enumerate(labels)]
                    assert keys == sorted(keys)
                    for j, v in enumerate(labels):
                        here = [col[a + j] for col in columns]
                        assert here == [col[declared_off[u] + v] for col in declared]
                    checked += 1
    assert checked > 1200


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


def test_solve_returns_brute_force_placements():
    # brute_force keeps the first optimum of the declared-order walk, so on
    # the units in search order a cut that loses it changes the placements
    # even where the objective holds
    for seed in range(300):
        model, full = random_high_model(seed, product_cap=30_000)
        weighted = SolverConfig(unit_weights={model.all_units()[0].id: Fraction(7, 2)})
        for platform in (full, _shrunk(full)):
            presorted = _presorted(model, platform)
            for cfg in (SolverConfig(), weighted):
                fast = solve(model, platform, cfg)
                slow = brute_force(presorted, platform, cfg)
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


# every caller of _scale gets its input checks
@pytest.mark.parametrize("run", [solve, brute_force, export_lp])
def test_config_validation(run):
    model, platform = _weighted_instance()
    with pytest.raises(SolverError, match="unknown units"):
        run(model, platform, SolverConfig(unit_weights={"nobody": Fraction(1)}))
    with pytest.raises(SolverError, match="positive"):
        run(model, platform, SolverConfig(unit_weights={"A": Fraction(0)}))
    with pytest.raises(SolverError, match="non-negative"):
        run(model, platform, SolverConfig(time_limit_ms=-1))


@pytest.mark.parametrize("run", [solve, brute_force, export_lp])
def test_model_validation(run):
    platform = Platform(nodes=[node("h", 10, 10)])
    twice = HighLayerModel(units=[unit("u", (1, 1, 0, 1)), unit("u", (1, 1, 0, 1))])
    with pytest.raises(SolverError, match="duplicate unit"):
        run(twice, platform)
    dup_nodes = Platform(nodes=[node("h", 10, 10), node("h", 10, 10)])
    with pytest.raises(SolverError, match="duplicate node"):
        run(HighLayerModel(units=[unit("u", (1, 1, 0, 1))]), dup_nodes)
    empty = HighLayerModel(units=[MultiVariantUnit(id="u", variants=[])])
    with pytest.raises(SolverError, match="no variants"):
        run(empty, platform)
    negative = HighLayerModel(units=[unit("u", (-1, 1, 0, 1))])
    with pytest.raises(SolverError, match="negative"):
        run(negative, platform)
    below_zero = Platform(nodes=[node("h", 10, -1)])
    with pytest.raises(SolverError, match="negative capacity values"):
        run(HighLayerModel(units=[unit("u", (1, 1, 0, 1))]), below_zero)


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


def test_timeout_with_incumbent_reports_a_feasible_scheme():
    model, platform = _hard_packing()
    start = time.monotonic()
    scheme = _solve_collector_paused(model, platform, SolverConfig(time_limit_ms=25))
    assert time.monotonic() - start < 10
    assert scheme.status == "timeout"
    assert scheme.visited > 0
    assert len(scheme.placements) == 30
    assert scheme.objective_ms is not None
    assert check_scheme(scheme, model, platform) == []


def test_brute_force_guard_refuses_oversized_instances():
    units = [unit(f"u{i}", (1, 1, 0, 1), (1, 1, 0, 2)) for i in range(12)]
    platform = Platform(nodes=[node(f"h{j}", 100, 100) for j in range(4)])
    with pytest.raises(EnumerationGuardError, match=str(BRUTE_FORCE_GUARD)):
        brute_force(HighLayerModel(units=units), platform)


def test_brute_force_answers_deeper_than_the_recursion_limit():
    # one raw assignment, far inside the guard, on more units than
    # Python's default recursion limit
    units = [unit(f"u{i}", (1, 1, 0, 1)) for i in range(1100)]
    platform = Platform(nodes=[node("h", 2000, 2000)])
    scheme = brute_force(HighLayerModel(units=units), platform)
    assert scheme.status == "optimal"
    assert scheme.visited == 1101


def test_brute_force_ignores_the_time_limit():
    model, platform = _weighted_instance()
    scheme = brute_force(model, platform, SolverConfig(time_limit_ms=0))
    assert scheme.status == "optimal"


def test_check_scheme_flags_overruns_per_resource():
    units = [unit("a", (6, 1, 600, 1)), unit("b", (6, 1, 600, 1)), unit("c", (1, 6, 0, 1))]
    model = HighLayerModel(units=units)
    platform = Platform(nodes=[node("g", 10, 10, gpu=1000), node("h", 10, 5)])
    from mvalloc.solver import AllocationScheme, Placement

    crammed = AllocationScheme(
        status="optimal",
        objective_ms=Fraction(3),
        placements={"a": Placement(0, "g"), "b": Placement(0, "g"), "c": Placement(0, "h")},
    )
    violations = check_scheme(crammed, model, platform)
    assert violations == [("g", "mem"), ("g", "gpu_threads"), ("h", "cpu")]


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


def _outcome(scheme):
    return scheme.status, scheme.objective_ms, scheme.placements, scheme.visited, scheme.backend


def test_oversized_integers_fall_back_to_python_kernels():
    huge = 2**63
    model = HighLayerModel(
        units=[unit("a", (huge, 1, 0, 1)), unit("b", (huge, 1, 0, 2))]
    )
    platform = Platform(nodes=[node("h", 2 * huge, 10)])
    scheme = solve(model, platform)
    assert _outcome(scheme) == _outcome(solve(model, platform, backend="python"))
    assert scheme.status == "optimal"
    assert scheme.objective_ms == Fraction(3)
    if "c" in available_backends():
        with pytest.raises(SolverError, match="do not fit"):
            solve(model, platform, backend="c")


def test_costs_summing_past_int64_fall_back_to_python_kernels():
    # each cost fits int64, but together they reach INT64_MAX, the
    # compiled kernel's starting limit
    big = 2**62
    model = HighLayerModel(
        units=[unit("a", (1, 1, 0, big), (1, 1, 0, big - 1)), unit("b", (1, 1, 0, 1))]
    )
    platform = Platform(nodes=[node("h", 2, 10)])
    scheme = solve(model, platform)
    assert _outcome(scheme) == _outcome(solve(model, platform, backend="python"))
    assert scheme.objective_ms == Fraction(big)
    if "c" in available_backends():
        with pytest.raises(SolverError, match="do not fit"):
            solve(model, platform, backend="c")


@pytest.mark.skipif("c" not in available_backends(), reason="extension not built")
def test_values_past_2_62_that_fit_int64_run_on_the_compiled_kernel():
    # demands in [2**62, 2**63) and a capacity of INT64_MAX, with costs
    # summing below it: the compiled kernel takes them.  Only node h holds
    # the cheap variants of a and b, so the walk backtracks.
    big = 2**62
    model = HighLayerModel(
        units=[
            unit("a", (big + 5, 1, 0, 3), (big, 1, 0, 4)),
            unit("b", (big + 5, 1, 0, 2), (big, 2, 0, 4)),
            unit("c", (big, 1, 0, big)),
        ]
    )
    platform = Platform(
        nodes=[node("h", 2**63 - 1, 10), node("g", big + 1, 10), node("f", big, 10)]
    )
    scheme = solve(model, platform)
    assert scheme.backend == "c"
    assert scheme.objective_ms == Fraction(big + 6)
    python = solve(model, platform, backend="python")
    assert _outcome(scheme)[:4] == _outcome(python)[:4]


def test_backend_is_reported():
    model, platform = random_high_model(7)
    scheme = solve(model, platform)
    assert scheme.backend in available_backends()


@pytest.mark.skipif("c" not in available_backends(), reason="extension not built")
def test_backends_agree_exactly():
    # the instances of test_solve_returns_brute_force_placements
    def outcome(scheme):
        return scheme.status, scheme.objective_ms, scheme.placements, scheme.visited

    for seed in range(300):
        model, full = random_high_model(seed, product_cap=30_000)
        weight = {model.all_units()[0].id: Fraction(7, 2)}
        configs = [SolverConfig(unit_weights=weights) for weights in ({}, weight)]
        for platform in (full, _shrunk(full)):
            for cfg in configs:
                a = solve(model, platform, cfg, backend="c")
                b = solve(model, platform, cfg, backend="python")
                assert outcome(a) == outcome(b), f"seed {seed}"


def _spy(monkeypatch, on_call=None):
    """Route `solve`'s kernel calls through a wrapper and return the list
    of results it records, one per call.  `on_call(kernel, *args,
    **kwargs)`, when given, stands in for each call."""
    calls = []
    get_backend = engine.get_backend

    def spied(name="auto"):
        real = get_backend(name)

        def solve_search(*args, **kwargs):
            if on_call is None:
                result = real.solve_search(*args, **kwargs)
            else:
                result = on_call(real.solve_search, *args, **kwargs)
            calls.append(result)
            return result

        return dataclasses.replace(real, solve_search=solve_search)

    monkeypatch.setattr(engine, "get_backend", spied)
    return calls


def test_reversed_variants_return_brute_force_placements(monkeypatch):
    # each unit's variants listed backwards: the cheapest-first walk meets
    # the optima in another order than the declared one, so the tie rule
    # must keep the lexicographically first of them, in one kernel call
    calls = _spy(monkeypatch)
    searched = 0
    for seed in range(300):
        model, platform = random_high_model(seed, product_cap=30_000)
        model = reversed_variants(model)
        weight = {model.all_units()[0].id: Fraction(7, 2)}
        presorted = _presorted(model, platform)
        for weights in ({}, weight):
            cfg = SolverConfig(unit_weights=weights)
            slow = brute_force(presorted, platform, cfg)
            for name in available_backends():
                fast = solve(model, platform, cfg, backend=name)
                assert (fast.status, fast.placements) == (slow.status, slow.placements), (
                    f"seed {seed}"
                )
                searched += fast.visited > 0
    assert len(calls) == searched


def _with_dominated_copies(model, seed):
    """The model with, in about half its units, a copy of one variant that
    costs more than every variant of the unit and needs no less of any
    resource, appended as the unit's last variant: the variant it copies
    strictly dominates it, so no optimum takes it."""
    rng = random.Random(seed)
    units = []
    for u in model.units:
        variants = list(u.variants)
        if rng.random() < 0.5:
            props = rng.choice(variants).props
            dearest = max(v.props.exec_ms for v in variants)
            copy = ResourceDemand(
                mem=props.mem + rng.choice((0, Fraction(1, 2), 3)),
                cpu=props.cpu + rng.choice((0, Fraction(1, 4))),
                gpu_threads=props.gpu_threads + rng.choice((0, 64)),
                exec_ms=dearest + rng.choice((1, 2, 7)),  # keeps the cost scale
            )
            variants.append(Variant(members=[f"{u.id}copy"], props=copy))
        units.append(MultiVariantUnit(u.id, variants))
    return HighLayerModel(units=units, connections=model.connections)


@pytest.mark.parametrize("name", available_backends())
def test_dominated_copies_change_no_walk_and_no_scheme(name):
    # the walk skips each copy, so it answers exactly as without them,
    # visited included, and solve still returns brute force's placements,
    # the variants listed forwards or backwards
    kernel = engine.get_backend(name).solve_search
    copied = 0
    for seed in range(300):
        model, platform = random_high_model(seed, max_units=6, product_cap=5_000)
        padded = _with_dominated_copies(model, seed)
        copied += padded != model
        walks = []
        for m in (model, padded):
            walks.append(kernel(*_search(_scale(m, platform, SolverConfig())).args))
        assert walks[0] == walks[1], f"seed {seed}"
        for m in (padded, reversed_variants(padded)):
            slow = brute_force(_presorted(m, platform), platform)
            fast = solve(m, platform, backend=name)
            assert (fast.status, fast.placements) == (slow.status, slow.placements), (
                f"seed {seed}"
            )
    assert copied > 200


@pytest.mark.parametrize("name", available_backends())
def test_variants_listed_dearest_first_take_one_walk(name):
    # each unit's cheapest variant comes last and the optimum takes it in
    # every unit: the cheapest-first walk proves that at its first leaf
    n = 300
    units = [unit(f"u{i}", (3, 1, 0, 9 + i % 4), (2, 1, 0, 5), (1, 1, 0, 2)) for i in range(n)]
    platform = Platform(nodes=[node("h0", n // 2, n), node("h1", n, n)])
    scheme = solve(HighLayerModel(units=units), platform, backend=name)
    assert scheme.status == "optimal"
    assert scheme.objective_ms == 2 * n
    assert scheme.visited == n + 1
    assert all(p.variant == 2 for p in scheme.placements.values())
    assert [p.node for p in scheme.placements.values()].count("h0") == n // 2


@pytest.mark.parametrize("name", available_backends())
def test_timeout_reports_the_walks_incumbent(monkeypatch, name):
    # the hard packing with each unit's small, slow variant listed first:
    # the walk meets a passed deadline at its first clock check, and its
    # incumbent comes back in declared variant indices
    model, platform = _hard_packing()
    model = reversed_variants(model)
    calls = _spy(monkeypatch, lambda kernel, *args, **kw: kernel(*args, **{**kw, "deadline_ns": 0}))
    scheme = solve(model, platform, backend=name)
    assert len(calls) == 1
    assert scheme.status == "timeout"
    assert scheme.visited == 8192
    assert len(scheme.placements) == 30
    assert check_scheme(scheme, model, platform) == []
    variants = {u.id: u.variants for u in model.units}
    assert scheme.objective_ms == sum(
        variants[uid][p.variant].props.exec_ms for uid, p in scheme.placements.items()
    )


@pytest.mark.parametrize("name", available_backends())
def test_timeout_before_any_leaf_keeps_no_placements(monkeypatch, name):
    # eleven units of mem 4 on five nodes of mem 10: the totals fit, but a
    # node holds two units at most, so the walk reaches no leaf before it
    # meets a passed deadline at its first clock check
    units = [unit(f"u{i}", (4, 1, 0, 1)) for i in range(11)]
    platform = Platform(nodes=[node(f"h{j}", 10, 100) for j in range(5)])
    calls = _spy(monkeypatch, lambda kernel, *args, **kw: kernel(*args, **{**kw, "deadline_ns": 0}))
    scheme = solve(HighLayerModel(units=units), platform, backend=name)
    assert len(calls) == 1
    assert (scheme.status, scheme.visited) == ("timeout", 8192)
    assert (scheme.placements, scheme.objective_ms) == ({}, None)


# A and B list their CPU variant (10 ms) before the GPU one (1 ms), and only
# one GPU variant fits: the cheapest-first walk meets A on the GPU first, at
# 11 ms, then B on it at the same cost, under A's CPU variant, which comes
# first and so replaces it
_FIRST_OPTIMUM = {"A": Placement(0, "g"), "B": Placement(1, "g")}


@pytest.mark.parametrize("name", available_backends())
def test_the_first_optimum_takes_one_kernel_call(monkeypatch, name):
    model, platform = _weighted_instance()
    calls = _spy(monkeypatch)
    scheme = solve(model, platform, backend=name)
    assert (scheme.placements, scheme.objective_ms) == (_FIRST_OPTIMUM, 11)
    assert len(calls) == 1
    assert scheme.visited == calls[0][3]


@pytest.mark.parametrize("name", available_backends())
def test_timeout_after_the_tie_reports_the_replacing_incumbent(monkeypatch, name):
    # the deadline passes as the walk ends: the incumbent is the leaf that
    # replaced the one the walk met first
    def times_out(kernel, *args, **kwargs):
        _, cost, choices, visited = kernel(*args, **kwargs)
        return 2, cost, choices, visited

    model, platform = _weighted_instance()
    calls = _spy(monkeypatch, times_out)
    scheme = solve(model, platform, backend=name)
    assert len(calls) == 1
    assert scheme.status == "timeout"
    assert scheme.visited == calls[0][3]
    assert (scheme.placements, scheme.objective_ms) == (_FIRST_OPTIMUM, 11)


def test_tie_heavy_models_return_brute_force_schemes():
    # integral values, every node twice and costs from 1 to 3: optima tie
    # by the dozen, listed forwards and backwards
    optimal = 0
    for seed in range(200):
        model, platform = tie_heavy_model(seed, max_units=6, max_nodes=3, product_cap=500)
        for m in (model, reversed_variants(model)):
            slow = brute_force(_presorted(m, platform), platform)
            for name in available_backends():
                fast = solve(m, platform, backend=name)
                assert (fast.status, fast.objective_ms, fast.placements) == (
                    slow.status,
                    slow.objective_ms,
                    slow.placements,
                ), f"seed {seed}"
            optimal += slow.status == "optimal"
    assert optimal > 200
