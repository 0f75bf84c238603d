import importlib.util
import resource
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from random_models import random_high_model, reversed_variants, tie_heavy_model

from mvalloc import engine
from mvalloc.compaction import (
    STATUSES,
    HighLayerModel,
    UnfoldError,
    build_high_layer,
    fold_difference,
    unfold,
)
from mvalloc.fixtures import robot_model_text
from mvalloc.formats import dump_compacted, parse_compacted, parse_model
from mvalloc.model import check_feasibility, validate_architecture
from mvalloc.solver import Placement, SolverConfig, _scale, _search, brute_force, solve


def test_python_backend_is_always_available():
    assert "python" in engine.available_backends()


def test_auto_prefers_the_compiled_backend():
    expected = "c" if "c" in engine.available_backends() else "python"
    assert engine.get_backend("auto").name == expected


def test_explicit_python():
    assert engine.get_backend("python").name == "python"


def test_unknown_backend_name():
    with pytest.raises(ValueError, match="unknown backend"):
        engine.get_backend("fortran")


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
# version 1 is the kernel that walks strictly dominated variants without a
# target, and version 2 the one whose solve walked a second time, in
# declared order down to a target cost: the visited counts of both differ
# from this source's, and version 2 takes one argument more.  Version 3
# takes `by_cost`, flat indices into declared-order columns, in the slot
# where version 4 takes `decl`, and would read `decl` as indices
@pytest.mark.parametrize("version", [None, 1, 2, 3, engine._KERNEL_VERSION + 1])
def test_a_library_built_from_another_kernel_source_is_refused(
    version, tmp_path, monkeypatch, caplog
):
    source = tmp_path / "stale.c"
    text = "#include <stdint.h>\nvoid solve_search(void) {}\n"
    if version is not None:
        text += f"int64_t kernel_version(void) {{ return {version}; }}\n"
    source.write_text(text)
    library = str(tmp_path / "stale.so")
    subprocess.run(["cc", "-shared", "-fPIC", "-o", library, str(source)], check=True)
    monkeypatch.setattr(engine, "_C", None)  # restores the conftest-built backend
    engine._load(library)
    assert engine.available_backends() == ["python"]
    assert engine.get_backend("auto").name == "python"
    with pytest.raises(ValueError, match="not available"):
        engine.get_backend("c")
    assert "rebuild it" in caplog.text


def test_a_file_that_cannot_be_loaded_is_refused(tmp_path, caplog):
    junk = tmp_path / "junk.so"
    junk.write_bytes(b"not a shared library")
    before = engine.available_backends()
    engine._load(str(junk))
    assert engine.available_backends() == before
    assert f"not loading {junk}" in caplog.text
    assert "Python kernel runs" in caplog.text


def test_a_refused_library_is_reported_on_stderr(tmp_path, monkeypatch):
    # `main` configures logging before a solving command loads the engine,
    # so the default level must let the refusal through
    junk = tmp_path / "junk.so"
    junk.write_bytes(b"not a shared library")
    monkeypatch.delenv("ALLOC_LOG", raising=False)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from mvalloc import cli; cli._configure_logging(); "
            "from mvalloc import engine; engine._load(sys.argv[1])",
            str(junk),
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"not loading {junk}" in proc.stderr


@pytest.mark.skipif("c" not in engine.available_backends(), reason="extension not built")
def test_kernels_return_identical_tuples():
    # one unit with two variants, one with one, two nodes
    args = (
        [2, 1],  # nv
        [0, 2],  # off
        [3, 1, 2],  # vmem
        [1, 1, 1],  # vcpu
        [0, 0, 0],  # vgpu
        [5, 9, 4],  # vcost
        [4, 2],  # cap_mem
        [9, 9],  # cap_cpu
        [0, 0],  # cap_gpu
    )
    decl = [0, 1, 0]  # each unit's variants already cheapest first
    # suffix_min, then need_mem, need_cpu, need_gpu of the cheapest variants
    bounds = ([9, 4, 0], [3, 2, 0], [1, 1, 0], [0, 0, 0])
    c = engine.get_backend("c")
    py = engine.get_backend("python")
    assert c.solve_search(*args, decl, *bounds, None) == py.solve_search(
        *args, decl, *bounds, None
    )


def _gen():
    """perfbench/gen.py, the benchmark's model generator."""
    key = "perfbench_gen"
    if key not in sys.modules:  # registered before it runs, as its dataclasses need
        path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
        spec = importlib.util.spec_from_file_location(key, path)
        sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[key])
    return sys.modules[key]


def _compacted(case):
    repo, platform, architecture = parse_model(case.text())
    return build_high_layer(architecture, repo), platform


def _benchmark_models():
    """(name, model, platform) of the benchmark's own searches: the tight
    packings, the planted 300-800 unit models and the robot pair, as
    compaction builds them.  The 1100-unit planted model is left out, as
    the Python kernel recurses once per unit (see the two tests below)."""
    gen = _gen()
    cases = gen.tight_cases(1) + gen.large_cases(1)[:3] + gen.robot_cases(robot_model_text())
    for case in cases:
        yield case.name, *_compacted(case)


def test_no_benchmark_model_meets_the_variant_cap_or_the_fold_check():
    # the cap and `--compacted`'s fold check refuse none of the models the
    # benchmark takes through the command line and the pipeline
    gen = _gen()
    for case in gen.robot_cases(robot_model_text()) + gen.large_cases(1) + gen.tight_cases(1):
        repo, _, architecture = parse_model(case.text())
        assert validate_architecture(architecture, repo) == [], case.name
        fold = build_high_layer(architecture, repo)
        assert fold_difference(parse_compacted(dump_compacted(fold)), fold) is None, case.name


@pytest.mark.skipif("c" not in engine.available_backends(), reason="extension not built")
def test_c_kernel_solves_the_1100_unit_planted_model():
    model, platform = _compacted(_gen().large_cases(1)[-1])
    scheme = solve(model, platform, backend="c")
    assert (scheme.status, scheme.visited) == ("optimal", 1101)


@pytest.mark.xfail(
    strict=True,
    raises=RecursionError,
    reason="the Python kernel recurses once per unit, past the default recursion limit",
)
def test_python_kernel_solves_the_1100_unit_planted_model():
    model, platform = _compacted(_gen().large_cases(1)[-1])
    scheme = solve(model, platform, backend="python")
    assert (scheme.status, scheme.visited) == ("optimal", 1101)


@pytest.mark.xfail(
    strict=True,
    raises=UnfoldError,
    reason="robot_g2's optimum pulls the shared Camera1 to both H1 and G2",
)
def test_every_optimal_robot_scheme_unfolds_to_a_feasible_assignment():
    for case in _gen().robot_cases(robot_model_text()):
        repo, platform, architecture = parse_model(case.text())
        model = build_high_layer(architecture, repo)
        scheme = solve(model, platform)
        assert scheme.status == "optimal", case.name
        assert check_feasibility(unfold(scheme, model), repo, platform).feasible, case.name


_ONE_NODE_UNITS = """
from fractions import Fraction
from mvalloc import engine
from mvalloc.compaction import HighLayerModel, MultiVariantUnit, Variant
from mvalloc.model import HardwareNode, Platform, ResourceDemand
from mvalloc.solver import solve

engine._build()
n = 100_000
one = ResourceDemand(Fraction(1), Fraction(1), 0, Fraction(1))
units = [MultiVariantUnit(f"u{i}", [Variant([f"c{i}"], one)]) for i in range(n)]
platform = Platform(nodes=[HardwareNode("h", Fraction(n), Fraction(n))])
scheme = solve(HighLayerModel(units=units), platform, backend="c")
print(scheme.status, scheme.visited)
"""


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_c_kernel_solves_100_000_one_variant_units():
    # in a child, as a stack overflow kills the process; with no core file
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_NODE_UNITS],
        capture_output=True,
        text=True,
        timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_CORE, (0, 0)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["optimal", "100001"]


@pytest.mark.skipif("c" not in engine.available_backends(), reason="extension not built")
def test_kernels_agree_on_the_benchmark_models():
    # status, cost, choices and visited, the variants listed forwards and
    # backwards
    c = engine.get_backend("c").solve_search
    py = engine.get_backend("python").solve_search
    compared = 0
    for name, model, platform in _benchmark_models():
        for m in (model, reversed_variants(model)):
            args = _search(_scale(m, platform, SolverConfig())).args
            assert c(*args, None) == py(*args, None), name
            compared += 1
    assert compared == 30


@pytest.mark.skipif("c" not in engine.available_backends(), reason="extension not built")
def test_a_passed_deadline_stops_both_backends_at_the_same_node():
    # 16 units, each cheap and large or dear and small, on three nodes too
    # small for all the cheap variants: the full search takes millions of
    # nodes, so a passed deadline stops it at the first clock check
    n = 16
    args = (
        [2] * n,  # nv
        list(range(0, 2 * n, 2)),  # off
        [3, 2] * n,  # vmem
        [1, 1] * n,  # vcpu
        [0, 0] * n,  # vgpu
        [1, 3] * n,  # vcost
        [16] * 3,  # cap_mem
        [100] * 3,  # cap_cpu
        [0] * 3,  # cap_gpu
    )
    decl = [0, 1] * n
    bounds = (list(range(n, -1, -1)), [3] * n + [0], [1] * n + [0], [0] * (n + 1))
    c = engine.get_backend("c").solve_search(*args, decl, *bounds, 0)
    py = engine.get_backend("python").solve_search(*args, decl, *bounds, 0)
    assert c == py
    status, cost, choices, visited = c
    assert (status, visited) == (2, 8192)
    assert cost is not None and len(choices) == n  # the incumbent


@pytest.mark.skipif("c" not in engine.available_backends(), reason="extension not built")
def test_compiled_kernels_refuse_inconsistent_arrays():
    kernel = engine.get_backend("c").solve_search
    args = ([2, 1], [0, 2], [3, 1, 2], [1, 1, 1], [0, 0, 0], [5, 9, 4], [4, 2], [9, 9], [0, 0])
    decl = [0, 1, 0]
    bounds = ([9, 4, 0], [3, 2, 0], [1, 1, 0], [0, 0, 0])
    assert kernel(*args, decl, *bounds, None)[0] == 0  # the consistent arrays run
    for bad in (
        ([2, 2], *args[1:], decl, *bounds),  # unit 1 runs past the variant columns
        (*args[:3], [1, 1], *args[4:], decl, *bounds),  # a short demand column
        (*args[:7], [9], args[8], decl, *bounds),  # a short capacity column
        (*args, [0, 1], *bounds),  # a short decl
        (*args, decl, [9, 4], *bounds[1:]),  # a short suffix_min
        (*args, decl, *bounds[:2], [1, 1], bounds[3]),  # a short need column
    ):
        with pytest.raises(ValueError, match="inconsistent lengths"):
            kernel(*bad, None)


@pytest.mark.skipif("c" not in engine.available_backends(), reason="extension not built")
def test_compiled_kernels_refuse_values_past_int64():
    kernel = engine.get_backend("c").solve_search
    big = 2**62
    costs = [big - 6, big, 4]
    args = ([2, 1], [0, 2], [3, 1, 2], [1, 1, 1], [0, 0, 0], costs, [4, 2], [9, 9], [0, 0])
    decl = [0, 1, 0]
    bounds = ([big - 2, 4, 0], [3, 2, 0], [1, 1, 0], [0, 0, 0])
    # the costs sum to INT64_MAX - 1: the kernel runs, as the Python one does
    result = kernel(*args, decl, *bounds, None)
    assert result == engine.get_backend("python").solve_search(*args, decl, *bounds, None)
    assert result[:2] == (0, big - 2)
    for bad in (
        (*args[:2], [2**63, 1, 2], *args[3:], decl, *bounds),  # a demand past int64
        (*args[:5], [big - 5, big, 4], *args[6:], decl, *bounds),  # costs sum to INT64_MAX
    ):
        with pytest.raises(OverflowError):
            kernel(*bad, None)


@pytest.mark.parametrize("name", engine.available_backends())
def test_forward_check_stops_where_a_later_unit_fits_nowhere(name):
    # node 0 is the only one big enough for unit 0's first variant and for
    # unit 2; once unit 0 takes it, unit 2 fits nowhere
    args = (
        [2, 1, 1],  # nv
        [0, 2, 3],  # off
        [6, 1, 1, 6],  # vmem
        [1, 1, 1, 1],  # vcpu
        [0, 0, 0, 0],  # vgpu
        [1, 3, 1, 1],  # vcost
        [10, 2],  # cap_mem
        [10, 10],  # cap_cpu
        [0, 0],  # cap_gpu
    )
    decl = [0, 1, 0, 0]
    bounds = ([3, 2, 1, 0], [6, 6, 6, 0], [1, 1, 1, 0], [0, 0, 0, 0])
    result = engine.get_backend(name).solve_search(*args, decl, *bounds, None)
    # visited: the root; unit 0's first variant on node 0, where the
    # forward check returns; its second variant on node 0, units 1 and 2
    # on node 0 and the leaf.  Every later branch fails the cost cut.
    assert result == (0, 5, [(1, 0), (0, 0), (0, 0)], 5)


@pytest.mark.parametrize("name", engine.available_backends())
def test_cost_cut_after_a_child_skips_an_identical_node(name):
    # two units with one variant each, two identical roomy nodes: the first
    # descent is optimal, so node 1 is never entered at any depth
    args = ([1, 1], [0, 1], [2, 2], [1, 1], [0, 0], [4, 5], [9, 9], [9, 9], [0, 0])
    bounds = ([9, 5, 0], [2, 2, 0], [1, 1, 0], [0, 0, 0])
    result = engine.get_backend(name).solve_search(*args, [0, 0], *bounds, None)
    assert result == (0, 9, [(0, 0), (0, 0)], 3)


@pytest.mark.parametrize("name", engine.available_backends())
def test_skipping_the_forward_scan_changes_nothing(name):
    # suffix maxima no node can cover force the full scan at every node;
    # the shortcut must give the same answer and the same visited count
    kernel = engine.get_backend(name).solve_search
    for seed in range(200):
        model, platform = random_high_model(seed, product_cap=30_000)
        search = _search(_scale(model, platform, SolverConfig()))
        never = [sum(search.args[6]) + 1] * len(search.args[10])  # suffix_min's length
        with_shortcut = kernel(*search.args, None)
        scan_only = kernel(*search.args[:11], never, never, never, None)
        assert with_shortcut == scan_only, f"seed {seed}"


@pytest.mark.parametrize("name", engine.available_backends())
def test_the_walk_returns_the_first_of_the_cheapest_leaves(name):
    # the tie rule: of the optima, the one whose choices come first, which
    # the declared-order enumeration keeps when it takes the units in
    # search order; on random models and on tie-heavy ones, whose optima
    # tie by the dozen
    kernel = engine.get_backend(name).solve_search
    optimal = 0
    for seed in range(100):
        for model, platform in (
            random_high_model(seed, max_units=5, product_cap=2_000),
            tie_heavy_model(seed, max_units=5, product_cap=300),
        ):
            scaled = _scale(model, platform, SolverConfig())
            search = _search(scaled)
            status, cost, choices, _ = kernel(*search.args, None)
            units = {u.id: u for u in model.units}
            in_search_order = HighLayerModel([units[uid] for uid in search.unit_ids])
            oracle = brute_force(in_search_order, platform)
            objective = None if cost is None else Fraction(cost, scaled.cost_den)
            placements = {
                uid: Placement(v, platform.nodes[h].id)
                for uid, (v, h) in zip(search.unit_ids, choices)
            }
            assert (STATUSES[status], objective, placements) == (
                oracle.status, oracle.objective_ms, oracle.placements
            ), f"seed {seed}"
            optimal += status == 0
    assert optimal > 150


@pytest.mark.parametrize("name", engine.available_backends())
def test_an_equal_cost_leaf_after_the_incumbent_never_replaces_it(name):
    # unit 0 lists A and B, both costing 2, unit 1 one variant costing 1,
    # all on two roomy nodes: the first leaf, A and the variant on node 0,
    # costs 3; every other leaf costs 3 too and comes after it, so the
    # walk enters neither node 1 nor B
    args = ([2, 1], [0, 2], [1, 1, 1], [1, 1, 1], [0, 0, 0], [2, 2, 1], [9, 9], [9, 9], [0, 0])
    bounds = ([3, 1, 0], [1, 1, 0], [1, 1, 0], [0, 0, 0])
    kernel = engine.get_backend(name).solve_search
    assert kernel(*args, [0, 1, 0], *bounds, None) == (0, 3, [(0, 0), (0, 0)], 3)


@pytest.mark.parametrize("name", engine.available_backends())
def test_an_equal_cost_leaf_before_the_incumbent_replaces_it(name):
    # unit 0 lists A (mem 1, cost 3) and B (mem 9, cost 2), unit 1 lists C
    # (mem 9, cost 1) and D (mem 1, cost 2), on one node of mem 10.  The
    # walk tries B first and finds (B, D) at 4; A then ties it and comes
    # before it, so the walk enters A and finds (A, C), also at 4, which
    # replaces it; D under A costs 5.  The columns list B before A.
    args = ([2, 2], [0, 2], [9, 1, 9, 1], [1, 1, 1, 1], [0, 0, 0, 0], [2, 3, 1, 2],
            [10], [10], [0])
    decl = [1, 0, 0, 1]
    bounds = ([3, 1, 0], [9, 9, 0], [1, 1, 0], [0, 0, 0])
    kernel = engine.get_backend(name).solve_search
    # the root, B, (B, D), A and (A, C)
    assert kernel(*args, decl, *bounds, None) == (0, 4, [(0, 0), (0, 0)], 5)


@pytest.mark.parametrize("name", engine.available_backends())
def test_the_walk_skips_a_strictly_dominated_variant(name):
    # unit 0 lists A (mem 2, cpu 2, cost 1), B (mem 3, cpu 2, cost 2) and C
    # (mem 1, cpu 1, cost 3); unit 1's one variant needs mem 9 of the one
    # node's 10, so only C leaves room for it.  A costs less than B and
    # needs no more of anything: B is strictly dominated.
    args = ([3, 1], [0, 3], [2, 3, 1, 9], [2, 2, 1, 1], [0, 0, 0, 0], [1, 2, 3, 1],
            [10], [10], [0])
    decl = [0, 1, 2, 0]
    bounds = ([2, 1, 0], [9, 9, 0], [2, 1, 0], [0, 0, 0])
    kernel = engine.get_backend(name).solve_search
    # the root, A (a dead end), C and the leaf; B is skipped
    assert kernel(*args, decl, *bounds, None) == (0, 4, [(2, 0), (0, 0)], 4)
    # a variant that only ties its dominator's cost is not skipped
    tied = (*args[:5], [1, 1, 3, 1], *args[6:])
    assert kernel(*tied, decl, *bounds, None) == (0, 4, [(2, 0), (0, 0)], 5)


@pytest.mark.parametrize("name", engine.available_backends())
def test_a_walk_over_no_units_is_optimal_at_cost_0(name):
    # the root is the leaf, and its incumbent is the empty list
    kernel = engine.get_backend(name).solve_search
    bounds = ([0], [0], [0], [0])
    assert kernel([], [], [], [], [], [], [9], [9], [0], [], *bounds, None) == (0, 0, [], 1)


@pytest.mark.parametrize("name", engine.available_backends())
def test_a_walk_that_reaches_no_leaf_reports_no_cost(name):
    # two units of mem 6 and one node of mem 10: the root and unit 0 on
    # the node, where the forward check finds no room for unit 1
    args = ([1, 1], [0, 1], [6, 6], [1, 1], [0, 0], [1, 1], [10], [9], [0])
    bounds = ([2, 1, 0], [6, 6, 0], [1, 1, 0], [0, 0, 0])
    kernel = engine.get_backend(name).solve_search
    assert kernel(*args, [0, 0], *bounds, None) == (1, None, [], 2)


def _no_compiler_run(*args, **kwargs):
    raise AssertionError("the compiler ran")


def test_build_compiles_nothing_while_a_library_is_loaded(monkeypatch):
    loaded = engine.Backend(name="c", solve_search=None)
    monkeypatch.setattr(engine, "_C", loaded)
    monkeypatch.setattr(subprocess, "run", _no_compiler_run)
    engine._build()
    assert engine._C is loaded


def test_build_loads_nothing_without_a_compiler(monkeypatch):
    monkeypatch.setattr(engine, "_C", None)  # restores the conftest-built backend
    monkeypatch.setattr(shutil, "which", lambda name: None)
    monkeypatch.setattr(subprocess, "run", _no_compiler_run)
    engine._build()
    assert engine.available_backends() == ["python"]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_build_compiles_and_loads_the_package_source(monkeypatch):
    monkeypatch.setattr(engine, "_C", None)  # restores the conftest-built backend
    engine._build()
    assert engine.available_backends() == ["c", "python"]
    kernel = engine.get_backend("c").solve_search
    args = ([1], [0], [2], [1], [0], [4], [9], [9], [0], [0], [4, 0], [2, 0], [1, 0], [0, 0])
    assert kernel(*args, None) == (0, 4, [(0, 0)], 2)
