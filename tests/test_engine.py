import itertools
import shutil
import subprocess
import sys

import pytest

from random_models import random_high_model

from mvalloc import engine
from mvalloc.solver import SolverConfig, _scale, _search


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
# target, so its visited counts differ from this source's
@pytest.mark.parametrize("version", [None, 1, engine._KERNEL_VERSION + 1])
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
    by_cost = [0, 1, 2]  # each unit's variants already cheapest first
    # suffix_min, then need_mem, need_cpu, need_gpu of the cheapest variants
    bounds = ([9, 4, 0], [3, 2, 0], [1, 1, 0], [0, 0, 0])
    c = engine.get_backend("c")
    py = engine.get_backend("python")
    assert c.solve_search(*args, by_cost, *bounds, None) == py.solve_search(
        *args, by_cost, *bounds, None
    )


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
    by_cost = list(range(2 * n))
    bounds = (list(range(n, -1, -1)), [3] * n + [0], [1] * n + [0], [0] * (n + 1))
    c = engine.get_backend("c").solve_search(*args, by_cost, *bounds, 0)
    py = engine.get_backend("python").solve_search(*args, by_cost, *bounds, 0)
    assert c == py
    status, cost, choices, visited = c
    assert (status, visited) == (2, 8192)
    assert cost is not None and len(choices) == n  # the incumbent


@pytest.mark.skipif("c" not in engine.available_backends(), reason="extension not built")
def test_compiled_kernels_refuse_inconsistent_arrays():
    kernel = engine.get_backend("c").solve_search
    args = ([2, 1], [0, 2], [3, 1, 2], [1, 1, 1], [0, 0, 0], [5, 9, 4], [4, 2], [9, 9], [0, 0])
    by_cost = [0, 1, 2]
    bounds = ([9, 4, 0], [3, 2, 0], [1, 1, 0], [0, 0, 0])
    assert kernel(*args, by_cost, *bounds, None)[0] == 0  # the consistent arrays run
    for bad in (
        ([2, 2], *args[1:], by_cost, *bounds),  # unit 1 runs past the variant columns
        (*args[:3], [1, 1], *args[4:], by_cost, *bounds),  # a short demand column
        (*args[:7], [9], args[8], by_cost, *bounds),  # a short capacity column
        (*args, [0, 1], *bounds),  # a short by_cost
        (*args, by_cost, [9, 4], *bounds[1:]),  # a short suffix_min
        (*args, by_cost, *bounds[:2], [1, 1], bounds[3]),  # a short need column
    ):
        with pytest.raises(ValueError, match="inconsistent lengths"):
            kernel(*bad, None)
    # unit 0's slice points at unit 1's variant: refused before the walk,
    # with and without a target
    for target in (None, 9):
        with pytest.raises(ValueError, match="outside its unit"):
            kernel(*args, [0, 2, 2], *bounds, None, target)


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
    by_cost = [0, 1, 2, 3]
    bounds = ([3, 2, 1, 0], [6, 6, 6, 0], [1, 1, 1, 0], [0, 0, 0, 0])
    result = engine.get_backend(name).solve_search(*args, by_cost, *bounds, None)
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
    result = engine.get_backend(name).solve_search(*args, [0, 1], *bounds, None)
    assert result == (0, 9, [(0, 0), (0, 0)], 3)


@pytest.mark.parametrize("name", engine.available_backends())
def test_skipping_the_forward_scan_changes_nothing(name):
    # suffix maxima no node can cover force the full scan at every node;
    # the shortcut must give the same answer and the same visited count
    kernel = engine.get_backend(name).solve_search
    for seed in range(200):
        model, platform = random_high_model(seed, product_cap=30_000)
        search = _search(_scale(model, platform, SolverConfig()))
        never = [sum(search.args[6]) + 1] * len(search.suffix_min)
        with_shortcut = kernel(*search.args, None)
        scan_only = kernel(*search.args[:11], never, never, never, None)
        assert with_shortcut == scan_only, f"seed {seed}"


def _leaves_in_walk_order(nv, off, vmem, vcpu, vgpu, vcost, cap_mem, cap_cpu, cap_gpu):
    """(cost, choices) of every capacity-feasible leaf, in the order the
    walk meets them: units in array order, variants by index, nodes in
    platform order."""
    k = len(cap_mem)
    per_unit = [[(v, h) for v in range(count) for h in range(k)] for count in nv]
    for choices in itertools.product(*per_unit):
        load = [[0, 0, 0] for _ in range(k)]
        for a, (v, h) in zip(off, choices):
            load[h][0] += vmem[a + v]
            load[h][1] += vcpu[a + v]
            load[h][2] += vgpu[a + v]
        if all(
            m <= cm and p <= cp and g <= cg
            for (m, p, g), cm, cp, cg in zip(load, cap_mem, cap_cpu, cap_gpu)
        ):
            yield sum(vcost[a + v] for a, (v, _) in zip(off, choices)), list(choices)


@pytest.mark.parametrize("name", engine.available_backends())
def test_target_returns_the_first_leaf_at_most_the_target(name):
    kernel = engine.get_backend(name).solve_search
    checked = 0
    for seed in range(100):
        model, platform = random_high_model(seed, max_units=5, product_cap=2_000)
        args = _search(_scale(model, platform, SolverConfig())).args
        leaves = list(_leaves_in_walk_order(*args[:9]))
        assert kernel(*args, None, None) == kernel(*args, None)
        status, best, _, visited = kernel(*args, None)
        if not leaves:
            assert status == 1
            continue
        costs = sorted({cost for cost, _ in leaves})
        assert best == costs[0]
        for target in {costs[0] - 1, costs[0], costs[len(costs) // 2], costs[-1]}:
            first = next(((c, ch) for c, ch in leaves if c <= target), None)
            status, cost, choices, seen = kernel(*args, None, target)
            if first is None:
                assert (status, cost, choices) == (1, None, []), f"seed {seed}"
            else:
                assert (status, cost, choices) == (0, *first), f"seed {seed}"
            if target <= costs[0]:
                assert seen <= visited, f"seed {seed}"
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("name", engine.available_backends())
def test_target_cuts_every_child_above_it(name):
    # one unit, three variants costing 4, 2 and 3, then a unit with one
    # variant costing 1: with target 4 the first variant (4 + 1 > 4) is
    # cut, the second descends to a leaf and the walk stops there
    args = ([3, 1], [0, 3], [1, 1, 1, 1], [1, 1, 1, 1], [0, 0, 0, 0], [4, 2, 3, 1],
            [9], [9], [0])
    by_cost = [1, 2, 0, 3]  # unit 0 cheapest first: costs 2, 3, 4
    bounds = ([3, 1, 0], [1, 1, 0], [1, 1, 0], [0, 0, 0])
    kernel = engine.get_backend(name).solve_search
    assert kernel(*args, by_cost, *bounds, None, 4) == (0, 3, [(1, 0), (0, 0)], 3)
    assert kernel(*args, by_cost, *bounds, None, 5) == (0, 5, [(0, 0), (0, 0)], 3)
    assert kernel(*args, by_cost, *bounds, None, 2) == (1, None, [], 1)
    # without a target the walk tries the cost-2 variant first, and its
    # leaf at 3 cuts the other two
    assert kernel(*args, by_cost, *bounds, None) == (0, 3, [(1, 0), (0, 0)], 3)


@pytest.mark.parametrize("name", engine.available_backends())
def test_walk_1_skips_a_strictly_dominated_variant(name):
    # unit 0 lists A (mem 2, cpu 2, cost 1), B (mem 3, cpu 2, cost 2) and C
    # (mem 1, cpu 1, cost 3); unit 1's one variant needs mem 9 of the one
    # node's 10, so only C leaves room for it.  A costs less than B and
    # needs no more of anything: B is strictly dominated.
    args = ([3, 1], [0, 3], [2, 3, 1, 9], [2, 2, 1, 1], [0, 0, 0, 0], [1, 2, 3, 1],
            [10], [10], [0])
    by_cost = [0, 1, 2, 3]
    bounds = ([2, 1, 0], [9, 9, 0], [2, 1, 0], [0, 0, 0])
    kernel = engine.get_backend(name).solve_search
    # without a target: the root, A (a dead end), C and the leaf; B is skipped
    assert kernel(*args, by_cost, *bounds, None) == (0, 4, [(2, 0), (0, 0)], 4)
    # with one, the walk keeps the declared tree and enters B too
    assert kernel(*args, by_cost, *bounds, None, 4) == (0, 4, [(2, 0), (0, 0)], 5)
    # a variant that only ties its dominator's cost is not skipped
    tied = (*args[:5], [1, 1, 3, 1], *args[6:])
    assert kernel(*tied, by_cost, *bounds, None) == (0, 4, [(2, 0), (0, 0)], 5)
