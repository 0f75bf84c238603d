import hashlib
import json
from fractions import Fraction

import pytest

from mvalloc import bench
from mvalloc.bench import (
    BenchReport,
    BenchSpec,
    ModelStats,
    SplitMix64,
    format_table,
    generate_system,
    reports_to_json,
    run_bench,
)
from mvalloc.bench import (
    COMPONENT_EXEC,
    COMPONENT_MEM,
    GPU_NODE_COUNT,
    NODE_COUNT,
    NODE_MEM,
    NODE_MEM_GPU,
)
from mvalloc.engine import available_backends, get_backend
from mvalloc.formats import dump_compacted, dump_model
from mvalloc.solver import SolverConfig, solve


def test_splitmix64_matches_the_reference_stream():
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_seed_wraps_to_64_bits():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


def test_draw_is_plain_modulo_reduction():
    a, b = SplitMix64(42), SplitMix64(42)
    for lo, hi in ((1, 100), (5, 50), (0, 1)):
        assert a.draw(lo, hi) == lo + b.next_u64() % (hi - lo + 1)


def test_generate_system_is_byte_stable():
    first = generate_system(BenchSpec(n=3, seed=0))
    second = generate_system(BenchSpec(n=3, seed=0))
    assert dump_model(first.repo, first.platform, first.architecture) == dump_model(
        second.repo, second.platform, second.architecture
    )
    for attr in ("two_variant", "naive_cpu", "naive_gpu"):
        assert dump_compacted(getattr(first, attr)) == dump_compacted(
            getattr(second, attr)
        ), attr
    assert first.rejected == second.rejected
    assert first.timed_out == second.timed_out == 0
    spec = BenchSpec(n=3, seed=0, repetitions=1, warmup=0)
    runs = [run_bench(spec) for _ in range(2)]
    assert [(s.model, s.objective_ms, s.visited) for s in runs[0].stats] == [
        (s.model, s.objective_ms, s.visited) for s in runs[1].stats
    ]
    assert all(s.visited > 0 for s in runs[0].stats)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_instances_match_the_pinned_stream():
    # digests of this package's own output; a change to the draw order,
    # the ranges or the ids fails here, whatever the machine or version
    drawn = {
        (1, 0): "2ac6f0fc686e2e44467155685f17fb63932fda5f3f8ccaed7b0163c0b41847af",
        (3, 7): "acdd9f5efb1f5e1988ea8f945f42e17c455ff9c98134e424aaa3c64964f1486f",
        (30, 1): "1d704f14bd69515f5b40c4371828efea412744d57e8a91f395e4e21f3dd91283",
        (50, 12345): "6496d90b46381cf0a7cb259924b3341f95a5f09361142ecd5678caeba155bccf",
    }
    for (n, seed), digest in drawn.items():
        repo, platform = bench._draw_instance(SplitMix64(seed), n)
        assert _sha256(dump_model(repo, platform)) == digest, (n, seed)
    system = generate_system(BenchSpec(n=30, seed=1))
    assert (system.rejected, system.timed_out) == (0, 0)
    assert {
        attr: _sha256(dump_compacted(getattr(system, attr)))
        for attr in ("two_variant", "naive_cpu", "naive_gpu")
    } == {
        "two_variant": "25cfa15bd9c5556434e1f32e36bb8debf666d2e661251cf8a125f2c593e928e8",
        "naive_cpu": "946dff530b0f4ce74e7926f6ff3f6ab4673781224416c2aae017d542dea1a9f8",
        "naive_gpu": "365da673f7ce4262f3e079653aee285249d1337b41c0a96b0738ae7275c06435",
    }


def test_generated_models_have_the_documented_shape():
    n = 5
    system = generate_system(BenchSpec(n=n, seed=2))
    assert [u.id for u in system.two_variant.units] == ["chain", f"c{n}"]
    chain = system.two_variant.units[0]
    assert len(chain.variants) == 2
    assert chain.variants[0].members == [f"c{i}_cpu" for i in range(n)]
    assert chain.variants[1].members == [f"c{i}_gpu" for i in range(n)]
    assert len(system.naive_cpu.all_units()) == n + 1
    assert len(system.naive_gpu.all_units()) == n + 1
    assert all(len(u.variants) == 1 for u in system.naive_cpu.all_units())

    nodes = system.platform.nodes
    assert len(nodes) == NODE_COUNT
    for j, hw in enumerate(nodes):
        if j < GPU_NODE_COUNT:
            assert hw.use_gpu > 0
            assert NODE_MEM_GPU[0] <= hw.use_mem <= NODE_MEM_GPU[1]
        else:
            assert hw.use_gpu == 0
            assert NODE_MEM[0] <= hw.use_mem <= NODE_MEM[1]


def test_component_demands_stay_in_range():
    system = generate_system(BenchSpec(n=8, seed=5))
    for comp in system.repo.components:
        assert COMPONENT_MEM[0] <= comp.demand.mem <= COMPONENT_MEM[1]
        assert COMPONENT_EXEC[0] * Fraction(1, 2) <= comp.demand.exec_ms <= COMPONENT_EXEC[1]


def test_gpu_versions_halve_execution_time_rounding_up():
    system = generate_system(BenchSpec(n=6, seed=3))
    for i in range(6):
        cpu = system.repo.component(f"c{i}_cpu").demand.exec_ms
        gpu = system.repo.component(f"c{i}_gpu").demand.exec_ms
        assert gpu == (cpu + 1) // 2


def test_trial_solves_over_the_budget_are_counted_apart(monkeypatch):
    monkeypatch.setattr(bench, "TRIAL_TIME_LIMIT_MS", 0)
    monkeypatch.setattr(bench, "MAX_ATTEMPTS", 4)
    with pytest.raises(RuntimeError) as err:
        generate_system(BenchSpec(n=3, seed=0))
    assert str(err.value) == (
        "no acceptable instance within 4 attempts (n=3, seed=0):"
        " 0 rejected, 4 over the 0 ms trial budget"
    )


def test_rejected_draws_are_counted():
    # a seed found by search: its first two draws have no feasible two-variant model
    system = generate_system(BenchSpec(n=70, seed=16))
    assert (system.rejected, system.timed_out) == (2, 0)


def test_accepted_instance_has_consistent_objectives():
    system = generate_system(BenchSpec(n=4, seed=1))
    objectives = {
        name: solve(getattr(system, name), system.platform).objective_ms
        for name in ("two_variant", "naive_cpu", "naive_gpu")
    }
    assert objectives["two_variant"] == min(
        objectives["naive_cpu"], objectives["naive_gpu"]
    )


def test_the_gpu_only_model_of_seed_1_at_n_100_solves():
    # its 100 GPU-only units fit only the three GPU nodes, and the demand
    # order scores them against those nodes alone; an order that counts
    # the CPU-only nodes too searches for millions of nodes
    repo, platform = bench._draw_instance(SplitMix64(1), 100)
    _, _, naive_gpu, _ = bench._models(repo, 100)
    timed = SolverConfig(time_limit_ms=1000)
    python = solve(naive_gpu, platform, timed, backend="python")
    assert python.status == "optimal"
    for name in available_backends():
        other = solve(naive_gpu, platform, timed, backend=name)
        assert (other, other.visited) == (python, python.visited), name


def test_run_bench_report_shape():
    report = run_bench(BenchSpec(n=4, seed=1, repetitions=3, warmup=1))
    assert [s.model for s in report.stats] == ["naive_cpu", "naive_gpu", "two_variant"]
    for stat in report.stats:
        assert len(stat.times_ms) == 3
        assert stat.mean_ms > 0
        assert stat.stddev_ms >= 0
        Fraction(stat.objective_ms)  # parses back to an exact number
    assert report.stat("two_variant").objective_ms == min(
        report.stat("naive_cpu").objective_ms,
        report.stat("naive_gpu").objective_ms,
        key=Fraction,
    )


@pytest.mark.parametrize("backend", ["auto", *available_backends()])
def test_report_names_the_backend_that_ran(backend):
    report = run_bench(BenchSpec(n=3, seed=1, repetitions=1, warmup=0, backend=backend))
    expected = get_backend(backend).name
    assert report.backend == expected
    assert json.loads(reports_to_json([report]))["reports"][0]["backend"] == expected
    assert f" {expected} " in format_table([report]).splitlines()[2]


def test_single_repetition_has_zero_stddev():
    report = run_bench(BenchSpec(n=3, seed=1, repetitions=1, warmup=0))
    assert all(s.stddev_ms == 0 for s in report.stats)


def test_run_bench_validates_the_spec():
    with pytest.raises(ValueError, match="n must be"):
        run_bench(BenchSpec(n=0, seed=1))
    with pytest.raises(ValueError, match="repetitions"):
        run_bench(BenchSpec(n=3, seed=1, repetitions=0))
    with pytest.raises(ValueError, match="warmup must be non-negative"):
        run_bench(BenchSpec(n=3, seed=1, warmup=-5))


def _fake_report(two_variant_mean):
    def stats(name, mean):
        return ModelStats(
            model=name,
            mean_ms=mean,
            median_ms=mean,
            stddev_ms=0.0,
            objective_ms="10",
            visited=12,
            times_ms=[mean],
        )

    return BenchReport(
        n=30,
        seed=1,
        repetitions=1,
        warmup=0,
        backend="python",
        rejected=0,
        timed_out=0,
        stats=[
            stats("naive_cpu", 2.0),
            stats("naive_gpu", 2.1),
            stats("two_variant", two_variant_mean),
        ],
    )


def test_format_table_flags_a_broken_trend():
    good = format_table([_fake_report(1.0)])
    assert "two_variant not fastest" not in good
    assert good.splitlines()[0].lstrip().startswith("n")
    assert good.splitlines()[0].split()[3:5] == ["rej", "tout"]
    bad = format_table([_fake_report(5.0)])
    assert "two_variant not fastest" in bad


def test_reports_serialize():
    report = _fake_report(1.0)
    payload = json.loads(reports_to_json([report]))
    assert payload["reports"][0]["n"] == 30
    assert payload["reports"][0]["trend_ok"] is True
    assert payload["reports"][0]["timed_out"] == 0
    assert payload["reports"][0]["backend"] == "python"
    models = payload["reports"][0]["models"]
    assert [(m["model"], m["visited"]) for m in models] == [
        ("naive_cpu", 12),
        ("naive_gpu", 12),
        ("two_variant", 12),
    ]


def _reports_to_json_by_field(reports):
    """The report layout written field by field: the reference that pins
    `reports_to_json`'s keys, values and bytes."""
    payload = {
        "reports": [
            {
                "n": r.n,
                "seed": r.seed,
                "repetitions": r.repetitions,
                "warmup": r.warmup,
                "backend": r.backend,
                "rejected": r.rejected,
                "timed_out": r.timed_out,
                "trend_ok": r.trend_ok,
                "models": [
                    {
                        "model": s.model,
                        "mean_ms": s.mean_ms,
                        "median_ms": s.median_ms,
                        "stddev_ms": s.stddev_ms,
                        "objective_ms": s.objective_ms,
                        "visited": s.visited,
                        "times_ms": s.times_ms,
                    }
                    for s in r.stats
                ],
            }
            for r in reports
        ]
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_report_json_matches_the_field_by_field_layout():
    real = run_bench(BenchSpec(n=3, seed=1, repetitions=2, warmup=0))
    for reports in ([_fake_report(1.0)], [_fake_report(5.0), real], []):
        assert reports_to_json(reports) == _reports_to_json_by_field(reports)
