"""The package surface that the benchmark's tracer relies on.

`perfbench/spans.py` wraps module attributes of mvalloc and the kernel
search of the record `engine.get_backend` returns, and counts variants
through `HighLayerModel.all_units()`.  Running it here makes a change to
any of those fail the ordinary test suite, not only a traced benchmark.
"""

import importlib.util
from pathlib import Path

from mvalloc import compaction, engine, formats, lp, model, solver

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_the_robot_pipeline(robot):
    repo, platform, architecture = robot
    tracer = _load_spans().Tracer()
    modules = {
        "formats": formats,
        "model": model,
        "compaction": compaction,
        "solver": solver,
        "lp": lp,
        "engine": engine,
    }
    originals = (compaction.build_high_layer, solver.solve, engine.get_backend)
    tracer.install(modules)
    try:
        high = compaction.build_high_layer(architecture, repo)
        scheme = solver.solve(high, platform)
    finally:
        tracer.uninstall()
    assert scheme.status == solver.OPTIMAL
    assert tracer.counts["compaction.variants"] == 16
    assert tracer.counts["engine.nodes"] > 0
    names = {span[0] for span in tracer.spans}
    assert {"compaction.build_high_layer", "compaction.enumerate_alternatives"} <= names
    assert {"solver.solve", "engine.solve_search"} <= names
    assert (compaction.build_high_layer, solver.solve, engine.get_backend) == originals
