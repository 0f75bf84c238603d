"""The package's public names: where each lives, and what importing loads."""

import importlib
import subprocess
import sys

import pytest

import mvalloc

# every name `mvalloc` exports, with the module it is imported from
PUBLIC = {
    "compaction": [
        "CompactionError",
        "HighLayerModel",
        "MultiVariantUnit",
        "UnfoldError",
        "Variant",
        "aggregate_variant",
        "build_high_layer",
        "compact",
        "enumerate_alternatives",
        "unfold",
    ],
    "model": [
        "Assembly",
        "Component",
        "Diagnostic",
        "HardwareNode",
        "Kind",
        "Platform",
        "Repository",
        "ResourceDemand",
        "SystemArchitecture",
        "UnitSpec",
        "UnknownIdError",
        "check_feasibility",
        "validate_architecture",
        "validate_platform",
        "validate_repository",
    ],
    "solver": [
        "INFEASIBLE",
        "OPTIMAL",
        "TIMED_OUT",
        "AllocationScheme",
        "EnumerationGuardError",
        "Placement",
        "SolverConfig",
        "SolverError",
        "brute_force",
        "check_scheme",
        "solve",
    ],
}
NAMES = [(home, name) for home, names in PUBLIC.items() for name in names]


@pytest.mark.parametrize("home, name", NAMES)
def test_public_name_is_its_home_modules_object(home, name):
    expected = getattr(importlib.import_module(f"mvalloc.{home}"), name)
    assert getattr(mvalloc, name) is expected
    namespace: dict = {}
    exec(f"from mvalloc import {name}", namespace)
    assert namespace[name] is expected


def test_the_scheme_records_live_beside_unfold():
    from mvalloc import compaction, solver

    for name in ("OPTIMAL", "INFEASIBLE", "TIMED_OUT", "Placement", "AllocationScheme"):
        assert getattr(solver, name) is getattr(compaction, name)
    assert compaction.STATUSES == ("optimal", "infeasible", "timeout")
    assert compaction.AllocationScheme.__module__ == "mvalloc.compaction"


def test_importing_the_package_loads_the_solver_only_on_use():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, mvalloc; before = 'mvalloc.solver' in sys.modules; "
            "mvalloc.solve; print(before, 'mvalloc.solver' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        mvalloc.no_such_name
    with pytest.raises(ImportError):
        exec("from mvalloc import no_such_name", {})
