"""Design-time allocation of component-based CPU-GPU software.

The package works on two layers.  The detailed layer is a repository of
software components (some in CPU and GPU versions), assemblies wiring
them into processing pipelines, and a platform of heterogeneous nodes.
Compaction folds each pipeline's alternatives into one multi-variant
unit, shrinking the allocation search space without losing any optimal
solution; the solver then assigns a variant and a node to every unit by
exact branch and bound, and the scheme unfolds back into per-component
placements on the detailed layer.
"""

from .compaction import (
    CompactionError,
    HighLayerModel,
    MultiVariantUnit,
    UnfoldError,
    Variant,
    aggregate_variant,
    build_high_layer,
    compact,
    enumerate_alternatives,
    unfold,
)
from .model import (
    Assembly,
    Component,
    Diagnostic,
    HardwareNode,
    Kind,
    Platform,
    Repository,
    ResourceDemand,
    SystemArchitecture,
    UnitSpec,
    UnknownIdError,
    check_feasibility,
    validate_architecture,
    validate_platform,
    validate_repository,
)
from .solver import (
    INFEASIBLE,
    OPTIMAL,
    TIMED_OUT,
    AllocationScheme,
    EnumerationGuardError,
    Placement,
    SolverConfig,
    SolverError,
    brute_force,
    check_scheme,
    solve,
)

__version__ = "0.1.0"
