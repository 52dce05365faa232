"""Random-surfer steering: graph loading, stationary analysis,
link-modification strategies and experiment sweeps."""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DanglingNodeError,
    EdgeListParseError,
    EmptyGraphError,
    EmptySupportError,
    NavsteerError,
    NotStronglyConnectedError,
    PeriodicChainError,
    ValidationError,
)
from .graph import (
    WeightedDigraph,
    largest_scc,
    load_edge_list,
    write_edge_list,
)
from .metrics import (
    TargetMetrics,
    energy,
    influence_potential,
    target_degrees,
    target_metrics,
)
from .modify import (
    LinkBudget,
    ModificationSpec,
    Strategy,
    apply_modification,
    click_bias,
    combine,
    insert_links,
    weight_budget,
)
from .surfer import (
    StationaryResult,
    TransitionMatrix,
    lorenz_curve,
    stationary,
    transition_matrix,
)
from .targets import (
    TargetSet,
    sample_target_sets,
    target_set_size,
    target_vector,
    write_targets_csv,
)
from .experiment import (
    CSV_HEADER,
    RunFailure,
    RunRecord,
    SweepConfig,
    SweepResult,
    run_single_detailed,
    sweep,
    write_records_csv,
    write_records_jsonl,
)
from .synth import scale_free_graph

__all__ = [
    "CSV_HEADER",
    "ConvergenceError",
    "DanglingNodeError",
    "EdgeListParseError",
    "EmptyGraphError",
    "EmptySupportError",
    "LinkBudget",
    "ModificationSpec",
    "NavsteerError",
    "NotStronglyConnectedError",
    "PeriodicChainError",
    "RunFailure",
    "RunRecord",
    "StationaryResult",
    "Strategy",
    "SweepConfig",
    "SweepResult",
    "TargetMetrics",
    "TargetSet",
    "TransitionMatrix",
    "ValidationError",
    "WeightedDigraph",
    "apply_modification",
    "click_bias",
    "combine",
    "energy",
    "influence_potential",
    "insert_links",
    "largest_scc",
    "load_edge_list",
    "lorenz_curve",
    "run_single_detailed",
    "sample_target_sets",
    "scale_free_graph",
    "stationary",
    "sweep",
    "target_degrees",
    "target_set_size",
    "target_metrics",
    "target_vector",
    "transition_matrix",
    "weight_budget",
    "write_edge_list",
    "write_records_csv",
    "write_records_jsonl",
    "write_targets_csv",
]
