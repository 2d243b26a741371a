"""Discrete-time open quantum walks on finite graphs.

The walk dynamics are purely dissipative: each directed edge carries a
transition operator on the walker's internal Hilbert space, the
per-node operator families satisfy a completeness relation, and one
step is an operator-sum (Kraus) map that keeps the state block-diagonal
in position. The package provides the block evolution engine, a dense
full-space oracle for cross-checking it, builders for the standard
scenarios (line walk, dissipative gates, state preparation, Bell-state
sorting, excitation transport, dissipative computation chains),
trajectory analysis, and a batch CLI (``oqw``).
"""

from .analysis import (
    dqc_predicted_readout,
    internal_sector_occupation,
    node_fidelity,
    occupation,
    position_moments,
    readout_probability,
    state_prep_predicted_pss,
)
from .core import (
    SteadyStateResult,
    ValidationReport,
    WalkerState,
    WalkSpec,
    extract_blocks,
    find_steady_state,
    full_map_step,
    iter_run,
    mixed_state,
    pure_state,
    run,
    state_trace_distance,
    step,
    to_full_density,
    validate_walk,
)
from .linalg import (
    adjoint,
    apply_kraus,
    hermitian_eigenvalues,
    is_psd,
    kron,
    pure_fidelity,
    trace_distance,
)
from .scenarios import (
    BELL_NODE_STATES,
    SCENARIO_NAMES,
    build_bell_grid,
    build_dqc_chain,
    build_gate_walk,
    build_line_walk,
    build_state_prep,
    build_transport_chain,
    state_prep_targets,
)

__version__ = "0.1.0"

__all__ = [
    "WalkSpec",
    "WalkerState",
    "ValidationReport",
    "SteadyStateResult",
    "validate_walk",
    "step",
    "run",
    "iter_run",
    "find_steady_state",
    "state_trace_distance",
    "to_full_density",
    "extract_blocks",
    "full_map_step",
    "pure_state",
    "mixed_state",
    "kron",
    "adjoint",
    "apply_kraus",
    "hermitian_eigenvalues",
    "is_psd",
    "trace_distance",
    "pure_fidelity",
    "occupation",
    "position_moments",
    "readout_probability",
    "node_fidelity",
    "internal_sector_occupation",
    "dqc_predicted_readout",
    "state_prep_predicted_pss",
    "build_line_walk",
    "build_gate_walk",
    "build_state_prep",
    "build_bell_grid",
    "build_transport_chain",
    "build_dqc_chain",
    "state_prep_targets",
    "BELL_NODE_STATES",
    "SCENARIO_NAMES",
]
