"""Simulator for the two-lab extended Wigner's-friend protocol.

The package models the full round (coin, spin, two friends, two
superobservers, optional notebooks), tracks every agent's relational
description separately, and verifies sampled statistics against exact
branch enumeration.
"""

from .analysis import (
    DetectionReport,
    FrequencyTable,
    JointDistribution,
    detect_records,
    enumerate_exact,
    monte_carlo,
    rounds_to_halt,
    z_scores,
)
from .measurement import (
    BasisError,
    Branch,
    InconsistentOutcomeError,
    MeasurementBasis,
    NormalizationError,
    ResidualError,
    SubspaceOutcome,
    branch_all,
    condition_on,
    outcome_probability,
    premeasure,
    record_copy,
    sample,
    validate_basis,
)
from .perspectives import (
    AgentModel,
    CertaintyVerdict,
    Given,
    PerspectiveLimit,
    agent_model_at,
    apply_announcement,
    certainty_query,
    known_system_names,
    standard_predictions,
)
from .protocol import (
    ProtocolConfig,
    ProtocolVariant,
    RoundTranscript,
    RunReport,
    round_rng,
    run_round,
    run_until_halt,
    state_after_preparation,
)
from .reference import ReferenceState, load_reference_states
from .tensor import (
    LayoutError,
    RegisterLayout,
    StateVector,
    SystemId,
    UnitarityError,
    apply_unitary,
    equal_up_to_global_phase,
    product_state,
    reorder,
)

__all__ = [
    "DetectionReport", "FrequencyTable", "JointDistribution", "detect_records",
    "enumerate_exact", "monte_carlo", "rounds_to_halt", "z_scores", "BasisError",
    "Branch", "InconsistentOutcomeError", "MeasurementBasis", "NormalizationError",
    "ResidualError", "SubspaceOutcome", "branch_all", "condition_on",
    "outcome_probability", "premeasure", "record_copy", "sample", "validate_basis",
    "AgentModel", "CertaintyVerdict", "Given", "PerspectiveLimit", "agent_model_at",
    "apply_announcement", "certainty_query", "known_system_names",
    "standard_predictions", "ProtocolConfig", "ProtocolVariant", "RoundTranscript",
    "RunReport", "round_rng", "run_round", "run_until_halt",
    "state_after_preparation", "ReferenceState", "load_reference_states",
    "LayoutError", "RegisterLayout", "StateVector", "SystemId", "UnitarityError",
    "apply_unitary", "equal_up_to_global_phase", "product_state", "reorder",
]

__version__ = "0.1.0"
