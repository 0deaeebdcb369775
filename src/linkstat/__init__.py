"""Statics toolkit for a spring-loaded parallel-link gripper finger.

Predicts whether pressing the closed fingertip against an object edge
keeps the grip (parallel mode) or swings the finger open (turn-over
mode), maps the envelope of press directions that open it, and searches
the linkage design space for builds meeting envelope and force targets.
"""

from importlib import import_module as _import_module

from .model import (
    ClosureError,
    JointLayout,
    LinkageParameters,
    ParameterViolation,
    ValidationReport,
    default_parameters,
    joint_layout,
    surface_angle,
    validate_parameters,
)
from .modeswitch import (
    GraspMode,
    NotOpeningError,
    OpeningInterval,
    SweepCurve,
    SweepSample,
    envelope,
    opening_interval,
    parallel_grip_budget,
    select_mode,
    sweep,
    sweep_points,
    switching_threshold,
)
from .paramfile import (
    ComparisonResult,
    ComparisonRow,
    Measurement,
    MeasurementFileError,
    ParameterDocument,
    ParameterFileError,
    SweepSettings,
    compare_measurements,
    format_comparison_csv,
    format_parameter_file,
    parse_design_file,
    parse_parameter_document,
    parse_parameter_file,
    read_measurements,
)
from .statics import (
    BalanceSolution,
    BalanceSystem,
    BlockedReason,
    EquilibriumState,
    JointForcePair,
    OpeningDecision,
    OpeningStatus,
    SingularSystemError,
    assemble_system,
    friction_coupling,
    full_equilibrium,
    perturbed_joint_forces,
    predict_opening,
    solve_balance,
    solve_balance_with_sign,
    spring_force,
    tip_moment_ratio,
)

__version__ = "0.1.0"

# The design search loads on first access (PEP 562), so that importing
# linkstat, and every CLI command but ``optimize``, leaves it unloaded.
_DESIGN_NAMES = frozenset({
    "DesignEvaluation",
    "DesignResult",
    "DesignSpec",
    "DesignStatus",
    "VerificationRecord",
    "evaluate_design",
    "optimize_design",
    "sensitivity",
})


def __getattr__(name: str):
    if name == "design":
        return _import_module(".design", __name__)
    if name in _DESIGN_NAMES:
        value = getattr(_import_module(".design", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BalanceSolution",
    "BalanceSystem",
    "BlockedReason",
    "ClosureError",
    "ComparisonResult",
    "ComparisonRow",
    "DesignEvaluation",
    "DesignResult",
    "DesignSpec",
    "DesignStatus",
    "EquilibriumState",
    "GraspMode",
    "JointForcePair",
    "JointLayout",
    "LinkageParameters",
    "Measurement",
    "MeasurementFileError",
    "NotOpeningError",
    "OpeningDecision",
    "OpeningInterval",
    "OpeningStatus",
    "ParameterDocument",
    "ParameterFileError",
    "ParameterViolation",
    "SingularSystemError",
    "SweepCurve",
    "SweepSample",
    "SweepSettings",
    "ValidationReport",
    "VerificationRecord",
    "__version__",
    "assemble_system",
    "compare_measurements",
    "default_parameters",
    "envelope",
    "evaluate_design",
    "format_comparison_csv",
    "format_parameter_file",
    "friction_coupling",
    "full_equilibrium",
    "joint_layout",
    "opening_interval",
    "optimize_design",
    "parallel_grip_budget",
    "parse_design_file",
    "parse_parameter_document",
    "parse_parameter_file",
    "perturbed_joint_forces",
    "predict_opening",
    "read_measurements",
    "select_mode",
    "sensitivity",
    "solve_balance",
    "solve_balance_with_sign",
    "spring_force",
    "surface_angle",
    "sweep",
    "sweep_points",
    "switching_threshold",
    "tip_moment_ratio",
    "validate_parameters",
]
