"""Statics toolkit for a spring-loaded parallel-link gripper finger.

Predicts whether pressing the closed fingertip against an object edge
keeps the grip (parallel mode) or swings the finger open (turn-over
mode), maps the envelope of press directions that open it, and searches
the linkage design space for builds meeting envelope and force targets.

Importing the package loads none of its submodules.  Each public name
loads its home module on first access (PEP 562) and is cached here, so
a caller that only reads parameter files never loads the solver.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Every public name, keyed to the submodule that defines it; each
# submodule's __all__ lists the same names.
_HOMES: dict[str, str] = {
    name: module
    for module, names in {
        "model": (
            "DesignSpec", "LinkageParameters", "ParameterViolation", "ValidationReport",
            "default_parameters", "spring_force", "validate_parameters",
        ),
        "statics": (
            "BalanceSolution", "BalanceSystem", "BlockedReason", "EquilibriumState",
            "JointForcePair", "OpeningDecision", "OpeningStatus", "SingularSystemError",
            "assemble_system", "friction_coupling", "full_equilibrium",
            "perturbed_joint_forces", "predict_opening", "solve_balance",
            "solve_balance_with_sign", "tip_moment_ratio",
        ),
        "modeswitch": (
            "GraspMode", "NotOpeningError", "OpeningInterval", "SweepCurve",
            "SweepSample", "envelope", "opening_interval", "parallel_grip_budget",
            "select_mode", "sweep", "sweep_points", "switching_threshold",
        ),
        "paramfile": (
            "Measurement", "MeasurementFileError", "ParameterDocument", "ParameterFileError",
            "SweepSettings", "format_parameter_file", "parse_design_file",
            "parse_parameter_document", "parse_parameter_file", "read_measurements",
        ),
        "compare": (
            "ComparisonResult", "ComparisonRow", "compare_measurements", "format_comparison_csv",
        ),
        "design": (
            "DesignEvaluation", "DesignResult", "DesignStatus",
            "VerificationRecord", "evaluate_design", "optimize_design", "sensitivity",
        ),
    }.items()
    for name in names
}

__all__ = sorted([*_HOMES, "__version__"])

# typing.TYPE_CHECKING without importing typing: type checkers read the
# names below, the interpreter never runs these imports.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .compare import *
    from .design import *
    from .model import *
    from .modeswitch import *
    from .paramfile import *
    from .statics import *


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is not None:
        value = globals()[name] = getattr(_import_module("." + home, __name__), name)
        return value
    if name in _HOMES.values():  # a submodule not yet imported
        return _import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
