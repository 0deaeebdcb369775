"""The public record types: immutable, equal by value, with fixed field order and repr."""

import pytest

import linkstat

# Each record with its fields in declaration order, which is also the
# positional order of its constructor and the order of its repr.
RECORDS = {
    "LinkageParameters": (
        "l0", "l1", "l2", "l3", "l4", "theta0", "theta1", "theta2", "theta3",
        "theta4", "theta5", "spring_k", "natural_length", "mu", "epsilon",
    ),
    "ParameterViolation": ("field", "message"),
    "ValidationReport": ("violations",),
    "BalanceSystem": ("a00", "a01", "a10", "a11", "b0", "b1"),
    "BalanceSolution": ("xi_b", "beta_3b", "sign_beta3", "sign_consistent", "system"),
    "JointForcePair": ("f_rx", "f_sx"),
    "OpeningDecision": ("status", "required_force", "blocked_reason", "forces", "solution"),
    "SweepSample": ("zeta", "decision"),
    "SweepCurve": ("params", "samples"),
    "SweepSettings": ("zeta_lo_deg", "zeta_hi_deg", "step_deg"),
    "ParameterDocument": ("parameters", "sweep"),
    "ComparisonResult": ("rows", "mean_abs_dev"),
    "Measurement": ("zeta", "measured_force"),
    "DesignSpec": (
        "interval_lo", "interval_hi", "press_angle", "threshold_lo", "threshold_hi",
        "free", "bounds",
    ),
    "DesignEvaluation": (
        "penalty", "interval_shortfall_deg", "threshold_violation_n", "press_opens",
        "threshold", "intervals", "violations",
    ),
    "VerificationRecord": ("interval_lo", "interval_hi", "threshold"),
    "DesignResult": (
        "status", "parameters", "evaluations", "penalty", "violations", "verification",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_immutable_with_its_field_order_and_repr(name):
    fields = RECORDS[name]
    cls = getattr(linkstat, name)
    record = cls(*range(len(fields)))
    assert [getattr(record, f) for f in fields] == list(range(len(fields)))
    assert record == cls(**{f: i for i, f in enumerate(fields)})
    assert repr(record) == f"{name}(" + ", ".join(
        f"{f}={i}" for i, f in enumerate(fields)) + ")"
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, -1)
        with pytest.raises(AttributeError):
            delattr(record, f)
    assert getattr(record, fields[0]) == 0
