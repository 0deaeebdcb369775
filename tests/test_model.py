import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linkstat import default_parameters, friction_coupling, validate_parameters


def test_defaults_validate(defaults):
    report = validate_parameters(defaults)
    assert report.ok
    assert report.describe() == "parameters ok"


def test_default_values(defaults):
    assert defaults.l1 == 24.0
    assert defaults.l2 == 12.0
    # Slotted strut picks up the projection of the tilted tip pad.
    assert math.isclose(defaults.l4, 2.4148145657, rel_tol=1e-9)
    assert math.isclose(defaults.l3, 22.625, rel_tol=1e-12)
    assert math.isclose(math.degrees(defaults.theta4), 7.44, rel_tol=1e-12)


def test_zero_length_reported(defaults):
    report = validate_parameters(defaults.with_values(l2=0.0))
    assert not report.ok
    assert any(v.field == "l2" and "positive" in v.message for v in report.violations)


def test_degenerate_angle_pair_reported(defaults):
    bad = defaults.with_values(theta3=-defaults.theta2)
    report = validate_parameters(bad)
    assert not report.ok
    assert any("theta3" in v.message for v in report.violations)


def test_all_violations_reported_together(defaults):
    bad = defaults.with_values(l0=-1.0, l3=0.0, theta1=2.0, mu=-0.5)
    fields = {v.field for v in validate_parameters(bad).violations}
    assert {"l0", "l3", "theta1", "mu"} <= fields


def test_angle_range_is_open(defaults):
    at_edge = defaults.with_values(theta1=math.pi / 2)
    assert not validate_parameters(at_edge).ok


@given(
    st.sampled_from(["l0", "l1", "l2", "l3", "l4", "natural_length"]),
    st.floats(max_value=0.0, allow_nan=False, allow_infinity=False),
)
def test_any_nonpositive_length_is_named(name, value):
    bad = default_parameters().with_values(**{name: value})
    report = validate_parameters(bad)
    assert any(v.field == name for v in report.violations)


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_validation_never_raises(value):
    p = default_parameters().with_values(l1=value, theta2=value, spring_k=value, mu=value)
    validate_parameters(p)  # must not raise, whatever the input


@pytest.mark.parametrize(
    "theta2_deg,sign,mu",
    [(18.5, 1, None), (-18.5, -1, None), (18.5, 1, 3.5), (-18.5, -1, 3.5)],
    ids=["18.5-1", "-18.5--1", "18.5-1-mu3.5", "-18.5--1-mu3.5"],
)
def test_zero_friction_coupling_denominator_reported(defaults, theta2_deg, sign, mu):
    """mu >= cot|theta2| self-locks the slot on branch s = sign(theta2) only.

    ``mu`` None is the boundary mu = cot|theta2|, where the coupling
    denominator of branch s is exactly zero.
    """
    t2 = math.radians(theta2_deg)
    boundary = sign * math.cos(t2) / math.sin(t2)
    p = defaults.with_values(theta2=t2, mu=boundary if mu is None else mu)
    assert math.isfinite(friction_coupling(p, -sign))
    report = validate_parameters(p)
    assert [v.field for v in report.violations] == ["mu"]
    assert f"{sign:+d} branch" in report.violations[0].message
    if mu is not None:
        assert friction_coupling(p, sign) < 0.0
        return
    with pytest.raises(ZeroDivisionError):
        friction_coupling(p, sign)
    # The boundary is refused with everything above it; one ulp below passes.
    below = p.with_values(mu=math.nextafter(p.mu, 0.0))
    above = p.with_values(mu=math.nextafter(p.mu, math.inf))
    assert math.isfinite(friction_coupling(below, sign))
    assert validate_parameters(below).ok
    assert not validate_parameters(above).ok
