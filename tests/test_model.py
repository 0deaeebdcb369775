import math
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from linkstat import default_parameters, friction_coupling, validate_parameters
from linkstat.model import _spring_moments
from linkstat.statics import _BuildTerms, tip_moment_ratio


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
@example(1e308)  # theta2 + theta3 overflows
def test_validation_never_raises(value):
    p = default_parameters().with_values(
        l1=value, theta2=value, theta3=value, spring_k=value, mu=value
    )
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
    message = re.escape(f"the {sign:+d} friction branch's denominator")
    with pytest.raises(ValueError, match=message):
        friction_coupling(p, sign)
    # The boundary is refused with everything above it; one ulp below passes.
    below = p.with_values(mu=math.nextafter(p.mu, 0.0))
    above = p.with_values(mu=math.nextafter(p.mu, math.inf))
    assert math.isfinite(friction_coupling(below, sign))
    assert validate_parameters(below).ok
    assert not validate_parameters(above).ok


def test_subnormal_strut_length_is_refused(defaults):
    # l1 = 1e-320 is positive, but l0/l1 overflows the spring moments.
    report = validate_parameters(defaults.with_values(l1=1e-320))
    assert [v.field for v in report.violations] == ["l1"]
    assert "b0 = inf, b1 = -inf" in report.violations[0].message
    assert validate_parameters(defaults.with_values(l1=1e-300)).ok


_MAGNITUDES = st.floats(min_value=5e-324, max_value=1e308)


@given(_MAGNITUDES, _MAGNITUDES, _MAGNITUDES, _MAGNITUDES)
@example(10.93, 1e-320, 0.862, 9.7)
@example(1e300, 24.0, 1e10, 9.7)
def test_spring_moment_rule_matches_the_statics(l0, l1, spring_k, natural_length):
    """validate_parameters refuses exactly the builds whose b0, b1 overflow,
    and so do the statics' terms."""
    p = default_parameters().with_values(
        l0=l0, l1=l1, spring_k=spring_k, natural_length=natural_length
    )
    b0, b1 = _spring_moments(p)
    refused = any(v.field == "l1" for v in validate_parameters(p).violations)
    assert refused == (not (math.isfinite(b0) and math.isfinite(b1)))
    try:
        _BuildTerms(p)
    except ValueError as exc:
        assert str(exc).startswith(f"(b0, b1) = {(b0, b1)!r}")
        assert refused
    else:
        assert not refused


@given(_MAGNITUDES, _MAGNITUDES, _MAGNITUDES)
@example(5e-324, 22.625, 2.41)
@example(1e-310, 22.625, 2.41)
@example(1e-300, 1e10, 2.41)
def test_tip_moment_rule_matches_the_statics(l2, l3, l4):
    """validate_parameters refuses exactly the builds whose tip moment ratio
    bound (|l3| + |l4|) over the statics' coupler arm overflows, and every
    build the statics' terms refuse."""
    p = default_parameters().with_values(l2=l2, l3=l3, l4=l4)
    refused = any(v.field == "l2" for v in validate_parameters(p).violations)
    arm = l2 * math.sin(p.theta2 + p.theta3)  # as statics._coupler_arm forms it
    assert refused == (arm == 0.0 or not math.isfinite((l3 + l4) / arm))
    try:
        _BuildTerms(p)
    except ValueError as exc:  # a zero arm, or a00 and a10 overflow
        assert ("coupler moment arm" if arm == 0.0 else "terms overflow") in str(exc)
        assert refused
        return
    assert arm != 0.0
    if not refused:
        assert math.isfinite(tip_moment_ratio(p, 0.0))


def test_tip_moment_ratio_names_a_zero_arm(defaults):
    with pytest.raises(ValueError, match=r"l2\*sin\(theta2\+theta3\) = 0\.0"):
        tip_moment_ratio(defaults.with_values(l2=0.0), 0.0)


def test_with_values_names_an_unknown_field(defaults):
    with pytest.raises(ValueError, match="bogus"):
        defaults.with_values(bogus=1.0)
