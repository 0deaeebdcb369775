import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import linkstat.model as model
from linkstat import (
    Measurement,
    NotOpeningError,
    SingularSystemError,
    assemble_system,
    compare_measurements,
    default_parameters,
    envelope,
    friction_coupling,
    perturbed_joint_forces,
    predict_opening,
    solve_balance,
    solve_balance_with_sign,
    sweep_points,
    switching_threshold,
    tip_moment_ratio,
    validate_parameters,
)
from linkstat.statics import _build_terms


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


# theta2 = +-1e-300 with mu just below 1e300 passes every rule but the
# a11 one: the coupling denominator of branch sign(theta2) clears zero by
# about 1e-16, and the coupling overflows.
_A11_MU = 1e300 * (1 - 2**-52)


@given(
    st.floats(allow_nan=True, allow_infinity=True).map(
        lambda v: dict(l1=v, theta2=v, theta3=v, spring_k=v, mu=v)
    )
)
# theta2 + theta3 overflows:
@example(dict(l1=1e308, theta2=1e308, theta3=1e308, spring_k=1e308, mu=1e308))
@example({"theta2": 1e-300, "mu": _A11_MU})  # a11 overflows
def test_validation_never_raises(changes):
    p = default_parameters().with_values(**changes)
    validate_parameters(p)  # must not raise, whatever the input


@pytest.mark.parametrize(
    "theta2_deg,sign,mu",
    [(18.5, 1, None), (-18.5, -1, None), (18.5, 1, 3.5), (-18.5, -1, 3.5)],
    ids=["18.5-1", "-18.5--1", "18.5-1-mu3.5", "-18.5--1-mu3.5"],
)
def test_zero_friction_coupling_denominator_reported(defaults, theta2_deg, sign, mu):
    """mu >= cot|theta2| self-locks the slot on branch s = sign(theta2) only,
    and friction_coupling refuses the build on either branch with that line.

    ``mu`` None is the boundary mu = cot|theta2|, where the coupling
    denominator of branch s is exactly zero.
    """
    t2 = math.radians(theta2_deg)
    boundary = sign * math.cos(t2) / math.sin(t2)
    p = defaults.with_values(theta2=t2, mu=boundary if mu is None else mu)
    report = validate_parameters(p)
    assert [v.field for v in report.violations] == ["mu"]
    assert f"{sign:+d} branch" in report.violations[0].message
    for branch in (sign, -sign):
        with pytest.raises(ValueError) as err:
            friction_coupling(p, branch)
        assert str(err.value) == report.describe()
    if mu is not None:
        return
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
    and the statics' terms refuse them by that rule's text."""
    p = default_parameters().with_values(
        l0=l0, l1=l1, spring_k=spring_k, natural_length=natural_length
    )
    f_k = model.spring_force(p)
    b0 = l0 / l1 * math.cos(p.theta0 + p.theta1) * f_k
    b1 = -(l0 / l1) * math.cos(p.theta4 + p.theta5) * f_k
    refused = any(v.field == "l1" for v in validate_parameters(p).violations)
    assert refused == (not (math.isfinite(b0) and math.isfinite(b1)))
    try:
        terms = _build_terms(p)
    except ValueError as exc:
        assert str(exc).startswith(f"l1: l0/l1 = {l0!r}/{l1!r}")
        assert str(exc).endswith(f"(b0 = {b0!r}, b1 = {b1!r})")
        assert refused
    else:
        assert not refused
        assert (terms.b0, terms.b1) == (b0, b1)


@given(_MAGNITUDES, _MAGNITUDES, _MAGNITUDES)
@example(5e-324, 22.625, 2.41)
@example(1e-310, 22.625, 2.41)
@example(1e-300, 1e10, 2.41)
def test_tip_moment_rule_matches_the_statics(l2, l3, l4):
    """validate_parameters refuses exactly the builds whose tip moment ratio
    bound (|l3| + |l4|) over the coupler arm overflows, and the statics'
    terms refuse them by that rule's text."""
    p = default_parameters().with_values(l2=l2, l3=l3, l4=l4)
    refused = any(v.field == "l2" for v in validate_parameters(p).violations)
    arm = l2 * math.sin(p.theta2 + p.theta3)
    assert refused == (arm == 0.0 or not math.isfinite((l3 + l4) / arm))
    try:
        _build_terms(p)
    except ValueError as exc:
        assert str(exc).startswith(f"l2: l2*sin(theta2+theta3) = {arm!r} with l2 = {l2!r}")
        assert refused
        return
    assert not refused
    assert math.isfinite(tip_moment_ratio(p, 0.0))


@pytest.mark.parametrize("sign", [1, -1])
def test_a_friction_branch_whose_a11_overflows_is_refused(defaults, sign):
    p = defaults.with_values(theta2=sign * 1e-300, mu=_A11_MU)
    report = validate_parameters(p)
    assert report.describe() == (
        f"mu: mu = 9.999999999999999e+299 with theta2 = {sign * 1e-300!r} overflows "
        f"the {sign:+d} friction branch's a11 = {sign * math.inf!r}, its coupling "
        "(s*mu*sin(theta3) + cos(theta3)) / (-s*mu*sin(theta2) + cos(theta2)) "
        "times sin(theta4 - theta2)"
    )
    # Every field is finite, yet neither branch's coupling is given.
    for branch in (sign, -sign):
        with pytest.raises(ValueError) as err:
            friction_coupling(p, branch)
        assert str(err.value) == report.describe()


# Builds for the one-gate properties: each field left at its default or
# drawn from magnitudes 5e-324 to 1e308 of either sign, angles near
# +-pi/2, zeros and non-finite values; then, one time in three, a tiny
# theta2, and one time in three, mu put on a self-lock boundary of theta2,
# give or take a few ulps (which with a tiny theta2 reaches the a11
# overflow).
_HALF_PI = math.pi / 2
_FIELD_VALUES = st.one_of(
    st.floats(min_value=5e-324, max_value=1e308),
    st.floats(min_value=-1e308, max_value=-5e-324),
    st.floats(min_value=_HALF_PI - 1e-6, max_value=_HALF_PI + 1e-6),
    st.floats(min_value=-_HALF_PI - 1e-6, max_value=-_HALF_PI + 1e-6),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, _HALF_PI, -_HALF_PI]),
)


@st.composite
def _builds(draw):
    base = default_parameters()
    p = base.with_values(**draw(st.dictionaries(
        st.sampled_from(base._fields), _FIELD_VALUES, max_size=4)))
    if draw(st.integers(0, 2)) == 0:
        tiny = st.floats(min_value=1e-306, max_value=1e-293)
        p = p.with_values(theta2=draw(st.one_of(st.just(p.theta2), tiny, tiny.map(lambda t: -t))))
    if draw(st.integers(0, 2)) == 0 and math.isfinite(p.theta2) and math.sin(p.theta2) != 0.0:
        mu = abs(math.cos(p.theta2) / math.sin(p.theta2))
        toward = math.inf if draw(st.booleans()) else 0.0
        for _ in range(draw(st.integers(0, 4))):
            mu = math.nextafter(mu, toward)
        p = p.with_values(mu=mu)
    return p


_EXAMPLE_BUILDS = [
    default_parameters(),
    default_parameters().with_values(l1=1e-320),  # b0, b1 overflow
    default_parameters().with_values(l0=1e300, spring_k=1e10),
    default_parameters().with_values(l2=5e-324),  # the tip moment ratio overflows
    default_parameters().with_values(l2=1e-310),
    default_parameters().with_values(l2=1e-300, l3=1e10),
    default_parameters().with_values(theta2=-default_parameters().theta3),  # zero arm
    default_parameters().with_values(theta2=1.2, mu=3.5),  # self-locks the +1 branch
    default_parameters().with_values(theta2=1e-300, mu=_A11_MU),  # a11 overflows, +1
    default_parameters().with_values(theta2=-1e-300, mu=_A11_MU),  # and -1
    default_parameters().with_values(l3=math.nan, theta1=math.inf),
]


def _with_example_builds(test):
    """``test`` with each of _EXAMPLE_BUILDS as an explicit example."""
    for p in reversed(_EXAMPLE_BUILDS):
        test = example(p)(test)
    return test


@settings(max_examples=400)
@given(_builds())
@_with_example_builds
def test_the_fast_route_refuses_exactly_what_validation_refuses(p):
    """One gate: the 2x2 balance's terms are refused exactly when the
    report has a violation, with its first line as the text, and every
    build that validates derives finite terms on both friction branches
    and a finite tip moment ratio."""
    report = validate_parameters(p)
    try:
        terms = _build_terms(p)
    except ValueError as exc:
        assert not report.ok
        assert str(exc) == report.describe().split("\n")[0]
        return
    assert report.ok
    assert all(math.isfinite(v) for v in terms.kernel)
    assert math.isfinite(terms.plus) and math.isfinite(terms.minus)
    assert math.isfinite(tip_moment_ratio(p, 0.0))


_ZETA = 0.3  # a press direction that opens the reference build
_MEASUREMENTS = (Measurement(0.0, 5.0), Measurement(_ZETA, 4.0))


@settings(max_examples=400)
@given(_builds())
@_with_example_builds
def test_every_public_function_of_the_2x2_route_refuses_by_the_one_gate(p):
    """Each public function of the 2x2 route, the two helpers among them,
    raises ValueError with the report's first line exactly when the report
    is not ok; a build that validates gets an answer or the route's
    RuntimeError (a singular balance, a press direction that does not open)."""
    report = validate_parameters(p)
    calls = {
        "tip_moment_ratio": lambda: tip_moment_ratio(p, _ZETA),
        "friction_coupling(+1)": lambda: friction_coupling(p, 1),
        "friction_coupling(-1)": lambda: friction_coupling(p, -1),
        "assemble_system": lambda: assemble_system(p, _ZETA, 1),
        "solve_balance": lambda: solve_balance(p, _ZETA),
        "solve_balance_with_sign": lambda: solve_balance_with_sign(p, _ZETA, -1),
        "perturbed_joint_forces": lambda: perturbed_joint_forces(p, _ZETA),
        "predict_opening": lambda: predict_opening(p, _ZETA),
        "switching_threshold": lambda: switching_threshold(p, _ZETA),
        "sweep_points": lambda: sweep_points(p, [-0.2, 0.0, _ZETA]),
        "envelope": lambda: envelope(p),
        "compare_measurements": lambda: compare_measurements(p, _MEASUREMENTS),
    }
    for name, call in calls.items():
        try:
            call()
        except ValueError as exc:
            assert not report.ok, name
            assert str(exc) == report.describe().split("\n")[0], name
        except (SingularSystemError, NotOpeningError):
            assert report.ok, name
        else:
            assert report.ok, name


@settings(max_examples=400)
@given(_builds())
@example(default_parameters())
@example(default_parameters().with_values(theta1=math.nextafter(_HALF_PI, 0.0), mu=0.0))
def test_a_build_inside_every_range_breaks_no_field_rule(p):
    """The derivation's range pre-test, which skips the per-field rules,
    accepts only builds those rules accept."""
    with mock.patch.object(model, "_field_violations", wraps=model._field_violations) as rules:
        model._Derivation(p)
    if not rules.called:
        assert model._field_violations(p) == []


def test_tip_moment_ratio_names_a_zero_arm(defaults):
    """A zero coupler moment arm, by l2 or by theta2 = -theta3, is refused
    with the report's first line."""
    for p in (defaults.with_values(l2=0.0), defaults.with_values(theta2=-defaults.theta3)):
        first = validate_parameters(p).describe().split("\n")[0]
        with pytest.raises(ValueError) as err:
            tip_moment_ratio(p, 0.0)
        assert str(err.value) == first


def test_with_values_names_an_unknown_field(defaults):
    with pytest.raises(ValueError, match="bogus"):
        defaults.with_values(bogus=1.0)
