import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import linkstat.statics as statics
from linkstat import (
    BlockedReason,
    DesignSpec,
    Measurement,
    NotOpeningError,
    OpeningStatus,
    SingularSystemError,
    assemble_system,
    compare_measurements,
    default_parameters,
    envelope,
    evaluate_design,
    friction_coupling,
    full_equilibrium,
    perturbed_joint_forces,
    predict_opening,
    sensitivity,
    solve_balance,
    solve_balance_with_sign,
    spring_force,
    sweep,
    switching_threshold,
    tip_moment_ratio,
    validate_parameters,
)
from linkstat.modeswitch import _sign_functions

# Reference values computed by hand from the member balances before this
# module existed; they are frozen here and must keep reproducing.
SPRING_FORCE_REF = 3.691722
GAMMA_AT_0_REF = -0.719316
LAMBDA_PLUS_REF = 1.479294
LAMBDA_MINUS_REF = 0.711891
XI_AT_MINUS15_REF = 4.783527
XI_AT_0_REF = 5.171175
XI_AT_10_REF = 4.693808
F_RX_AT_MINUS15_REF = -0.039661
F_SX_AT_MINUS15_REF = -0.005529


def rad(deg: float) -> float:
    return math.radians(deg)


def test_spring_force_reference(defaults):
    assert math.isclose(spring_force(defaults), SPRING_FORCE_REF, rel_tol=1e-6)


def test_spring_force_zero_rate(defaults):
    assert spring_force(defaults.with_values(spring_k=0.0)) == 0.0


def test_tip_moment_ratio_reference(defaults):
    assert math.isclose(tip_moment_ratio(defaults, 0.0), GAMMA_AT_0_REF, rel_tol=1e-6)
    # The ratio crosses zero between -15 and 0 degrees of press direction.
    assert tip_moment_ratio(defaults, rad(-15.0)) > 0.0


def test_friction_coupling_reference(defaults):
    assert math.isclose(friction_coupling(defaults, 1), LAMBDA_PLUS_REF, rel_tol=1e-6)
    assert math.isclose(friction_coupling(defaults, -1), LAMBDA_MINUS_REF, rel_tol=1e-6)


@given(st.floats(min_value=-0.5, max_value=1.5))
def test_friction_coupling_collapses_without_friction(zeta):
    p = default_parameters().with_values(mu=0.0)
    assert friction_coupling(p, 1) == friction_coupling(p, -1)


@pytest.mark.parametrize(
    "zeta_deg,xi_ref,sign_ref",
    [
        (-15.0, XI_AT_MINUS15_REF, 1),
        (-12.5, 4.845527, 1),
        (0.0, XI_AT_0_REF, -1),
        (10.0, XI_AT_10_REF, -1),
    ],
)
def test_balance_reference_points(defaults, zeta_deg, xi_ref, sign_ref):
    sol = solve_balance(defaults, rad(zeta_deg))
    assert math.isclose(sol.xi_b, xi_ref, rel_tol=1e-6)
    assert sol.sign_beta3 == sign_ref
    assert sol.sign_consistent


def test_balance_strut_force_reference(defaults):
    sol = solve_balance(defaults, rad(-15.0))
    assert math.isclose(sol.beta_3b, 5.4265, rel_tol=1e-4)
    sol0 = solve_balance(defaults, 0.0)
    assert math.isclose(sol0.beta_3b, -1.0411, rel_tol=1e-4)


def test_sign_iteration_starts_positive(defaults):
    # At -15 deg the first branch already agrees and must be kept.
    sol = solve_balance(defaults, rad(-15.0))
    assert sol.sign_beta3 == 1
    pinned = solve_balance_with_sign(defaults, rad(-15.0), 1)
    assert pinned.xi_b == sol.xi_b


def test_pinned_sign_skips_iteration(defaults):
    pinned = solve_balance_with_sign(defaults, 0.0, 1)
    assert not pinned.sign_consistent  # +1 branch contradicts its solution here
    iterated = solve_balance(defaults, 0.0)
    assert iterated.sign_beta3 == -1
    assert iterated.sign_consistent


@pytest.mark.parametrize("sign", [0, 2, -2, 0.5, math.nan])
def test_branch_sign_other_than_plus_or_minus_one_is_refused(defaults, sign):
    for call in (
        lambda: friction_coupling(defaults, sign),
        lambda: assemble_system(defaults, 0.0, sign),
        lambda: solve_balance_with_sign(defaults, 0.0, sign),
        lambda: statics._decide_all(defaults, [0.0], sign),
        lambda: full_equilibrium(defaults, 0.0, sign),
    ):
        with pytest.raises(ValueError, match=re.escape(f"+1 or -1, got {sign!r}")):
            call()
    # A non-finite press direction is reported before the sign.
    for call in (lambda: assemble_system(defaults, math.inf, sign),
                 lambda: solve_balance_with_sign(defaults, math.inf, sign),
                 lambda: full_equilibrium(defaults, math.inf, sign)):
        with pytest.raises(ValueError, match="press direction must be finite, got inf"):
            call()


@pytest.mark.parametrize("zeta", [-15.0, 0.0, 60.0, 75.0])
def test_oracle_reads_a_hint_equal_to_plus_or_minus_one_as_that_int(defaults, zeta):
    # At 60 and 75 deg both slip senses are consistent, so the hint picks one.
    for sign in (1, -1):
        as_int = full_equilibrium(defaults, rad(zeta), sign)
        as_float = full_equilibrium(defaults, rad(zeta), float(sign))
        assert type(as_float.friction_sign) is int
        assert as_float == as_int


_SYSTEM_FLOATS = ("a00", "a01", "a10", "a11", "b0", "b1")


@given(
    st.floats(min_value=-0.5, max_value=1.5),
    st.floats(min_value=0.8, max_value=1.2),
    st.floats(min_value=0.0, max_value=2.0),
)
def test_branch_switch_equals_pinned_minus_branch(zeta, l_scale, mu_scale):
    """The -1 retry reuses the +1 system yet matches a fresh -1 assembly bitwise."""
    base = default_parameters()
    p = base.with_values(l3=base.l3 * l_scale, mu=base.mu * mu_scale)
    try:
        sol = solve_balance(p, zeta)
    except SingularSystemError:
        return
    assume(sol.sign_beta3 == -1)
    pinned = solve_balance_with_sign(p, zeta, -1)
    assert sol.xi_b.hex() == pinned.xi_b.hex()
    assert sol.beta_3b.hex() == pinned.beta_3b.hex()
    assert sol.sign_consistent == pinned.sign_consistent
    assert pinned.sign_beta3 == -1
    system, fresh = sol.system, pinned.system
    for name in _SYSTEM_FLOATS:
        assert getattr(system, name).hex() == getattr(fresh, name).hex(), name
    assert system.det.hex() == fresh.det.hex()
    assert np.array_equal(
        system.matrix, np.array([[system.a00, system.a01], [system.a10, system.a11]])
    )
    assert np.array_equal(system.rhs, np.array([system.b0, system.b1]))


def test_friction_tie_keeps_the_plus_branch(defaults):
    """Both slip senses balance at 60 deg, with xi of opposite signs.

    solve_balance keeps the +1 branch, so the verdict is NEGATIVE_XI even
    though the -1 branch would need only +4.77 N.
    """
    zeta = rad(60.0)
    plus = solve_balance_with_sign(defaults, zeta, 1)
    minus = solve_balance_with_sign(defaults, zeta, -1)
    assert plus.sign_consistent and minus.sign_consistent
    assert plus.xi_b == pytest.approx(-1387.3267, rel=1e-6)
    assert minus.xi_b == pytest.approx(4.7749635, rel=1e-6)
    kept = solve_balance(defaults, zeta)
    assert kept.sign_beta3 == 1
    assert kept.xi_b == plus.xi_b
    decision = predict_opening(defaults, zeta)
    assert decision.blocked_reason is BlockedReason.NEGATIVE_XI
    assert decision.sign_beta3 == 1


def test_singular_point_raises(defaults):
    # theta1 == theta3 == press direction zeroes the whole first row.
    p = defaults.with_values(theta3=defaults.theta1)
    with pytest.raises(SingularSystemError):
        solve_balance(p, defaults.theta1)


def test_probe_forces_reference(defaults):
    forces = perturbed_joint_forces(defaults, rad(-15.0))
    assert math.isclose(forces.f_rx, F_RX_AT_MINUS15_REF, rel_tol=1e-4)
    assert math.isclose(forces.f_sx, F_SX_AT_MINUS15_REF, rel_tol=1e-4)


def test_probe_forces_zero_step(defaults):
    p = defaults.with_values(epsilon=0.0)
    forces = perturbed_joint_forces(p, 0.0)
    assert forces.f_rx == 0.0
    assert forces.f_sx == 0.0


@given(
    st.floats(min_value=-0.5, max_value=1.5),
    st.floats(min_value=0.8, max_value=1.2),
    st.floats(min_value=0.8, max_value=1.2),
)
def test_probe_forces_match_matrix_route(zeta, k_scale, l_scale):
    """The reduced probe-force form must equal the explicit residual route."""
    base = default_parameters()
    p = base.with_values(spring_k=base.spring_k * k_scale, l3=base.l3 * l_scale)
    try:
        sol = solve_balance(p, zeta)
    except SingularSystemError:
        return
    forces = perturbed_joint_forces(p, zeta, sol)
    a, b = sol.system.matrix, sol.system.rhs
    residual = a @ np.array([sol.xi_b + p.epsilon, sol.beta_3b]) - b
    f_rx = -float(residual[0]) / math.cos(p.theta1)
    f_sx = -float(residual[1]) / math.cos(p.theta4)
    assert math.isclose(forces.f_rx, f_rx, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(forces.f_sx, f_sx, rel_tol=1e-9, abs_tol=1e-12)


def test_opening_verdicts_along_the_envelope(defaults):
    blocked_low = predict_opening(defaults, rad(-15.0))
    assert blocked_low.status is OpeningStatus.BLOCKED
    assert blocked_low.blocked_reason is BlockedReason.CONTACT_MAINTAINED
    assert blocked_low.required_force is None

    opens = predict_opening(defaults, 0.0)
    assert opens.opens
    assert opens.required_force == pytest.approx(XI_AT_0_REF, rel=1e-6)

    blocked_high = predict_opening(defaults, rad(60.0))
    assert blocked_high.status is OpeningStatus.BLOCKED
    assert blocked_high.blocked_reason is BlockedReason.NEGATIVE_XI
    assert blocked_high.solution is not None
    assert blocked_high.solution.xi_b < 0.0


def test_opening_decision_singular(defaults):
    p = defaults.with_values(theta3=defaults.theta1)
    decision = predict_opening(p, defaults.theta1)
    assert decision.status is OpeningStatus.SINGULAR
    assert decision.blocked_reason is BlockedReason.SINGULAR
    assert decision.solution is None
    assert decision.sign_beta3 == 0
    assert not decision.sign_consistent


def test_assemble_system_shape(defaults):
    system = assemble_system(defaults, 0.0, 1)
    assert system.matrix.shape == (2, 2)
    assert system.rhs.shape == (2,)
    assert system.matrix.tolist() == [[system.a00, system.a01], [system.a10, system.a11]]
    assert system.rhs.tolist() == [system.b0, system.b1]


@given(st.floats(min_value=-0.5, max_value=1.5), st.sampled_from([0.5, 2.0, 4.0]))
def test_balance_scales_linearly_with_spring_rate(zeta, c):
    base = default_parameters()
    scaled = base.with_values(spring_k=base.spring_k * c)
    try:
        a = solve_balance(base, zeta)
        b = solve_balance(scaled, zeta)
    except SingularSystemError:
        return
    assert math.isclose(b.xi_b, c * a.xi_b, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(b.beta_3b, c * a.beta_3b, rel_tol=1e-12, abs_tol=1e-12)
    assert a.sign_beta3 == b.sign_beta3


@pytest.mark.parametrize("zeta", [math.nan, math.inf, -math.inf])
def test_non_finite_press_direction_rejected(defaults, zeta):
    from linkstat import full_equilibrium

    with pytest.raises(ValueError, match="finite"):
        predict_opening(defaults, zeta)
    with pytest.raises(ValueError, match="finite"):
        full_equilibrium(defaults, zeta)


# Per-build terms: the press-independent entries are computed once per
# parameters object and reused while the same object is asked again.

_SCATTERED = ("l3", "l4", "theta2", "theta3", "spring_k", "mu")
_SCALES = st.lists(st.floats(min_value=0.6, max_value=1.4), min_size=6, max_size=6)


def _scattered(scales, mu_zero=False):
    base = default_parameters()
    p = base.with_values(**{f: getattr(base, f) * c for f, c in zip(_SCATTERED, scales)})
    return p.with_values(mu=0.0) if mu_zero else p


def _decision_bits(decision):
    """Every field of a verdict, its solution and its system; floats as hex."""
    fields = [decision.status, decision.blocked_reason, decision.required_force]
    if decision.forces is not None:
        fields += [decision.forces.f_rx, decision.forces.f_sx]
    sol = decision.solution
    if sol is not None:
        fields += [sol.xi_b, sol.beta_3b, sol.sign_beta3, sol.sign_consistent]
        fields += [getattr(sol.system, name) for name in _SYSTEM_FLOATS]
    return [f.hex() if isinstance(f, float) else f for f in fields]


@given(
    _SCALES,
    _SCALES,
    st.booleans(),
    st.lists(st.floats(min_value=-1.0, max_value=2.0), min_size=2, max_size=2),
)
def test_cached_terms_match_a_fresh_build(scales_a, scales_b, mu_zero, zetas):
    """Interleaved builds get the verdicts of a fresh copy, bit for bit.

    A fresh copy is a distinct object, so it always misses the cache;
    the calls below hit it (A after A) and miss it (A after B, and an
    equal but distinct copy of A).
    """
    a = _scattered(scales_a, mu_zero)
    b = _scattered(scales_b)
    z0, z1 = zetas
    calls = [(a, z0), (a, z1), (b, z0), (a, z1), (a, z0), (a.with_values(), z1)]
    expected = [_decision_bits(predict_opening(p.with_values(), z)) for p, z in calls]
    assert [_decision_bits(predict_opening(p, z)) for p, z in calls] == expected


_STATE_FIELDS = ("xi", "beta_3", "beta_6", "f_r1", "f_s4", "f_pin", "friction_sign",
                 "consistent", "residual")


def test_oracle_does_not_read_the_build_terms(defaults, monkeypatch):
    # Two builds, alternated, so that every call after the first builds
    # the oracle's own per-build stack afresh.  Each expected state comes
    # from an empty oracle cache.
    other = _scattered([1.1] * 6)
    calls = [(p, rad(z)) for z in (-15.0, 0.0, 60.0) for p in (defaults, other)]
    expected = []
    for p, z in calls:
        monkeypatch.setattr(statics, "_last_oracle_terms", None)
        expected.append(full_equilibrium(p, z))

    def refuse(p):
        raise AssertionError("per-build terms requested")

    monkeypatch.setattr(statics, "_build_terms", refuse)
    with pytest.raises(AssertionError, match="per-build terms"):
        predict_opening(defaults, 0.0)
    for (p, z), state in zip(calls, expected):
        got = full_equilibrium(p, z)
        for name in _STATE_FIELDS:
            assert getattr(got, name) == getattr(state, name), name


def test_spring_force_computed_once_per_sweep(monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return spring_force(p)

    monkeypatch.setattr("linkstat.model.spring_force", counted)
    curve = sweep(default_parameters().with_values())
    assert len(curve.samples) == 241
    assert len(calls) == 1


def test_minus_branch_terms_are_derived_with_the_build(monkeypatch):
    """Both branches' a11 are derived with the build's other terms, so a
    -1 retry reads them and calls no coupling function."""
    zetas = [rad(-15.0), rad(-12.5), 0.0]  # +1, +1, then a -1 retry
    expected = [_decision_bits(predict_opening(default_parameters(), z)) for z in zetas]

    def refuse(p, sign_beta3):
        raise AssertionError("coupling requested")

    monkeypatch.setattr(statics, "friction_coupling", refuse)
    p = default_parameters().with_values()
    terms = statics._build_terms(p)
    assert (terms.plus, terms.minus) == (terms.branch(1), terms.branch(-1))
    assert [_decision_bits(predict_opening(p, z)) for z in zetas] == expected
    assert predict_opening(p, 0.0).sign_beta3 == -1


def test_cache_entry_stays_whole_when_another_build_cuts_in(monkeypatch):
    """A verdict on build B computed while A's terms are being built.

    This is where a thread switch would land between reading the cache
    and storing A's terms; afterwards B must still get B's verdicts.
    """
    a, b = _scattered([1.1] * 6), _scattered([0.9] * 6)
    zeta = rad(5.0)
    expected = {id(p): _decision_bits(predict_opening(p.with_values(), zeta)) for p in (a, b)}
    cut_in = []

    def spring_force_cut_in(p):
        if p is a and not cut_in:
            cut_in.append(_decision_bits(predict_opening(b, zeta)))
        return spring_force(p)

    monkeypatch.setattr("linkstat.model.spring_force", spring_force_cut_in)
    statics._build_terms(a)
    assert cut_in == [expected[id(b)]]
    assert _decision_bits(predict_opening(b, zeta)) == expected[id(b)]
    assert _decision_bits(predict_opening(a, zeta)) == expected[id(a)]


# The scalar kernel: one copy of the decision, which predict_opening and
# solve_balance only repackage.

_ALL_FIELDS = ("l0", "l1", "l2", "l3", "l4", "theta0", "theta1", "theta2",
               "theta3", "theta4", "theta5", "spring_k", "natural_length", "mu")


def _hex(value):
    return value.hex() if isinstance(value, float) else value


@given(
    st.lists(st.floats(min_value=-0.5, max_value=0.5), min_size=14, max_size=14),
    st.integers(min_value=0, max_value=9),
    st.floats(min_value=-math.pi / 2, max_value=math.pi / 2),
)
def test_kernel_equals_the_object_path(scales, pick, zeta):
    """Every field of the kernel tuple, bit for bit, against the wrappers
    and against a verdict rebuilt from the pinned-branch solver."""
    base = default_parameters()
    p = base.with_values(
        **{name: getattr(base, name) * (1.0 + s) for name, s in zip(_ALL_FIELDS, scales)}
    )
    if pick == 0:  # one build in ten without friction
        p = p.with_values(mu=0.0)
    code, xi, beta, branch, det, a00, a10, f_rx, f_sx = statics._decide(p, zeta)
    decision = predict_opening(p, zeta)
    assert (decision.status, decision.blocked_reason) == statics._VERDICT_ENUMS[code]

    # The pinned-branch solver repackages the kernel's pinned verdict,
    # field for field, on either branch.
    for sign in (1, -1):
        pinned = statics._decide_all(p, (zeta,), sign)[0]
        assert pinned[3] == sign
        if pinned[0] == statics._SINGULAR:
            with pytest.raises(SingularSystemError) as raised:
                solve_balance_with_sign(p, zeta, sign)
            assert str(raised.value) == str(statics._singular_error(zeta, pinned[4]))
            continue
        sol = solve_balance_with_sign(p, zeta, sign)
        forces = perturbed_joint_forces(p, zeta, sol)
        got = [sol.xi_b, sol.beta_3b, sol.sign_beta3, sol.system.det, sol.system.a00,
               sol.system.a10, forces.f_rx, forces.f_sx]
        assert [_hex(v) for v in got] == [_hex(v) for v in pinned[1:]]
        assert sol.sign_consistent == ((sol.beta_3b >= 0.0) == (sign == 1))

    if code == statics._SINGULAR:
        assert decision.solution is None and decision.forces is None
        with pytest.raises(SingularSystemError) as raised:
            solve_balance(p, zeta)
        assert f"(det = {det:.3e})" in str(raised.value)
        with pytest.raises(SingularSystemError):
            solve_balance_with_sign(p, zeta, branch)
        return

    for sol in (decision.solution, solve_balance(p, zeta)):
        system = sol.system
        got = [sol.xi_b, sol.beta_3b, sol.sign_beta3, system.det, system.a00, system.a10]
        assert [_hex(v) for v in got] == [_hex(v) for v in (xi, beta, branch, det, a00, a10)]
    assert [_hex(decision.forces.f_rx), _hex(decision.forces.f_sx)] == [_hex(f_rx), _hex(f_sx)]
    assert decision.required_force == (xi if code == statics._OPENS else None)

    # The same verdict from the pinned-branch solver, whose +1 answer
    # alone decides the branch, and the probe forces.
    plus = solve_balance_with_sign(p, zeta, 1)
    assert (branch == 1) == (plus.beta_3b >= 0.0)
    pinned = solve_balance_with_sign(p, zeta, branch)
    forces = perturbed_joint_forces(p, zeta, pinned)
    rebuilt = [pinned.xi_b, pinned.beta_3b, pinned.system.det, pinned.system.a00,
               pinned.system.a10, forces.f_rx, forces.f_sx]
    assert [_hex(v) for v in rebuilt] == [_hex(v) for v in (xi, beta, det, a00, a10, f_rx, f_sx)]
    if xi < 0.0:
        assert code == statics._NEGATIVE_XI
    elif f_rx <= 0.0 and f_sx >= 0.0:
        assert code == statics._OPENS
    else:
        assert code == statics._CONTACT_MAINTAINED


@given(
    st.lists(st.floats(min_value=-0.2, max_value=0.2), min_size=14, max_size=14),
    st.floats(min_value=-math.pi / 2, max_value=math.pi / 2),
)
@example([0.0] * 14, rad(-15.0))
def test_press_entries_have_one_derivation(scales, zeta):
    """a00 and a10 of the envelope's sign functions, of the kernel and of
    assemble_system are one closed form, so they agree bit for bit."""
    base = default_parameters()
    p = base.with_values(
        **{name: getattr(base, name) * (1.0 + s) for name, s in zip(_ALL_FIELDS, scales)}
    )
    (c00, s00, *_), (c10, s10, *_) = _sign_functions(p)[:2]
    closed = [c00 * math.cos(zeta) + s00 * math.sin(zeta),
              c10 * math.cos(zeta) + s10 * math.sin(zeta)]
    verdict = statics._decide(p, zeta)
    system = assemble_system(p, zeta, verdict[3])
    for entries in (verdict[5:7], (system.a00, system.a10)):
        assert [_hex(v) for v in entries] == [_hex(v) for v in closed]


def test_kernel_singular_case(defaults):
    # theta1 == theta3 at zeta == theta1 zeroes the whole first row.
    p = defaults.with_values(theta3=defaults.theta1)
    verdict = statics._decide(p, defaults.theta1)
    assert verdict[0] == statics._SINGULAR
    assert verdict[4] == 0.0  # det
    message = "balance matrix is singular at press direction 9 deg (det = 0.000e+00)"
    for solve in (lambda: solve_balance(p, defaults.theta1),
                  lambda: solve_balance_with_sign(p, defaults.theta1, 1),
                  lambda: solve_balance_with_sign(p, defaults.theta1, -1)):
        with pytest.raises(SingularSystemError) as raised:
            solve()
        assert str(raised.value) == message


# The batch kernel against the object route: each friction branch's
# system from assemble_system, solved here by Cramer's rule under the
# singular floor's hypot rule alone, and the probe forces from
# perturbed_joint_forces.

def _object_verdict(p, zeta):
    """The kernel tuple rebuilt without the kernel."""
    nan = math.nan
    for branch in (1, -1):
        system = assemble_system(p, zeta, branch)
        a00, a01, a10, a11, b0, b1 = system
        det = system.det
        row_scale = max(math.hypot(a00, a01), math.hypot(a10, a11))
        if det == 0.0 or abs(det) < statics._DET_RELATIVE_FLOOR * row_scale * row_scale:
            return (statics._SINGULAR, nan, nan, branch, det, a00, a10, nan, nan)
        xi, beta = (b0 * a11 - a01 * b1) / det, (a00 * b1 - a10 * b0) / det
        if beta >= 0.0:
            break
    forces = perturbed_joint_forces(
        p, zeta, statics.BalanceSolution(xi, beta, branch, beta >= 0.0, system))
    if xi < 0.0:
        code = statics._NEGATIVE_XI
    elif forces.f_rx <= 0.0 and forces.f_sx >= 0.0:
        code = statics._OPENS
    else:
        code = statics._CONTACT_MAINTAINED
    return (code, xi, beta, branch, det, a00, a10, forces.f_rx, forces.f_sx)


def _batch_matches_object_route(p, zetas):
    verdicts = statics._decide_all(p, zetas)
    assert len(verdicts) == len(zetas)
    for zeta, verdict in zip(zetas, verdicts):
        assert [_hex(v) for v in verdict] == [_hex(v) for v in _object_verdict(p, zeta)], zeta
    return verdicts


def test_batch_matches_the_object_route_on_a_mixed_list(defaults):
    # theta3 == theta1 makes the press direction theta1 singular.
    p = defaults.with_values(theta3=defaults.theta1)
    zetas = [rad(-15.0), rad(-5.0), 0.0, defaults.theta1, rad(10.0), rad(5.0), rad(60.0)]
    verdicts = _batch_matches_object_route(p, zetas)
    assert {v[0] for v in verdicts} == {statics._OPENS, statics._NEGATIVE_XI,
                                        statics._CONTACT_MAINTAINED, statics._SINGULAR}
    assert {v[3] for v in verdicts if v[0] != statics._SINGULAR} == {1, -1}


def _flip(pred, a, b):
    """Adjacent floats between ``a`` and ``b`` where ``pred`` turns from true to false."""
    while True:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            return a, b
        a, b = (mid, b) if pred(mid) else (a, mid)


def _floor_straddles(p, lo, hi):
    """Press directions in [lo, hi] on both sides of each edge of every
    det's singular band, at float resolution, plus an even spread."""
    grid = [lo + (hi - lo) * i / 240 for i in range(241)]
    points = list(grid)
    for branch in (1, -1):
        def det(z):
            return assemble_system(p, z, branch).det

        def below_floor(z):
            s = assemble_system(p, z, branch)
            row_scale = max(math.hypot(s.a00, s.a01), math.hypot(s.a10, s.a11))
            return s.det == 0.0 or abs(s.det) < statics._DET_RELATIVE_FLOOR * row_scale * row_scale

        for a, b in zip(grid, grid[1:]):
            side = det(a) >= 0.0
            if (det(b) >= 0.0) == side:
                continue
            root = _flip(lambda z: (det(z) >= 0.0) == side, a, b)[0]
            for end in (a, b):
                if below_floor(root) and not below_floor(end):
                    inside, outside = _flip(below_floor, root, end)
                    points += [math.nextafter(inside, root), inside, outside,
                               math.nextafter(outside, end)]
    return points


def _pre_test_fails(p, verdict):
    """Whether the sum-of-squares pre-test left this verdict to the hypot rule."""
    det, a00, a10 = verdict[4], verdict[5], verdict[6]
    system = assemble_system(p, 0.0, verdict[3])  # for a01 and a11, which ignore zeta
    sum_sq = a00 * a00 + system.a01 * system.a01 + a10 * a10 + system.a11 * system.a11
    return not abs(det) > statics._DET_SAFE_FLOOR * sum_sq


@pytest.mark.parametrize("frictionless", [True, False])
def test_singular_pre_test_agrees_with_the_hypot_rule(defaults, frictionless):
    # The nearly cancelled build of test_envelope_with_a_nearly_cancelled_det:
    # every term of det is ~1e-6 while the row scale stays O(1).
    p = defaults.with_values(
        theta3=defaults.theta1 + 3e-7,
        theta4=defaults.theta2 + 9e-7,
        **({"mu": 0.0} if frictionless else {}),
    )
    verdicts = _batch_matches_object_route(p, _floor_straddles(p, rad(-30.0), rad(90.0)))
    assert any(v[0] == statics._SINGULAR for v in verdicts)
    assert any(v[0] != statics._SINGULAR and _pre_test_fails(p, v) for v in verdicts)


@pytest.mark.parametrize("theta4_ratio", [0.05, 2.0])
@pytest.mark.parametrize("scale,floor_is_zero", [(1e-150, False), (1e-155, False),
                                                 (1e-157, True)])
def test_singular_pre_test_toward_underflow(defaults, scale, floor_is_zero, theta4_ratio):
    # With theta1 = theta2 = 0 and the other angles, l4 and the press
    # direction all of order ``scale``, every entry of the 2x2 balance is
    # of order ``scale``, so the squares and the floor reach subnormals.
    # At 1e-157 the floor rounds to zero and only det == 0 is singular.
    # The small theta4 makes the first row the larger at the band edges,
    # the large one the second, so each entry's square counts somewhere.
    p = defaults.with_values(theta1=0.0, theta2=0.0, theta3=0.3 * scale,
                             theta4=theta4_ratio * scale, l4=2.0 * scale)
    verdicts = _batch_matches_object_route(p, _floor_straddles(p, -scale, scale))
    assert any(v[0] == statics._SINGULAR for v in verdicts)
    if floor_is_zero:
        assert all((v[0] == statics._SINGULAR) == (v[4] == 0.0) for v in verdicts)
    else:
        assert any(v[0] != statics._SINGULAR and _pre_test_fails(p, v) for v in verdicts)


def test_singular_pre_test_toward_overflow(defaults):
    # Lengths of 1e160 mm put a00 and a10 near 1e159, whose squares overflow.
    p = defaults.with_values(l3=defaults.l3 * 1e160, l4=defaults.l4 * 1e160)
    zetas = _floor_straddles(p, rad(-30.0), rad(90.0))
    for verdict in _batch_matches_object_route(p, zetas):
        assert verdict[5] * verdict[5] == math.inf or verdict[6] * verdict[6] == math.inf


@given(
    st.lists(st.floats(min_value=-1.5, max_value=1.5), max_size=40),
    st.integers(min_value=0, max_value=40),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
@example([0.0, rad(5.0), rad(10.0)], 2, math.nan)
def test_batch_rejects_a_non_finite_press_direction(zetas, at, bad):
    zetas.insert(min(at, len(zetas)), bad)
    with pytest.raises(ValueError) as raised:
        statics._decide_all(default_parameters(), zetas)
    assert str(raised.value) == f"press direction must be finite, got {bad!r}"


def test_batch_of_no_press_directions(defaults):
    assert statics._decide_all(defaults, []) == []


# The kernel reads the build's terms once per call, from one tuple, and
# fetches the -1 branch's a11 at the first point that needs it.  Builds
# scattered +-50 %, one in ten frictionless, against the object route;
# the same points regrouped so that every +1 verdict comes first, which
# leaves the -1 branch first needed mid-list whenever a list has both.

def _scattered_wide(scales, frictionless):
    base = default_parameters()
    p = base.with_values(**{f: getattr(base, f) * c for f, c in zip(_ALL_FIELDS, scales)})
    return p.with_values(mu=0.0) if frictionless else p


@settings(deadline=None)
@given(
    st.lists(st.floats(min_value=0.5, max_value=1.5), min_size=14, max_size=14),
    st.integers(min_value=0, max_value=9),
    st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=1, max_size=40),
)
@example([1.0] * 14, 1, [rad(-15.0), rad(-12.5), 0.0, rad(-15.0), rad(5.0)])
def test_batch_reads_each_build_once_per_call(scales, pick, zetas):
    p = _scattered_wide(scales, frictionless=pick == 0)
    verdicts = _batch_matches_object_route(p, zetas)
    by_point = dict(zip(zetas, verdicts))
    regrouped = sorted(zetas, key=lambda z: -by_point[z][3])
    # A second call on the same object reads the cached terms; a copy
    # builds its own.
    for build in (p, p.with_values()):
        again = statics._decide_all(build, regrouped)
        assert [[_hex(v) for v in verdict] for verdict in again] == [
            [_hex(v) for v in by_point[z]] for z in regrouped]


# The 2x2 balance refuses a build by the validate line of its first
# violation, so no division it makes is by zero and no verdict is read
# off a non-finite term.

def _refused_by(p, text):
    """Assert that every fast-route entry point refuses ``p`` with ``text``,
    the first line of its validation report."""
    assert validate_parameters(p).describe().split("\n")[0] == text
    for call in (lambda: predict_opening(p, 0.0), lambda: solve_balance(p, 0.0),
                 lambda: statics._decide_all(p, [0.0, 0.1]), lambda: sweep(p),
                 lambda: envelope(p), lambda: switching_threshold(p, 0.0)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == text


@pytest.mark.parametrize(
    "changes,text",
    [
        ({"l1": 0.0}, "l1: must be positive, got 0.0"),
        ({"l2": 0.0}, "l2: must be positive, got 0.0"),
        ({"theta2": -rad(15.0)},
         "theta2: theta2 + theta3 = 0.0 makes sin(theta2+theta3) vanish; the coupler "
         "transmits no moment (degenerate pair theta2, theta3)"),
    ],
    ids=["l1", "l2", "theta2=-theta3"],
)
def test_zero_divisor_of_the_build_is_named(defaults, changes, text):
    _refused_by(defaults.with_values(**changes), text)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", statics.LinkageParameters._fields)
def test_non_finite_field_of_the_build_is_named(defaults, name, value):
    _refused_by(defaults.with_values(**{name: value}), f"{name}: must be finite, got {value!r}")


@pytest.mark.parametrize(
    "changes,text",
    [
        ({"l1": 1e-320}, "l1: l0/l1 = 10.93/1e-320 times the spring force overflows "
                         "the spring moments (b0 = inf, b1 = -inf)"),
        ({"l2": 5e-324}, "l2: l2*sin(theta2+theta3) = 5e-324 with l2 = 5e-324: "
                         "|l3| + |l4| = 25.039814565722672 over it overflows the tip "
                         "moment ratio"),
        ({"l0": 1e308, "spring_k": 1e308}, "l1: l0/l1 = 1e+308/24.0 times the spring "
                                           "force overflows the spring moments "
                                           "(b0 = inf, b1 = -inf)"),
    ],
    ids=["l1", "l2", "l0-spring_k"],
)
def test_build_whose_terms_overflow_is_refused(defaults, changes, text):
    _refused_by(defaults.with_values(**changes), text)


def test_finite_fields_whose_sum_overflows_still_build_terms(defaults):
    # No rule reads a sum over the fields: a valid build whose fields sum
    # to inf derives finite terms, and l3 = l4 = 1e308 is refused by the
    # tip moment rule, whose |l3| + |l4| overflows.
    p = defaults.with_values(theta2=1e-310, mu=1e308, epsilon=1e308)
    assert sum(p) == math.inf and validate_parameters(p).ok
    assert all(math.isfinite(v) for v in statics._build_terms(p).kernel)
    huge = defaults.with_values(l3=1e308, l4=1e308)
    assert sum(huge) == math.inf
    _refused_by(huge, "l2: l2*sin(theta2+theta3) = 6.623243823744698 with l2 = 12.0: "
                      "|l3| + |l4| = inf over it overflows the tip moment ratio")


@pytest.mark.parametrize("sign", [1, -1])
def test_zero_friction_denominator_is_named_on_first_use(defaults, sign):
    # At mu = cot(theta2) the +1 branch's denominator is zero; with theta2
    # negated, the -1 branch's is.  Either branch is derived with the
    # build, so the first use of the build names its self-lock.
    t2 = sign * defaults.theta2
    p = defaults.with_values(theta2=t2, mu=sign * math.cos(t2) / math.sin(t2))
    _refused_by(p, f"mu: mu = 2.988684962742893 with theta2 = {t2!r} self-locks the "
                   f"slotted pin on the {sign:+d} branch (mu >= cot|theta2|, so "
                   "-s*mu*sin(theta2) + cos(theta2) <= 0)")


_FIELD_NAMES = statics.LinkageParameters._fields
_TOTALITY_SPEC = DesignSpec(
    interval_lo=rad(-10.0), interval_hi=rad(15.0), press_angle=0.0,
    threshold_lo=3.0, threshold_hi=8.0, free=("theta2",),
    bounds={"theta2": (rad(10.0), rad(30.0))},
)
_EDGE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e300, -1e300, -1.0, 5e-324]),
    st.floats(min_value=-1e300, max_value=1e300),
)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(st.sampled_from(_FIELD_NAMES), _EDGE_VALUES, min_size=1, max_size=5),
    st.floats(min_value=-1.5, max_value=1.5),
)
@example({"l1": 0.0}, 0.0)
@example({"l1": 1e-320}, 0.0)
@example({"l2": 5e-324}, 0.0)
@example({"l2": 1.3239771654038585e-221}, 0.0)  # the envelope's sizes overflow when squared
@example({"theta2": 0.0, "theta3": 0.0}, 0.3)
def test_every_entry_point_is_total_on_finite_builds(changes, zeta):
    """Each call returns or raises one of the documented errors."""
    p = default_parameters().with_values(**changes)
    calls = [
        lambda: predict_opening(p, zeta),
        lambda: solve_balance(p, zeta),
        lambda: sweep(p, -0.5, 1.5, 0.05),
        lambda: envelope(p, -0.5, 1.5, 0.05),
        lambda: switching_threshold(p, zeta),
        lambda: full_equilibrium(p, zeta),
        lambda: full_equilibrium(p, zeta, 1),
        lambda: compare_measurements(p, (Measurement(zeta, 5.0), Measurement(0.0, 2.0))),
        lambda: solve_balance_with_sign(p, zeta, 1),
        lambda: solve_balance_with_sign(p, zeta, -1),
        lambda: evaluate_design(_TOTALITY_SPEC._replace(press_angle=zeta), p),
        lambda: sensitivity(p, next(iter(changes)), zeta),
    ]
    for call in calls:
        try:
            call()
        except (ValueError, SingularSystemError, NotOpeningError):
            pass
