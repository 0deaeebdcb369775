import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import linkstat.statics as statics
from linkstat import (
    BlockedReason,
    OpeningStatus,
    SingularSystemError,
    assemble_system,
    default_parameters,
    friction_coupling,
    full_equilibrium,
    perturbed_joint_forces,
    predict_opening,
    solve_balance,
    solve_balance_with_sign,
    spring_force,
    sweep,
    tip_moment_ratio,
)

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


_SYSTEM_FLOATS = ("a00", "a01", "a10", "a11", "b0", "b1", "tip_ratio", "coupling", "spring_load")


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
    system, fresh = sol.system, pinned.system
    assert system.sign_beta3 == fresh.sign_beta3 == -1
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
    assert system.sign_beta3 == 1
    assert math.isclose(system.spring_load, SPRING_FORCE_REF, rel_tol=1e-6)


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
        fields += [getattr(sol.system, name) for name in (*_SYSTEM_FLOATS, "sign_beta3")]
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
    calls = [(a, z0), (a, z1), (b, z0), (a, z1), (a, z0), (dataclasses.replace(a), z1)]
    expected = [_decision_bits(predict_opening(dataclasses.replace(p), z)) for p, z in calls]
    assert [_decision_bits(predict_opening(p, z)) for p, z in calls] == expected


@given(_SCALES, st.booleans(), st.floats(min_value=-1.0, max_value=2.0), st.sampled_from([1, -1]))
def test_hoisted_terms_match_public_helpers(scales, mu_zero, zeta, sign):
    p = _scattered(scales, mu_zero)
    for system in (assemble_system(p, zeta, sign), solve_balance(p, zeta).system):
        assert system.tip_ratio.hex() == tip_moment_ratio(p, zeta).hex()
        assert system.coupling.hex() == friction_coupling(p, system.sign_beta3).hex()
        assert system.spring_load.hex() == spring_force(p).hex()


_STATE_FIELDS = ("xi", "beta_3", "beta_6", "f_r1", "f_s4", "f_pin", "friction_sign",
                 "consistent", "residual")


def test_oracle_does_not_read_the_build_terms(defaults, monkeypatch):
    zetas = [rad(z) for z in (-15.0, 0.0, 60.0)]
    expected = [full_equilibrium(defaults, z) for z in zetas]

    def refuse(p):
        raise AssertionError("per-build terms requested")

    monkeypatch.setattr(statics, "_build_terms", refuse)
    with pytest.raises(AssertionError, match="per-build terms"):
        predict_opening(defaults, 0.0)
    for z, state in zip(zetas, expected):
        got = full_equilibrium(defaults, z)
        for name in _STATE_FIELDS:
            assert getattr(got, name) == getattr(state, name), name


def test_spring_force_computed_once_per_sweep(monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return spring_force(p)

    monkeypatch.setattr(statics, "spring_force", counted)
    curve = sweep(dataclasses.replace(default_parameters()))
    assert len(curve.samples) == 241
    assert len(calls) == 1


def test_minus_branch_terms_are_computed_on_first_retry(monkeypatch):
    """A build whose verdicts stay on the +1 branch never asks for the -1 terms."""
    zetas = [rad(-15.0), rad(-12.5)]  # both on the +1 branch
    expected = [_decision_bits(predict_opening(default_parameters(), z)) for z in zetas]

    def plus_only(p, sign_beta3):
        if sign_beta3 == -1:
            raise RuntimeError("-1 branch requested")
        return friction_coupling(p, sign_beta3)

    monkeypatch.setattr(statics, "friction_coupling", plus_only)
    p = dataclasses.replace(default_parameters())
    assert [_decision_bits(predict_opening(p, z)) for z in zetas] == expected
    with pytest.raises(RuntimeError, match="-1 branch"):
        predict_opening(p, 0.0)  # the -1 retry



def test_cache_entry_stays_whole_when_another_build_cuts_in(monkeypatch):
    """A verdict on build B computed while A's terms are being built.

    This is where a thread switch would land between reading the cache
    and storing A's terms; afterwards B must still get B's verdicts.
    """
    a, b = _scattered([1.1] * 6), _scattered([0.9] * 6)
    zeta = rad(5.0)
    expected = {id(p): _decision_bits(predict_opening(dataclasses.replace(p), zeta)) for p in (a, b)}
    cut_in = []

    def spring_force_cut_in(p):
        if p is a and not cut_in:
            cut_in.append(_decision_bits(predict_opening(b, zeta)))
        return spring_force(p)

    monkeypatch.setattr(statics, "spring_force", spring_force_cut_in)
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
        assert system.sign_beta3 == branch
    assert [_hex(decision.forces.f_rx), _hex(decision.forces.f_sx)] == [_hex(f_rx), _hex(f_sx)]
    assert decision.required_force == (xi if code == statics._OPENS else None)

    # The same verdict from the pinned-branch solver and the probe forces,
    # which do not go through the kernel.
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


def test_kernel_singular_case(defaults):
    # theta1 == theta3 at zeta == theta1 zeroes the whole first row.
    p = defaults.with_values(theta3=defaults.theta1)
    verdict = statics._decide(p, defaults.theta1)
    assert verdict[0] == statics._SINGULAR
    assert verdict[4] == 0.0  # det
    message = "balance matrix is singular at press direction 9 deg (det = 0.000e+00)"
    with pytest.raises(SingularSystemError) as raised:
        solve_balance(p, defaults.theta1)
    assert str(raised.value) == message
