"""Cross-checks between the aggregated balance and the raw member balances.

The two solvers share no assembly code, so agreement pins down both: any
sign slip or dropped term in either route shows up as a mismatch here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkstat import (
    SingularSystemError,
    default_parameters,
    friction_coupling,
    full_equilibrium,
    solve_balance,
    spring_force,
    tip_moment_ratio,
)

PERTURBED_FIELDS = (
    "l0", "l1", "l2", "l3", "l4",
    "theta0", "theta1", "theta2", "theta3", "theta4", "theta5",
    "spring_k", "natural_length", "mu",
)

STATE_FIELDS = ("xi", "beta_3", "beta_6", "f_r1", "f_s4", "f_pin",
                "friction_sign", "consistent", "residual")


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def perturbed(rng: np.random.Generator):
    base = default_parameters()
    factors = rng.uniform(0.9, 1.1, size=len(PERTURBED_FIELDS))
    return base.with_values(
        **{name: getattr(base, name) * f for name, f in zip(PERTURBED_FIELDS, factors)}
    )


def both_routes(p, zeta):
    """Solve both ways; returns None when either route is ill-posed."""
    try:
        sol = solve_balance(p, zeta)
    except SingularSystemError:
        return None
    if not sol.sign_consistent:
        return None
    state = full_equilibrium(p, zeta, sol.sign_beta3)
    if not state.consistent:
        return None
    return sol, state


def test_routes_agree_at_reference_directions(defaults):
    for zeta_deg in (-25.0, -15.0, -5.0, 0.0, 5.0, 12.0, 19.0, 30.0, 55.0):
        pair = both_routes(defaults, math.radians(zeta_deg))
        assert pair is not None, f"ill-posed at {zeta_deg} deg"
        sol, state = pair
        assert rel(sol.xi_b, state.xi) < 1e-11, zeta_deg
        assert rel(sol.beta_3b, state.beta_3) < 1e-11, zeta_deg


def test_raw_route_recovers_the_coupling(defaults):
    # The slotted strut force must relate to the coupler force through
    # the same transmission factor the aggregated route uses.
    for zeta_deg in (-20.0, -8.0, 0.0, 8.0, 16.0):
        pair = both_routes(defaults, math.radians(zeta_deg))
        assert pair is not None
        sol, state = pair
        lam = friction_coupling(defaults, sol.sign_beta3)
        assert rel(state.beta_6, lam * state.beta_3) < 1e-10


def test_raw_residual_is_tiny(defaults):
    state = full_equilibrium(defaults, 0.0)
    assert state.residual < 1e-12
    assert state.consistent


def test_raw_friction_sign_opposes_strut_force(defaults):
    sol = solve_balance(defaults, 0.0)
    state = full_equilibrium(defaults, 0.0, sol.sign_beta3)
    assert state.friction_sign == -sol.sign_beta3


def test_raw_route_without_hint(defaults):
    hinted = full_equilibrium(defaults, 0.0, solve_balance(defaults, 0.0).sign_beta3)
    free = full_equilibrium(defaults, 0.0)
    assert rel(hinted.xi, free.xi) < 1e-12


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=-0.55, max_value=1.6))
def test_routes_agree_on_perturbed_linkages(seed, zeta):
    p = perturbed(np.random.default_rng(seed))
    pair = both_routes(p, zeta)
    if pair is None:
        return
    sol, state = pair
    assert rel(sol.xi_b, state.xi) < 1e-9
    assert rel(sol.beta_3b, state.beta_3) < 1e-9


def test_joint_reactions_balance_the_tip_load(defaults):
    # Sanity on the raw state itself: summing the member balances must
    # reproduce the applied tip force components on the left strut.
    zeta = math.radians(5.0)
    state = full_equilibrium(defaults, zeta)
    p = defaults
    s3, c3 = math.sin(p.theta3), math.cos(p.theta3)
    gamma = (p.l4 * math.cos(zeta) - p.l3 * math.sin(p.theta2 + zeta)) / (
        p.l2 * math.sin(p.theta2 + p.theta3)
    )
    fx = state.f_r1[0] + state.xi * (gamma * s3 + math.sin(zeta)) + state.beta_3 * s3
    fy = state.f_r1[1] + state.xi * (gamma * c3 + math.cos(zeta)) + state.beta_3 * c3
    assert abs(fx) < 1e-9
    assert abs(fy) < 1e-9


def test_raw_route_singular_matrix(defaults):
    p = defaults.with_values(theta2=0.0, theta3=0.0, mu=0.0)
    # theta2 = -theta3 = 0 collapses the coupler geometry; the raw matrix
    # degenerates as well (division by sin(theta2+theta3) happens first).
    with pytest.raises(SingularSystemError):
        full_equilibrium(p, 0.3)


@pytest.mark.parametrize(
    "changes",
    [{"l2": 0.0}, {"theta2": -math.radians(15.0)}],
    ids=["l2-zero", "theta2-minus-theta3"],
)
def test_zero_moment_arm_names_the_press_direction(defaults, changes):
    with pytest.raises(
        SingularSystemError,
        match=r"at press direction 17\.1887 deg: the coupler moment arm "
        r"l2\*sin\(theta2\+theta3\) is zero",
    ):
        full_equilibrium(defaults.with_values(**changes), 0.3)


def test_singular_rows_keep_their_message(defaults):
    # l1 = 0 empties both strut moment rows; LAPACK finds the stack singular.
    with pytest.raises(SingularSystemError) as err:
        full_equilibrium(defaults.with_values(l1=0.0), 0.3)
    assert str(err.value) == "raw equilibrium is singular at press direction 17.1887 deg"


def test_non_finite_solution_is_singular(defaults):
    # l1 = 1e-320 solves into xi = nan and f_pin = (inf, inf).
    with pytest.raises(SingularSystemError, match="the solution is not finite"):
        full_equilibrium(defaults.with_values(l1=1e-320), 0.0)


def test_non_finite_rows_are_singular(defaults):
    # A subnormal coupler length overflows the tip moment ratio; the
    # solve then gives finite forces with a nan residual.
    with pytest.raises(SingularSystemError, match="the balance rows are not finite"):
        full_equilibrium(defaults.with_values(l2=5e-324), 0.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf])
@pytest.mark.parametrize("name", default_parameters()._fields)
def test_infinite_field_is_refused_as_a_nan_one_is(defaults, name, value):
    # An infinite angle used to raise math.sin's bare "math domain error";
    # now every field refuses (or, for epsilon, which the oracle does not
    # read, answers) with an infinity exactly as with a nan.
    def outcome(field_value):
        try:
            return repr(full_equilibrium(defaults.with_values(**{name: field_value}), 0.3))
        except SingularSystemError as exc:
            return str(exc)

    expected = outcome(math.nan)
    assert outcome(value) == expected
    if name != "epsilon":
        assert expected == ("raw equilibrium is singular at press direction 17.1887 deg: "
                            "the balance rows are not finite")


def test_equilibrium_state_is_an_immutable_named_tuple(defaults):
    state = full_equilibrium(defaults, 0.0)
    assert state._fields == STATE_FIELDS
    with pytest.raises(AttributeError):
        state.xi = 1.0
    assert repr(state) == (
        f"EquilibriumState(xi={state.xi!r}, beta_3={state.beta_3!r}, "
        f"beta_6={state.beta_6!r}, f_r1={state.f_r1!r}, f_s4={state.f_s4!r}, "
        f"f_pin={state.f_pin!r}, friction_sign={state.friction_sign!r}, "
        f"consistent={state.consistent!r}, residual={state.residual!r})"
    )
    assert state == full_equilibrium(defaults, 0.0)


# The oracle as it was written before its rows were stacked: one zeroed
# 9x9 system per slip sense, two solves and numpy reductions.  The
# stacked route must give every field of it bit for bit.

def _reference_rows(p, zeta, slip_sign):
    s1, c1 = math.sin(p.theta1), math.cos(p.theta1)
    s2, c2 = math.sin(p.theta2), math.cos(p.theta2)
    s3, c3 = math.sin(p.theta3), math.cos(p.theta3)
    s4, c4 = math.sin(p.theta4), math.cos(p.theta4)
    gamma = tip_moment_ratio(p, zeta)
    f_k = spring_force(p)
    a = np.zeros((9, 9), dtype=float)
    b = np.zeros(9, dtype=float)
    a[0, 3] = 1.0
    a[0, 0] = gamma * s3 + math.sin(zeta)
    a[0, 1] = s3
    a[1, 4] = 1.0
    a[1, 0] = gamma * c3 + math.cos(zeta)
    a[1, 1] = c3
    a[2, 4] = p.l1 * s1
    a[2, 3] = -p.l1 * c1
    b[2] = -p.l0 * math.cos(p.theta0 + p.theta1) * f_k
    a[3, 5] = 1.0
    a[3, 0] = -gamma * s3
    a[3, 2] = s2
    a[4, 6] = 1.0
    a[4, 0] = -gamma * c3
    a[4, 2] = -c2
    a[5, 6] = -p.l1 * s4
    a[5, 5] = -p.l1 * c4
    b[5] = p.l0 * math.cos(p.theta4 + p.theta5) * f_k
    a[6, 7] = 1.0
    a[6, 1] = s3
    a[6, 2] = s2
    a[7, 8] = 1.0
    a[7, 1] = c3
    a[7, 2] = -c2
    a[8, 8] = 1.0
    a[8, 7] = -p.mu * float(slip_sign)
    return a, b


def _reference_equilibrium(p, zeta, sign_beta3=None):
    preferred = -sign_beta3 if sign_beta3 is not None else None
    branches = {}
    consistent_signs = []
    for slip in (1, -1):
        a, b = _reference_rows(p, zeta, slip)
        x = np.linalg.solve(a, b)
        defect = a @ x - b
        scale = max(1.0, float(np.max(np.abs(b))), float(np.max(np.abs(x))))
        branches[slip] = (x, float(np.max(np.abs(defect))) / scale)
        pin_x = float(x[7])
        if slip * pin_x >= -1e-9 * max(1.0, abs(pin_x)):
            consistent_signs.append(slip)
    if not consistent_signs:
        chosen = preferred if preferred in branches else 1
    elif len(consistent_signs) == 1:
        chosen = consistent_signs[0]
    elif preferred in consistent_signs:
        chosen = preferred
    else:
        chosen = next(
            (s for s in consistent_signs if s == -(1 if float(branches[s][0][1]) >= 0.0 else -1)),
            consistent_signs[0],
        )
    x, residual = branches[chosen]
    return (
        float(x[0]), float(x[1]), float(x[2]),
        (float(x[3]), float(x[4])), (float(x[5]), float(x[6])), (float(x[7]), float(x[8])),
        chosen, bool(consistent_signs), residual,
    )


def _bits(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


@settings(max_examples=150)
@given(
    st.lists(st.floats(min_value=0.7, max_value=1.3), min_size=14, max_size=14),
    st.sampled_from(["scattered", "theta3=theta1", "mu=0"]),
    st.lists(st.floats(min_value=-1.2, max_value=1.8), min_size=1, max_size=4),
)
def test_stacked_solve_equals_two_separate_solves(scales, case, zetas):
    base = default_parameters()
    p = base.with_values(**{f: getattr(base, f) * c for f, c in zip(PERTURBED_FIELDS, scales)})
    if case == "theta3=theta1":
        p = p.with_values(theta3=p.theta1)
    elif case == "mu=0":
        p = p.with_values(mu=0.0)
    for zeta in zetas:
        for hint in (None, 1, -1):
            expected = _reference_equilibrium(p, zeta, hint)
            assert math.isfinite(expected[-1])
            state = full_equilibrium(p, zeta, hint)
            assert _bits(tuple(getattr(state, name) for name in STATE_FIELDS)) == _bits(expected)


# The per-build stack: the rows that do not depend on the press direction
# are written once per build, and every call solves its own copy.

def _state_bits(state):
    return _bits(tuple(getattr(state, name) for name in STATE_FIELDS))


@settings(max_examples=60)
@given(
    st.lists(st.floats(min_value=0.7, max_value=1.3), min_size=14, max_size=14),
    st.lists(st.floats(min_value=0.7, max_value=1.3), min_size=14, max_size=14),
    st.lists(st.floats(min_value=-1.2, max_value=1.8), min_size=2, max_size=4),
)
def test_alternating_builds_each_get_their_own_stack(scales_a, scales_b, zetas):
    base = default_parameters()
    a = base.with_values(**{f: getattr(base, f) * c for f, c in zip(PERTURBED_FIELDS, scales_a)})
    b = base.with_values(**{f: getattr(base, f) * c for f, c in zip(PERTURBED_FIELDS, scales_b)})
    # A after A hits the cached stack; B after A, A after B and an equal
    # but distinct copy of A miss it.
    for zeta in zetas:
        for p in (a, b, a, a.with_values()):
            for hint in (None, 1, -1):
                expected = _reference_equilibrium(p, zeta, hint)
                assert _state_bits(full_equilibrium(p, zeta, hint)) == _bits(expected)


def test_cached_stack_is_read_only(defaults):
    from linkstat import statics

    full_equilibrium(defaults, 0.0)
    terms = statics._oracle_terms(defaults)
    for array in (terms.matrix, terms.rhs):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0, 0] = 1.0
    # The press-dependent entries stay zero in the stack: each call writes
    # them into its own copy.
    assert not terms.matrix[:, [0, 1, 3, 4], 0].any()
    assert _state_bits(full_equilibrium(defaults, 0.3)) == _bits(
        _reference_equilibrium(defaults, 0.3))


@pytest.mark.parametrize(
    "changes,message",
    [
        ({"l2": 0.0}, "the coupler moment arm l2*sin(theta2+theta3) is zero"),
        ({"l1": 1e-320}, "the solution is not finite"),
        ({"l2": 5e-324}, "the balance rows are not finite"),
    ],
    ids=["zero-arm", "l1-subnormal", "l2-subnormal"],
)
def test_failing_build_fails_alike_on_every_call(defaults, changes, message):
    bad = defaults.with_values(**changes)
    texts = []
    for zeta in (0.3, 0.3, -0.2):
        with pytest.raises(SingularSystemError) as err:
            full_equilibrium(bad, zeta)
        texts.append(str(err.value))
    assert texts[0] == texts[1] == (
        f"raw equilibrium is singular at press direction 17.1887 deg: {message}")
    assert texts[2] == f"raw equilibrium is singular at press direction -11.4592 deg: {message}"
    assert _state_bits(full_equilibrium(defaults, 0.3)) == _bits(
        _reference_equilibrium(defaults, 0.3))
