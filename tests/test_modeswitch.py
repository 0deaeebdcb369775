import math
from bisect import bisect_right
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linkstat import (
    GraspMode,
    NotOpeningError,
    OpeningInterval,
    default_parameters,
    envelope,
    opening_interval,
    parallel_grip_budget,
    select_mode,
    sweep,
    sweep_points,
    switching_threshold,
    validate_parameters,
)
from linkstat import modeswitch
from linkstat.model import LinkageParameters

# Envelope boundaries computed from the member balances ahead of this
# implementation: the opening band for the reference build runs from
# about -12.519 to about 19.639 degrees.
ENVELOPE_LO_DEG = -12.519246
ENVELOPE_HI_DEG = 19.639128


def rad(x: float) -> float:
    return math.radians(x)


def counted_verdicts(calls):
    """Patch modeswitch's one-point and batch kernels to append every
    press direction they are asked about to ``calls``."""
    one, batch = modeswitch._decide, modeswitch._decide_all

    def counted_batch(p, zetas):
        zetas = list(zetas)
        calls.extend(zetas)
        return batch(p, zetas)

    return mock.patch.multiple(
        modeswitch,
        _decide=lambda p, z: calls.append(z) or one(p, z),
        _decide_all=counted_batch,
    )


def test_default_sweep_shape(defaults):
    curve = sweep(defaults)
    assert len(curve.samples) == 241
    assert curve.samples[0].zeta == rad(-30.0)
    assert math.isclose(curve.samples[-1].zeta, rad(90.0), rel_tol=1e-12)
    assert 0 < curve.opening_count < len(curve.samples)


def test_sweep_degenerate_range(defaults):
    single = sweep(defaults, rad(5.0), rad(5.0), rad(0.5))
    assert len(single.samples) == 1
    assert single.samples[0].zeta == rad(5.0)


def test_sweep_step_wider_than_range(defaults):
    two = sweep(defaults, rad(1.0), rad(2.0), rad(10.0))
    assert [s.zeta for s in two.samples] == [rad(1.0), rad(2.0)]


def test_sweep_rejects_bad_ranges(defaults):
    with pytest.raises(ValueError):
        sweep(defaults, rad(10.0), rad(-10.0))
    with pytest.raises(ValueError):
        sweep(defaults, rad(0.0), rad(1.0), 0.0)
    with pytest.raises(ValueError):
        sweep_points(defaults, [])


def test_grid_step_cap(defaults):
    cap = modeswitch.MAX_GRID_STEPS
    assert len(modeswitch.sweep_grid(0.0, float(cap), 1.0)) == cap + 1
    with pytest.raises(ValueError, match="more than"):
        modeswitch.sweep_grid(0.0, cap + 0.5, 1.0)
    # Refused by the step count alone: the 1e12-point grid is never built.
    with pytest.raises(ValueError, match="more than"):
        sweep(defaults, 0.0, 1.0, 1e-12)
    with pytest.raises(ValueError, match="more than"):
        envelope(defaults, 0.0, 1.0, 1e-12)


def test_envelope_is_single_band(defaults):
    intervals = opening_interval(sweep(defaults))
    assert len(intervals) == 1
    iv = intervals[0]
    assert iv.lo_refined and iv.hi_refined
    assert abs(math.degrees(iv.lo) - ENVELOPE_LO_DEG) < 0.011
    assert abs(math.degrees(iv.hi) - ENVELOPE_HI_DEG) < 0.011


def test_envelope_endpoints_carry_opening_verdicts(defaults):
    from linkstat import predict_opening

    iv = opening_interval(sweep(defaults))[0]
    assert predict_opening(defaults, iv.lo).opens
    assert predict_opening(defaults, iv.hi).opens


def test_envelope_refinement_tolerance(defaults):
    coarse = opening_interval(sweep(defaults), tolerance=rad(0.2))[0]
    fine = opening_interval(sweep(defaults), tolerance=rad(0.01))[0]
    # Tightening the tolerance can only move the reported edge toward
    # the true transition, never across it.
    assert fine.lo <= coarse.lo
    assert fine.hi >= coarse.hi
    assert coarse.lo - fine.lo <= rad(0.2)


def test_envelope_unrefined_at_range_boundary(defaults):
    curve = sweep(defaults, rad(0.0), rad(10.0), rad(0.5))
    iv = opening_interval(curve)[0]
    assert not iv.lo_refined and not iv.hi_refined
    assert iv.lo == rad(0.0)
    assert math.isclose(iv.hi, rad(10.0))


def test_intervals_ordered_widest_first(defaults):
    # A sweep clipped to catch only slivers of the band still orders by width.
    curve = sweep(defaults, rad(-13.0), rad(20.0), rad(0.25))
    intervals = opening_interval(curve)
    widths = [iv.width for iv in intervals]
    assert widths == sorted(widths, reverse=True)


def test_switching_threshold_inside_envelope(defaults):
    t = switching_threshold(defaults, 0.0)
    assert math.isclose(t, 5.171175, rel_tol=1e-6)


def test_switching_threshold_blocked_direction(defaults):
    with pytest.raises(NotOpeningError, match="contact_maintained"):
        switching_threshold(defaults, rad(-15.0))
    with pytest.raises(NotOpeningError, match="negative_xi"):
        switching_threshold(defaults, rad(60.0))


def test_mode_selection_boundary():
    assert select_mode(4.99, 5.0) is GraspMode.PARALLEL_GRIP
    assert select_mode(5.0, 5.0) is GraspMode.TURN_OVER
    assert select_mode(5.01, 5.0) is GraspMode.TURN_OVER


@given(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_mode_selection_total(applied, threshold):
    mode = select_mode(applied, threshold)
    assert mode is (
        GraspMode.TURN_OVER if applied >= threshold else GraspMode.PARALLEL_GRIP
    )


def test_mode_selection_rejects_bad_input():
    with pytest.raises(ValueError):
        select_mode(-1.0, 5.0)
    with pytest.raises(ValueError):
        select_mode(1.0, math.inf)


def test_grip_budget(defaults):
    t = switching_threshold(defaults, 0.0)
    budget = parallel_grip_budget(t)
    assert math.isclose(budget, 0.8 * t)
    assert select_mode(budget, t) is GraspMode.PARALLEL_GRIP


# ---------------------------------------------------------------------------
# envelope: the grid sweep's envelope from verdicts around the roots only

FIELDS = ("l0", "l1", "l2", "l3", "l4", "theta0", "theta1", "theta2",
          "theta3", "theta4", "theta5", "spring_k", "natural_length", "mu")


def swept_envelope(p, lo, hi, step, tolerance=rad(0.01)):
    return opening_interval(sweep(p, lo, hi, step), tolerance)


def hexed(intervals):
    """Intervals as exact bits: == cannot tell -0.0 from 0.0."""
    return [(iv.lo.hex(), iv.hi.hex(), iv.lo_refined, iv.hi_refined) for iv in intervals]


@given(
    scales=st.lists(st.floats(min_value=-0.5, max_value=0.5), min_size=14, max_size=14),
    frictionless=st.booleans(),
    lo_deg=st.floats(min_value=-89.0, max_value=30.0),
    span_deg=st.floats(min_value=20.0, max_value=120.0),
    step_deg=st.sampled_from([0.25, 0.5, 0.7, 1.0]),
    tolerance_deg=st.sampled_from([0.001, 0.01, 0.2]),
)
@settings(max_examples=100)
def test_envelope_equals_swept_envelope(
    scales, frictionless, lo_deg, span_deg, step_deg, tolerance_deg
):
    base = default_parameters()
    p = base.with_values(
        **{name: getattr(base, name) * (1.0 + s) for name, s in zip(FIELDS, scales)}
    )
    if frictionless:
        p = p.with_values(mu=0.0)
    assume(validate_parameters(p).ok)
    args = (rad(lo_deg), rad(lo_deg + span_deg), rad(step_deg), rad(tolerance_deg))
    calls = []
    fallbacks = []
    every_point = modeswitch._swept_intervals
    with counted_verdicts(calls), mock.patch.object(
        modeswitch,
        "_swept_intervals",
        lambda p, g, t: fallbacks.append(g) or every_point(p, g, t),
    ):
        got = envelope(p, *args)
    assert hexed(got) == hexed(swept_envelope(p, *args))
    assert len(calls) > 0
    grid = modeswitch.sweep_grid(*args[:3])
    on_grid = set(grid)
    probes = [z for z in calls if z in on_grid]
    midpoints = [z for z in calls if z not in on_grid]
    # At most three grid points around each root of the five sign
    # functions, and the two ends.
    roots = 5 * (math.ceil(rad(span_deg) / math.pi) + 1)
    assert len(probes) <= 2 + 3 * roots
    edges = sum(iv.lo_refined + iv.hi_refined for iv in got)
    per_edge = math.ceil(math.log2(step_deg / tolerance_deg)) + 2
    assert len(midpoints) <= per_edge * edges
    if fallbacks:
        return
    # A bisection midpoint gets a verdict of its own only within the root
    # window of a root, or with roots on both sides of it in its grid cell.
    window = modeswitch._ROOT_WINDOW
    found = modeswitch._sorted_roots(p, grid[0], grid[-1])
    for z in midpoints:
        k = bisect_right(grid, z)
        near = any(abs(z - r) <= window for r in found)
        below = any(grid[k - 1] - window <= r < z for r in found)
        above = any(z < r <= grid[k] + window for r in found)
        assert near or (below and above)


def test_bisection_computes_every_midpoint_without_a_root_in_the_bracket(defaults):
    # Roots that explain no edge must not stand in for verdicts.
    iv = envelope(defaults)[0]
    grid = modeswitch.sweep_grid(rad(-30.0), rad(90.0), rad(0.5))
    k = bisect_right(grid, iv.hi) - 1
    closed, opened = grid[k + 1], grid[k]
    counts = []
    for roots in (None, [], [rad(-60.0), rad(120.0)]):
        calls = []
        with counted_verdicts(calls):
            edge = modeswitch._bisect_transition(
                defaults, closed, opened, rad(0.01), roots
            )
        assert edge.hex() == iv.hi.hex()
        counts.append(len(calls))
    assert counts[0] > 0 and len(set(counts)) == 1


def test_envelope_reference_build(defaults):
    assert hexed(envelope(defaults)) == hexed(
        swept_envelope(defaults, rad(-30.0), rad(90.0), rad(0.5))
    )


def test_envelope_with_a_root_on_a_grid_point(defaults):
    # The lower edge is the gamma = 0 line, tan(zeta) = (l4 - l3 sin theta2)
    # / (l3 cos theta2); put a grid point on it, first at the range start
    # and then twenty steps in.
    p = defaults
    root = math.atan2(p.l4 - p.l3 * math.sin(p.theta2), p.l3 * math.cos(p.theta2))
    step = rad(0.5)
    for lo in (root, root - 20 * step):
        grid = sweep(p, lo, rad(40.0), step).zetas
        assert min(abs(z - root) for z in grid) < 1e-15
        assert hexed(envelope(p, lo, rad(40.0), step)) == hexed(
            swept_envelope(p, lo, rad(40.0), step)
        )


def test_envelope_without_friction(defaults):
    p = defaults.with_values(mu=0.0)
    assert hexed(envelope(p)) == hexed(swept_envelope(p, rad(-30.0), rad(90.0), rad(0.5)))


@pytest.mark.parametrize("frictionless", [True, False])
def test_envelope_with_a_nearly_cancelled_det(defaults, monkeypatch, frictionless):
    # theta3 ~ theta1 and theta4 ~ theta2 shrink every term of det to
    # ~1e-6 while the row scale stays O(1), so det reads singular over a
    # band around its root wider than the root window.  That root is the
    # upper edge of the band of opening press directions.
    p = defaults.with_values(
        theta3=defaults.theta1 + 3e-7,
        theta4=defaults.theta2 + 9e-7,
        **({"mu": 0.0} if frictionless else {}),
    )
    assert validate_parameters(p).ok
    for tolerance in (0.0, rad(0.01)):
        want = hexed(swept_envelope(p, rad(-30.0), rad(90.0), rad(0.5), tolerance))
        assert hexed(envelope(p, tolerance=tolerance)) == want
    # Trusting the det roots anyway infers midpoints in the band wrongly.
    monkeypatch.setattr(modeswitch, "_FLOOR_REACH", math.inf)
    assert hexed(envelope(p, tolerance=0.0)) != hexed(
        swept_envelope(p, rad(-30.0), rad(90.0), rad(0.5), 0.0)
    )


def test_envelope_falls_back_to_every_grid_point(defaults, monkeypatch):
    # With every root distrusted the envelope samples the whole grid.
    monkeypatch.setattr(modeswitch, "_CANCELLATION_FLOOR", math.inf)
    calls = []
    with counted_verdicts(calls):
        got = envelope(defaults)
    assert len(calls) > 241
    monkeypatch.undo()
    assert hexed(got) == hexed(swept_envelope(defaults, rad(-30.0), rad(90.0), rad(0.5)))


def test_opening_interval_is_an_immutable_named_tuple():
    iv = OpeningInterval(-0.25, 0.5, True, False)
    assert OpeningInterval._fields == ("lo", "hi", "lo_refined", "hi_refined")
    assert tuple(iv) == (-0.25, 0.5, True, False)
    assert iv.width == 0.75
    assert repr(iv) == "OpeningInterval(lo=-0.25, hi=0.5, lo_refined=True, hi_refined=False)"
    with pytest.raises(AttributeError):
        iv.lo = 0.0


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1.0])
def test_refine_tolerance_must_be_finite_and_non_negative(defaults, tolerance):
    # nan or inf used to stop the bisection at once and report a grid
    # point as a refined edge.
    with pytest.raises(ValueError, match="tolerance"):
        envelope(defaults, tolerance=tolerance)
    with pytest.raises(ValueError, match="tolerance"):
        opening_interval(sweep(defaults), tolerance=tolerance)


def test_zero_tolerance_bisects_to_float_resolution(defaults):
    from linkstat import predict_opening

    (iv,) = envelope(defaults, tolerance=0.0)
    assert hexed([iv]) == hexed(
        swept_envelope(defaults, rad(-30.0), rad(90.0), rad(0.5), 0.0)
    )
    assert predict_opening(defaults, iv.hi).opens
    assert not predict_opening(defaults, math.nextafter(iv.hi, math.inf)).opens
    assert predict_opening(defaults, iv.lo).opens
    assert not predict_opening(defaults, math.nextafter(iv.lo, -math.inf)).opens


def test_envelope_degenerate_and_bad_ranges(defaults):
    assert hexed(envelope(defaults, rad(5.0), rad(5.0))) == hexed(
        swept_envelope(defaults, rad(5.0), rad(5.0), rad(0.5))
    )
    with pytest.raises(ValueError):
        envelope(defaults, rad(10.0), rad(-10.0))
    with pytest.raises(ValueError):
        envelope(defaults, math.nan, rad(10.0))
    with pytest.raises(ValueError):
        sweep(defaults, rad(0.0), math.inf)


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_envelope_keeps_the_sign_of_a_zero_range_end(defaults, first, second):
    # The band runs past the range end, so its upper edge is the end
    # itself; 0.0 == -0.0, so a grid kept from the first call and looked
    # up by float equality would give the second call the other zero.
    for hi in (first, second):
        got = envelope(defaults, rad(-10.0), hi, rad(0.7))
        assert hexed(got) == hexed(swept_envelope(defaults, rad(-10.0), hi, rad(0.7)))
        assert not got[0].hi_refined
        assert got[0].hi.hex() == hi.hex()


def test_envelope_two_bands():
    # No validating build found has two bands inside +-89 deg; over the
    # whole circle this one has a wide band and a sliver past -180 deg.
    p = LinkageParameters(
        l0=5.53587480424221, l1=11.40525650294356, l2=1.8727370896518107,
        l3=21.07352729790857, l4=3.6130817986224213, theta0=0.11941011829985214,
        theta1=0.15466655071014435, theta2=0.10914212977761024,
        theta3=0.39738778929361673, theta4=0.22435311530440394,
        theta5=0.9675572714312981, spring_k=0.9141468521625266,
        natural_length=3.4436268126565475, mu=0.8346592772553205, epsilon=0.1,
    )
    assert validate_parameters(p).ok
    args = (rad(-180.0), rad(180.0), rad(1.0))
    wide, sliver = envelope(p, *args)
    assert (wide.lo_refined, wide.hi_refined) == (True, False)
    assert (sliver.lo_refined, sliver.hi_refined) == (False, True)
    assert wide.width > sliver.width
    assert hexed([wide, sliver]) == hexed(swept_envelope(p, *args))
