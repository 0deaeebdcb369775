import math
from bisect import bisect_right
from itertools import groupby
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from linkstat import (
    GraspMode,
    NotOpeningError,
    OpeningInterval,
    default_parameters,
    envelope,
    opening_interval,
    parallel_grip_budget,
    predict_opening,
    select_mode,
    sweep,
    sweep_points,
    switching_threshold,
    validate_parameters,
)
from linkstat import modeswitch
from linkstat.model import MAX_GRID_STEPS, LinkageParameters, spring_force, sweep_grid
from linkstat.statics import _OPENS, _build_terms, _decide_all

# Envelope boundaries computed from the member balances ahead of this
# implementation: the opening band for the reference build runs from
# about -12.519 to about 19.639 degrees.
ENVELOPE_LO_DEG = -12.519246
ENVELOPE_HI_DEG = 19.639128


def rad(x: float) -> float:
    return math.radians(x)


def counted_verdicts(calls, batches=None):
    """Patch modeswitch's one-point and batch kernels to append every
    press direction they are asked about to ``calls``, and each batch
    call's list of them to ``batches``."""
    one, batch = modeswitch._decide, modeswitch._decide_all

    def counted_batch(p, zetas):
        zetas = list(zetas)
        calls.extend(zetas)
        if batches is not None:
            batches.append(zetas)
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


def test_sweep_points_reads_its_press_directions_once(defaults):
    zetas = [rad(-30.0), rad(-10.0), 0.0, rad(15.0), rad(25.0)]
    expected = sweep_points(defaults, zetas)
    assert opening_interval(expected)
    for same in ((z for z in zetas), tuple(zetas), np.array(zetas)):
        assert sweep_points(defaults, same) == expected
    with pytest.raises(ValueError, match="at least one press direction is required"):
        sweep_points(defaults, (z for z in ()))


def test_grid_step_cap(defaults):
    cap = MAX_GRID_STEPS
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


@pytest.mark.parametrize("threshold", [-1.0, math.nan, math.inf])
def test_grip_budget_rejects_bad_threshold(threshold):
    with pytest.raises(ValueError, match=f"threshold must be finite and >= 0, got {threshold}"):
        parallel_grip_budget(threshold)


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
    every_point = modeswitch.sweep_points
    with counted_verdicts(calls), mock.patch.object(
        modeswitch,
        "sweep_points",
        lambda p, g: fallbacks.append(g) or every_point(p, g),
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
    assert len(fallbacks) <= 1  # the full sweep runs once, or never
    if fallbacks:
        return
    # A bisection midpoint gets a verdict of its own only within the root
    # window of a root, or with roots on both sides of it in its grid cell.
    window = modeswitch._ROOT_WINDOW
    groups = modeswitch._roots_by_function(p, grid[0], grid[-1])
    found = [r for group in groups for r in group]
    for z in midpoints:
        k = bisect_right(grid, z)
        near = any(abs(z - r) <= window for r in found)
        below = any(grid[k - 1] - window <= r < z for r in found)
        above = any(z < r <= grid[k] + window for r in found)
        assert near or (below and above)


def envelope_or_error(call):
    """The intervals as exact bits, or the type and text of the error raised."""
    try:
        return hexed(call())
    except ValueError as exc:
        return type(exc), str(exc)


@given(
    scales=st.lists(st.floats(min_value=-0.5, max_value=0.5), min_size=14, max_size=14),
    lock=st.sampled_from([None, None, 1, -1]),
    lo_deg=st.floats(min_value=-89.0, max_value=80.0),
    span_deg=st.floats(min_value=0.0, max_value=120.0),
    step_deg=st.sampled_from([0.25, 0.5, 1.0]),
)
@example(scales=[0.0] * 14, lock=-1, lo_deg=-20.0, span_deg=10.0, step_deg=0.5)
@settings(max_examples=200, deadline=None)
def test_envelope_returns_or_raises_what_the_sweep_does(
    scales, lock, lo_deg, span_deg, step_deg
):
    # Builds that need not validate: with ``lock`` set, mu sits on that
    # friction branch's self-lock boundary mu = cot|theta2|, where its
    # coupling denominator vanishes.  A range the sweep covers on the +1
    # branch alone never forms the -1 branch.
    base = default_parameters()
    p = base.with_values(
        **{name: getattr(base, name) * (1.0 + s) for name, s in zip(FIELDS, scales)}
    )
    if lock is not None:
        t2 = lock * abs(p.theta2)
        p = p.with_values(theta2=t2, mu=math.cos(t2) / (lock * math.sin(t2)))
    args = (rad(lo_deg), rad(lo_deg + span_deg), rad(step_deg))
    assert envelope_or_error(lambda: envelope(p, *args)) == envelope_or_error(
        lambda: swept_envelope(p, *args)
    )


def test_envelope_sweeps_where_a_sign_function_size_is_not_finite(defaults):
    # |l3| + |l4| overflows, so every sign function's size is inf while
    # the build's terms stay finite: the roots are not trusted.
    p = defaults.with_values(l3=1e308, l4=1e308)
    assert modeswitch._roots_by_function(p, rad(-30.0), rad(90.0)) is None
    assert envelope_or_error(lambda: envelope(p)) == envelope_or_error(
        lambda: swept_envelope(p, rad(-30.0), rad(90.0), rad(0.5))
    )


def test_envelope_sweeps_a_valid_build_whose_det_size_overflows(defaults):
    # A tiny theta2 with mu = 1e299 validates, with a +1 branch a11 near
    # 4e297, but a11 squared in the det's singular floor overflows: the
    # roots are not trusted, and the envelope sweeps.
    p = defaults.with_values(theta2=1e-300, mu=1e299)
    assert validate_parameters(p).ok
    assert modeswitch._roots_by_function(p, rad(-30.0), rad(90.0)) is None
    assert envelope_or_error(lambda: envelope(p)) == envelope_or_error(
        lambda: swept_envelope(p, rad(-30.0), rad(90.0), rad(0.5))
    )


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


def test_envelope_falls_back_when_a_transition_lies_between_probes(defaults, monkeypatch):
    # Roots moved three grid steps put no probe beside either edge of the
    # band, so the probes around each edge disagree across grid points no
    # verdict was computed for: the envelope must take the full sweep, not
    # place the edge from the moved roots.
    roots_by_function = modeswitch._roots_by_function
    shift = 3 * rad(0.5)
    monkeypatch.setattr(
        modeswitch,
        "_roots_by_function",
        lambda p, lo, hi: [[r + shift for r in g] for g in roots_by_function(p, lo, hi)],
    )
    fallbacks = []
    every_point = modeswitch.sweep_points
    monkeypatch.setattr(
        modeswitch, "sweep_points", lambda p, g: fallbacks.append(g) or every_point(p, g)
    )
    got = envelope(defaults)
    assert len(fallbacks) == 1
    monkeypatch.undo()
    assert hexed(got) == hexed(swept_envelope(defaults, rad(-30.0), rad(90.0), rad(0.5)))


def dense_runs(flags, first=0):
    """First and last index of each run of True in ``flags``, counted from ``first``."""
    runs = []
    for flag, group in groupby(flags):
        count = len(list(group))
        if flag:
            runs.append((first, first + count - 1))
        first += count
    return runs


@given(data=st.data())
@settings(max_examples=300)
def test_runs_reads_sparse_verdicts_as_the_dense_flags(data):
    flags = data.draw(st.lists(st.booleans(), min_size=1, max_size=40), label="flags")
    n = len(flags)
    chosen = data.draw(st.sets(st.integers(0, n - 1), min_size=1), label="chosen")
    if data.draw(st.booleans(), label="beside every change"):  # as the envelope probes
        chosen |= {k for j in range(n - 1) if flags[j] != flags[j + 1] for k in (j, j + 1)}
    indices = sorted(chosen)
    assert modeswitch._runs(range(n), flags) == dense_runs(flags)
    got = modeswitch._runs(indices, [flags[i] for i in indices])
    first, last = indices[0], indices[-1]
    probed = set(indices)
    pairs = list(zip(indices, indices[1:]))
    if all(j in probed and j + 1 in probed
           for j in range(first, last) if flags[j] != flags[j + 1]):
        assert got == dense_runs(flags[first : last + 1], first)
    elif any(flags[a] != flags[b] for a, b in pairs if b > a + 1):
        assert got is None
    else:
        # A change hidden between two agreeing verdicts cannot be seen: the
        # stretch reads as its ends, as the roots guarantee it does.
        filled = list(flags)
        for a, b in pairs:
            filled[a:b] = [flags[a]] * (b - a)
        assert got == dense_runs(filled[first : last + 1], first)


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


# ---------------------------------------------------------------------------
# spring-scale moves: spring_k, natural_length, l0 and l1 only scale (b0, b1)

SCALE_FIELDS = ("spring_k", "natural_length", "l0", "l1")
DEFAULT_RANGE = (rad(-30.0), rad(90.0))


def spring_moment_scale(p):
    """The factor the spring moments (b0, b1) share: f_k * l0 / l1."""
    return spring_force(p) * p.l0 / p.l1


@given(
    scales=st.lists(st.floats(min_value=-0.2, max_value=0.2), min_size=14, max_size=14),
    field=st.sampled_from(SCALE_FIELDS),
    factor=st.floats(min_value=0.3, max_value=3.0),
)
@settings(max_examples=100)
def test_spring_scale_move_keeps_every_verdict(scales, field, factor):
    base = default_parameters()
    p = base.with_values(
        **{name: getattr(base, name) * (1.0 + s) for name, s in zip(FIELDS, scales)}
    )
    q = p.with_values(**{field: getattr(p, field) * factor})
    assume(validate_parameters(p).ok and validate_parameters(q).ok)
    assume(modeswitch._spring_scalable(q))
    assume(modeswitch._spring_scale_keeps_verdicts(p, *DEFAULT_RANGE))
    assert hexed(envelope(q)) == hexed(envelope(p))
    grid = sweep_grid(*DEFAULT_RANGE, rad(0.5))
    ratio = spring_moment_scale(q) / spring_moment_scale(p)
    for zeta, vp, vq in zip(grid, _decide_all(p, grid), _decide_all(q, grid)):
        assert vp[0] == vq[0]
        if vp[0] == _OPENS:
            want = ratio * switching_threshold(p, zeta)
            assert abs(switching_threshold(q, zeta) - want) <= 1e-13 * abs(want)


def xi_numerator_margins(p):
    """|N_s| over |b0*a11_s| + |s13*b1| on both friction branches."""
    t = _build_terms(p)
    return [
        abs(t.b0 * a11 - t.s13 * t.b1) / (abs(t.b0 * a11) + abs(t.s13 * t.b1))
        for a11 in (t.plus, t.branch(-1))
    ]


def cancelled_xi_numerator(defaults, offset=0.0):
    """A build whose +1 branch xi numerator b0*a11 - s13*b1 vanishes.

    With theta1 = 40 deg, s13 > 0; theta5 then puts cos(theta4 + theta5)
    at -cos(theta0 + theta1)*a11/s13, plus ``offset`` radians.
    """
    p = defaults.with_values(theta1=rad(40.0))
    t = _build_terms(p)
    c45 = -math.cos(p.theta0 + p.theta1) * t.plus / t.s13
    return p.with_values(theta5=math.acos(c45) - p.theta4 + offset)


def test_spring_scale_guard_accepts_the_reference_build(defaults):
    assert modeswitch._spring_scalable(defaults)
    assert modeswitch._spring_scale_keeps_verdicts(defaults, *DEFAULT_RANGE)


@pytest.mark.parametrize(
    "changes",
    [
        {"natural_length": 15.0},  # past the stretched length, ~13.98 mm
        {"spring_k": 0.0},
        {"spring_k": 1e-90},  # spring moments below 2**-256
        {"spring_k": 1e90},  # and above 2**256
    ],
    ids=["stretch-past-natural-length", "no-spring", "tiny-moments", "huge-moments"],
)
def test_spring_scale_guard_refuses_unscalable_springs(defaults, changes):
    p = defaults.with_values(**changes)
    assert validate_parameters(p).ok
    assert not modeswitch._spring_scalable(p)
    assert not modeswitch._spring_scale_keeps_verdicts(p, *DEFAULT_RANGE)


def test_spring_moments_that_underflow_change_verdicts():
    # With f_k > 0 still, spring moments of one subnormal ulp (5e-324)
    # have lost their ratio, and statuses differ from the same geometry
    # with an ordinary spring: the moment range is part of the guard.
    p = LinkageParameters(
        l0=9.988339739261995, l1=24.20347250214445, l2=11.514237258147347,
        l3=21.277128356395757, l4=2.243452981329211, theta0=0.4642418958546651,
        theta1=0.15736573826863795, theta2=0.3357884965652129,
        theta3=0.2187684555937756, theta4=0.13455803096547223,
        theta5=0.5332540241687941, spring_k=0.862,
        natural_length=11.556947498608928, mu=0.7051234086323387, epsilon=0.1,
    )
    q = p.with_values(spring_k=5e-323)
    assert validate_parameters(q).ok and spring_force(q) > 0.0
    assert modeswitch._spring_scale_keeps_verdicts(p, *DEFAULT_RANGE)
    assert not modeswitch._spring_scalable(q)
    grid = sweep_grid(*DEFAULT_RANGE, rad(0.5))
    assert [v[0] for v in _decide_all(p, grid)] != [v[0] for v in _decide_all(q, grid)]


def test_spring_scale_guard_refuses_a_cancelled_xi_numerator(defaults):
    p = cancelled_xi_numerator(defaults)
    assert validate_parameters(p).ok
    assert min(xi_numerator_margins(p)) < modeswitch._SCALE_MARGIN
    assert modeswitch._roots_by_function(p, *DEFAULT_RANGE) is not None
    assert not modeswitch._spring_scale_keeps_verdicts(p, *DEFAULT_RANGE)
    # A millirad further, the numerator clears the margin and reuse is safe.
    q = cancelled_xi_numerator(defaults, 1e-3)
    assert min(xi_numerator_margins(q)) > modeswitch._SCALE_MARGIN
    assert modeswitch._spring_scale_keeps_verdicts(q, *DEFAULT_RANGE)


def beta_root_gaps(p):
    """Distance from each beta-numerator root to the nearest other root."""
    *others, betas = modeswitch._roots_by_function(p, *DEFAULT_RANGE)
    return [min(abs(r - q) for group in others for q in group) for r in betas]


@pytest.mark.parametrize("where", ["det", "a00-and-a10"])
def test_spring_scale_guard_refuses_a_beta_root_beside_another_root(defaults, where):
    if where == "det":
        # A numerator cancelled to ~2e-7 clears the margin, but it puts the
        # beta-numerator root ~4e-8 rad from the +1 det's.
        p = cancelled_xi_numerator(defaults, 1e-7)
        assert min(xi_numerator_margins(p)) > modeswitch._SCALE_MARGIN
    else:
        # theta1 on the gamma = 0 line zeroes a00 and a10 together, and
        # with them the beta numerator.
        p = defaults.with_values(
            theta1=math.atan2(
                defaults.l4 - defaults.l3 * math.sin(defaults.theta2),
                defaults.l3 * math.cos(defaults.theta2),
            )
        )
    assert validate_parameters(p).ok
    assert modeswitch._spring_scalable(p)
    assert min(beta_root_gaps(p)) <= 2.0 * modeswitch._ROOT_WINDOW
    assert not modeswitch._spring_scale_keeps_verdicts(p, *DEFAULT_RANGE)
    assert min(beta_root_gaps(defaults)) > 2.0 * modeswitch._ROOT_WINDOW


def test_spring_scale_guard_refuses_a_distrusted_sign_function(defaults):
    # The nearly cancelled det of test_envelope_with_a_nearly_cancelled_det.
    p = defaults.with_values(theta3=defaults.theta1 + 3e-7, theta4=defaults.theta2 + 9e-7)
    assert validate_parameters(p).ok
    assert min(xi_numerator_margins(p)) > modeswitch._SCALE_MARGIN
    assert modeswitch._roots_by_function(p, *DEFAULT_RANGE) is None
    assert not modeswitch._spring_scale_keeps_verdicts(p, *DEFAULT_RANGE)


def test_spring_scale_guard_refuses_an_undefined_minus_branch(defaults):
    # mu = cot(80 deg) with theta2 = -80 deg zeroes the -1 branch's coupling
    # denominator mu*sin(theta2) + cos(theta2); validation refuses it, so
    # the build's terms, which the root finder and the guard read, do too.
    p = defaults.with_values(theta2=rad(-80.0), mu=-math.cos(rad(-80.0)) / math.sin(rad(-80.0)))
    text = ("mu: mu = 0.17632698070846506 with theta2 = -1.3962634015954636 self-locks "
            "the slotted pin on the -1 branch (mu >= cot|theta2|, so "
            "-s*mu*sin(theta2) + cos(theta2) <= 0)")
    assert validate_parameters(p).describe() == text
    assert modeswitch._roots_by_function(p, *DEFAULT_RANGE) is None
    for call in (lambda: _build_terms(p), lambda: modeswitch._spring_scalable(p),
                 lambda: modeswitch._spring_scale_keeps_verdicts(p, *DEFAULT_RANGE)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == text


# ---------------------------------------------------------------------------
# sweep_points: one kernel call, and predict_opening's decision at every sample


def bits(value):
    """A decision's fields, nested named tuples included, floats as hex."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(map(bits, value))
    return value


def per_point(p, zetas):
    """predict_opening at each press direction in turn, or the first error's text."""
    try:
        return [(z.hex(), bits(predict_opening(p, z))) for z in zetas]
    except ValueError as exc:
        return str(exc)


def swept_samples(p, zetas):
    try:
        return [(s.zeta.hex(), bits(s.decision)) for s in sweep_points(p, zetas).samples]
    except ValueError as exc:
        return str(exc)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(
    scales=st.lists(st.floats(min_value=-0.5, max_value=0.5), min_size=14, max_size=14),
    frictionless=st.integers(min_value=0, max_value=9),
    pool=st.lists(st.floats(min_value=-math.pi, max_value=math.pi), min_size=1, max_size=20),
    picks=st.lists(st.integers(min_value=0, max_value=99), min_size=1, max_size=38),
    singular_at=st.none() | st.integers(min_value=0, max_value=99),
    bad=st.none() | st.tuples(st.integers(min_value=0, max_value=99), NON_FINITE),
)
# The reference build opens at 0 deg on the -1 branch only, so the first
# list needs that branch mid-list; the second puts theta3 = theta1 and
# presses along theta1, where the balance is singular.
@example(scales=[0.0] * 14, frictionless=1, pool=[rad(-30.0), 0.0],
         picks=[0, 0, 1, 0, 1], singular_at=None, bad=None)
@example(scales=[0.0] * 14, frictionless=1, pool=[rad(-30.0), 0.0, rad(60.0)],
         picks=[0, 2, 1, 1], singular_at=2, bad=None)
def test_sweep_points_gives_predict_opening_at_every_sample(
    scales, frictionless, pool, picks, singular_at, bad
):
    base = default_parameters()
    p = base.with_values(
        **{name: getattr(base, name) * (1.0 + s) for name, s in zip(FIELDS, scales)}
    )
    if frictionless == 0:
        p = p.with_values(mu=0.0)
    zetas = [pool[i % len(pool)] for i in picks]
    if singular_at is not None:
        p = p.with_values(theta3=p.theta1)
        zetas.insert(singular_at % (len(zetas) + 1), p.theta1)
    if bad is not None:
        at, value = bad
        zetas.insert(at % (len(zetas) + 1), value)
    # predict_opening on a copy, so it builds the press-independent terms afresh.
    expected = per_point(p.with_values(), zetas)
    assert swept_samples(p, zetas) == expected
    if bad is not None:
        assert expected == f"press direction must be finite, got {value!r}"


def test_sweep_points_hands_every_press_direction_to_one_kernel_call(defaults):
    zetas = [rad(-30.0), 0.0, rad(-30.0), defaults.theta1, rad(60.0), 0.0]
    calls, batches = [], []
    with counted_verdicts(calls, batches):
        sweep_points(defaults, zetas)
    assert batches == [zetas] and calls == zetas
    calls.clear()
    batches.clear()
    with counted_verdicts(calls, batches):
        curve = sweep(defaults)
    assert batches == [list(curve.zetas)] and calls == batches[0]
