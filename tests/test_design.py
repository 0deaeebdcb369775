import math
import re
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkstat import (
    DesignSpec,
    DesignStatus,
    NotOpeningError,
    OpeningInterval,
    default_parameters,
    evaluate_design,
    opening_interval,
    optimize_design,
    predict_opening,
    sensitivity,
    solve_balance,
    sweep,
    switching_threshold,
    validate_parameters,
)


def rad(x: float) -> float:
    return math.radians(x)


def reachable_spec() -> DesignSpec:
    return DesignSpec(
        interval_lo=rad(-10.0),
        interval_hi=rad(15.0),
        press_angle=rad(-15.0),
        threshold_lo=3.0,
        threshold_hi=8.0,
        free=("theta2",),
        bounds={"theta2": (rad(10.0), rad(30.0))},
    )


def unreachable_spec() -> DesignSpec:
    # No spring rate at or below 1 N/mm can demand a kilo-newton press.
    return DesignSpec(
        interval_lo=rad(-10.0),
        interval_hi=rad(15.0),
        press_angle=rad(0.0),
        threshold_lo=1000.0,
        threshold_hi=1e9,
        free=("spring_k",),
        bounds={"spring_k": (0.01, 1.0)},
    )


def test_sensitivity_matches_linearity(defaults):
    # The balance force is exactly linear in the spring rate, so the
    # central difference must land on xi / k.
    xi = solve_balance(defaults, 0.0).xi_b
    got = sensitivity(defaults, "spring_k", 0.0)
    assert math.isclose(got, xi / defaults.spring_k, rel_tol=1e-6)


def test_sensitivity_sign_for_geometry(defaults):
    # Lengthening the slotted strut moves the tip line, shifting the
    # balance force; the derivative must be finite and nonzero.
    got = sensitivity(defaults, "l3", rad(5.0))
    assert math.isfinite(got)
    assert got != 0.0


def test_sensitivity_requires_opening(defaults):
    with pytest.raises(NotOpeningError):
        sensitivity(defaults, "spring_k", rad(-15.0))


def test_sensitivity_rejects_unknown_field(defaults):
    with pytest.raises(ValueError, match="epsilon"):
        sensitivity(defaults, "epsilon", 0.0)


def test_evaluate_design_flags_blocked_press(defaults):
    ev = evaluate_design(reachable_spec(), defaults)
    assert not ev.press_opens
    assert ev.penalty > 0.0
    assert any("blocked" in v for v in ev.violations)


def test_evaluate_design_zero_penalty_means_feasible(defaults):
    good = defaults.with_values(theta2=rad(21.5))
    ev = evaluate_design(reachable_spec(), good)
    assert ev.press_opens
    assert ev.penalty == 0.0
    assert ev.violations == ()
    assert ev.threshold is not None and 3.0 <= ev.threshold <= 8.0


def test_evaluate_design_invalid_candidate(defaults):
    ev = evaluate_design(reachable_spec(), defaults.with_values(l2=-1.0))
    assert ev.penalty == math.inf


def test_spec_validation():
    spec = reachable_spec()
    with pytest.raises(ValueError, match="free"):
        spec._replace(free=()).validated()
    with pytest.raises(ValueError, match="bounds"):
        spec._replace(bounds={}).validated()
    with pytest.raises(ValueError, match="searchable"):
        spec._replace(free=("epsilon",)).validated()
    # A bound on a field no search varies is refused too, free or not.
    with pytest.raises(ValueError, match=re.escape("not searchable: ['epsilon']")):
        spec._replace(bounds={**spec.bounds, "epsilon": (0.05, 0.2)}).validated()
    with pytest.raises(ValueError, match=re.escape("bounds for 'l3' must be a finite")):
        spec._replace(bounds={**spec.bounds, "l3": (25.0, math.nan)}).validated()
    with pytest.raises(ValueError, match="band"):
        spec._replace(threshold_lo=9.0).validated()
    for angle in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"press angle must be finite, got {angle}"):
            spec._replace(press_angle=angle).validated()
        for end in ("interval_lo", "interval_hi"):
            bad = spec._replace(**{end: angle})
            ends = re.escape(f"[{bad.interval_lo}, {bad.interval_hi}]")
            with pytest.raises(ValueError, match=f"target interval must have finite ends, got {ends}"):
                bad.validated()


def test_spec_search_range_is_the_fixed_default():
    # The range is a class constant, not a field: no spec can set it, and
    # the benchmark's design check reads it off the spec.
    from linkstat import model

    with pytest.raises(TypeError):
        DesignSpec(**reachable_spec()._asdict(), sweep_lo=0.0)
    with pytest.raises(ValueError):
        reachable_spec()._replace(sweep_lo=0.0)
    assert (DesignSpec.sweep_lo, DesignSpec.sweep_hi, DesignSpec.sweep_step) == (
        model.DEFAULT_SWEEP_LO, model.DEFAULT_SWEEP_HI, model.DEFAULT_SWEEP_STEP)


def test_optimizer_finds_reachable_target(defaults):
    result = optimize_design(reachable_spec(), defaults, budget=400)
    assert result.status is DesignStatus.FEASIBLE
    assert result.penalty == 0.0
    assert result.evaluations <= 400
    assert result.verification is not None

    # The claim must hold on a fresh sweep of the returned build.
    p = result.parameters
    intervals = opening_interval(sweep(p))
    assert any(iv.lo <= rad(-10.0) and iv.hi >= rad(15.0) for iv in intervals)
    t = switching_threshold(p, rad(-15.0))
    assert 3.0 <= t <= 8.0
    assert math.isclose(t, result.verification.threshold, rel_tol=1e-12)

    lo, hi = rad(10.0), rad(30.0)
    assert lo <= p.theta2 <= hi


def test_optimizer_reports_unreachable_target(defaults):
    result = optimize_design(unreachable_spec(), defaults, budget=60)
    assert result.status is DesignStatus.INFEASIBLE
    assert result.penalty > 0.0
    assert result.violations
    assert result.verification is None
    assert any("switching force" in v or "blocked" in v for v in result.violations)


def test_optimizer_is_deterministic(defaults):
    a = optimize_design(reachable_spec(), defaults, budget=400)
    b = optimize_design(reachable_spec(), defaults, budget=400)
    assert a.evaluations == b.evaluations
    assert a.parameters == b.parameters
    assert a.penalty == b.penalty


def test_optimizer_respects_budget(defaults):
    result = optimize_design(unreachable_spec(), defaults, budget=5)
    assert result.evaluations <= 5
    assert result.status is DesignStatus.INFEASIBLE


def test_optimizer_stops_between_directions_when_the_budget_runs_out(defaults, monkeypatch):
    # A stiffer spring raises the switching force away from the band, so
    # the +step trial fails and spends the last evaluation: the -step
    # trial is never scored.
    import linkstat.design

    spec = DesignSpec(
        interval_lo=rad(-10.0), interval_hi=rad(15.0), press_angle=0.0,
        threshold_lo=0.01, threshold_hi=0.02,
        free=("spring_k",), bounds={"spring_k": (0.01, 1.0)},
    )
    tried = []
    scored = linkstat.design._scored
    monkeypatch.setattr(linkstat.design, "_scored",
                        lambda spec, p, intervals: tried.append(p.spring_k)
                        or scored(spec, p, intervals))
    result = optimize_design(spec, defaults, budget=2)
    assert result.evaluations == 2
    assert tried == [defaults.spring_k, defaults.spring_k + 0.05]
    assert result.parameters == defaults


def test_distance_to_envelope_is_zero_inside_a_band(defaults):
    import linkstat.design

    (iv,) = opening_interval(sweep(defaults))
    for angle in (iv.lo, 0.0, iv.hi):
        assert linkstat.design._distance_to_envelope_deg((iv,), angle) == 0.0
    assert linkstat.design._distance_to_envelope_deg((iv,), iv.hi + rad(1.0)) == pytest.approx(1.0)


def test_optimizer_clips_start_into_bounds(defaults):
    spec = DesignSpec(
        interval_lo=rad(-10.0),
        interval_hi=rad(15.0),
        press_angle=rad(-15.0),
        threshold_lo=3.0,
        threshold_hi=8.0,
        free=("theta2",),
        bounds={"theta2": (rad(20.0), rad(30.0))},
    )
    result = optimize_design(spec, defaults, budget=50)
    assert rad(20.0) <= result.parameters.theta2 <= rad(30.0)


def test_optimizer_rejects_bad_budget(defaults):
    with pytest.raises(ValueError, match="budget"):
        optimize_design(reachable_spec(), defaults, budget=0)


def test_evaluate_design_needs_few_verdicts(defaults, kernel_calls):
    # The envelope computes verdicts only around the roots of its sign
    # functions, and a bisection midpoint only next to a root; the
    # reference build takes 10 plus one at the press direction, where a
    # full 241-point sweep plus bisection took 253.
    ev = evaluate_design(reachable_spec(), defaults)
    assert 0 < len(kernel_calls) <= 16
    assert ev.intervals == opening_interval(sweep(defaults))


def fresh_bisection(p, grid, intervals, tolerance=rad(0.01)):
    """Every midpoint a bisection of each refined edge visits when each
    gets a verdict of its own, computed here without the kernel."""
    midpoints = []
    for iv in intervals:
        for edge, refined, is_lo in ((iv.lo, iv.lo_refined, True), (iv.hi, iv.hi_refined, False)):
            if not refined:
                continue
            if is_lo:  # grid[k - 1] < lo <= grid[k]
                k = bisect_left(grid, edge)
                closed, opened = grid[k - 1], grid[k]
            else:  # grid[k] <= hi < grid[k + 1]
                k = bisect_right(grid, edge) - 1
                closed, opened = grid[k + 1], grid[k]
            while abs(opened - closed) > tolerance:
                mid = 0.5 * (closed + opened)
                if mid == closed or mid == opened:
                    break
                midpoints.append(mid)
                if predict_opening(p, mid).opens:
                    opened = mid
                else:
                    closed = mid
            assert opened == edge
    return midpoints


def test_verify_computes_a_verdict_at_every_grid_point(defaults, kernel_calls):
    # Re-verification must not lean on the envelope's root inference:
    # a verdict at every grid point and at every bisection midpoint,
    # plus one at the press direction.
    import linkstat.design

    spec = DesignSpec(
        interval_lo=rad(-5.0), interval_hi=rad(5.0), press_angle=0.0,
        threshold_lo=0.0, threshold_hi=100.0, free=("l3",), bounds={"l3": (1.0, 50.0)},
    )
    record = linkstat.design._verify(spec, defaults)
    verified = list(kernel_calls)
    curve = sweep(defaults)
    intervals = opening_interval(curve)
    midpoints = fresh_bisection(defaults, curve.zetas, intervals)
    assert len(midpoints) > 0
    assert set(curve.zetas) <= set(verified)
    assert set(midpoints) <= set(verified)
    assert len(verified) == len(curve.zetas) + len(midpoints) + 1
    iv = intervals[0]
    assert (record.interval_lo, record.interval_hi) == (iv.lo, iv.hi)

    # opening_interval likewise computes every midpoint of its bisection.
    kernel_calls.clear()
    assert opening_interval(curve) == intervals
    assert sorted(kernel_calls) == sorted(midpoints)


def bits(values):
    """Floats as exact bits: == cannot tell -0.0 from 0.0."""
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


def result_bits(result):
    """Every field of a DesignResult, floats as exact bits."""
    return (
        result.status,
        bits(result.parameters),
        result.evaluations,
        result.penalty.hex(),
        result.violations,
        None if result.verification is None else bits(result.verification),
    )


SCALE_BOUNDS = {
    "spring_k": (0.3, 1.5),
    "theta2": (rad(10.0), rad(30.0)),
    "natural_length": (5.0, 14.5),  # past the ~13.98 mm stretch f_k < 0
    "l0": (8.0, 14.0),
    "l1": (18.0, 30.0),
}


def scale_spec(free, band):
    """Band [-8, 12] deg, press at 0 deg, switching band ``band``, ``free`` searched."""
    return DesignSpec(
        interval_lo=rad(-8.0), interval_hi=rad(12.0), press_angle=0.0,
        threshold_lo=band[0], threshold_hi=band[1],
        free=free, bounds={name: SCALE_BOUNDS[name] for name in free},
    )


@pytest.mark.parametrize(
    "free, band",
    [
        (("spring_k",), (6.0, 8.0)),
        (("spring_k", "theta2"), (6.0, 8.0)),
        (("natural_length",), (0.01, 0.02)),  # tries builds with f_k < 0
        (("natural_length",), (20.0, 30.0)),  # infeasible
        (("l0",), (6.0, 8.0)),
        (("l1",), (6.0, 8.0)),
    ],
)
def test_search_reusing_the_envelope_matches_a_fresh_search(defaults, monkeypatch, free, band):
    # A spring-scale move takes the best build's envelope instead of
    # computing its own; with the guard refusing, every trial computes it.
    import linkstat.design

    spec = scale_spec(free, band)
    envelopes = []
    computed = linkstat.design._envelope
    monkeypatch.setattr(
        linkstat.design, "_envelope", lambda *args: envelopes.append(args) or computed(*args)
    )
    reused = optimize_design(spec, defaults)
    with_reuse = len(envelopes)
    monkeypatch.setattr(linkstat.design, "_spring_scale_keeps_verdicts", lambda *args: False)
    envelopes.clear()
    fresh = optimize_design(spec, defaults)
    assert result_bits(reused) == result_bits(fresh)
    assert len(envelopes) == fresh.evaluations
    assert with_reuse < fresh.evaluations


def test_every_score_reads_the_candidates_own_envelope(defaults, monkeypatch):
    # Over searches that try builds with f_k < 0 and move the geometry
    # between spring moves, each candidate is scored with the envelope it
    # would compute itself, and the guard is asked once per geometry a
    # spring move starts from.
    import linkstat.design

    design = linkstat.design
    scored, keeps, scalable = (
        design._scored, design._spring_scale_keeps_verdicts, design._spring_scalable)
    checked, asked, moved = [], [], []

    def checked_score(spec, p, intervals):
        checked.append(p)
        own = design._envelope(p, design._GRID, rad(0.01))
        assert list(map(bits, intervals)) == list(map(bits, own))
        return scored(spec, p, intervals)

    def asked_keeps(p, lo, hi):
        asked.append(p.theta2)
        return keeps(p, lo, hi)

    def moved_scalable(p):
        ok = scalable(p)
        if ok:
            moved.append(p.theta2)
        return ok

    monkeypatch.setattr(design, "_scored", checked_score)
    monkeypatch.setattr(design, "_spring_scale_keeps_verdicts", asked_keeps)
    monkeypatch.setattr(design, "_spring_scalable", moved_scalable)
    for free, band in ((("natural_length",), (0.01, 0.02)), (("spring_k", "theta2"), (6.0, 8.0))):
        checked.clear()
        asked.clear()
        moved.clear()
        result = optimize_design(scale_spec(free, band), defaults)
        assert len(checked) == result.evaluations
        assert len(set(asked)) == len(asked)
        assert set(moved) == set(asked)
    assert len(asked) > 1  # the theta2 search moved springs from several geometries


# ---------------------------------------------------------------------------
# re-verification from the search's envelope

GRID_STEP = rad(0.5)


def verify_spec(lo_deg, hi_deg, press_deg=0.0, threshold=(0.0, 100.0)):
    return DesignSpec(
        interval_lo=rad(lo_deg), interval_hi=rad(hi_deg), press_angle=rad(press_deg),
        threshold_lo=threshold[0], threshold_hi=threshold[1],
        free=("l3",), bounds={"l3": (1.0, 50.0)},
    ).validated()


def verified(spec, p, hint=()):
    """What _verify gives: its record as exact bits, or its error's type and text."""
    import linkstat.design

    try:
        return bits(linkstat.design._verify(spec, p, hint))
    except RuntimeError as exc:
        return type(exc), str(exc)


def own_envelope(p):
    import linkstat.design

    return linkstat.design._envelope(p, linkstat.design._GRID, rad(0.01))


# The reference build with theta2 doubled opens from the lower end of the
# default range, -30 deg, to about 19.6 deg.
def low_end_build():
    p = default_parameters()
    return p.with_values(theta2=2.0 * p.theta2)


@pytest.mark.parametrize("build, band", [(None, (-5.0, 5.0)), (low_end_build, (-30.0, 10.0))])
def test_hinted_verify_computes_verdicts_on_the_covering_run_only(
    defaults, kernel_calls, build, band
):
    # A verdict at each grid point of the run, at each grid neighbour that
    # exists, at every bisection midpoint and at the press direction.
    import linkstat.design

    grid = linkstat.design._GRID
    p = defaults if build is None else build()
    spec = verify_spec(*band)
    hint = own_envelope(p)
    (iv,) = hint
    kernel_calls.clear()
    record = linkstat.design._verify(spec, p, hint)
    hinted = list(kernel_calls)
    first, last = bisect_left(grid, iv.lo), bisect_right(grid, iv.hi) - 1
    neighbours = [i for i in (first - 1, last + 1) if 0 <= i < len(grid)]
    midpoints = fresh_bisection(p, grid, hint)
    expected = [grid[i] for i in range(first, last + 1)] + [grid[i] for i in neighbours]
    assert sorted(hinted) == sorted(expected + midpoints + [spec.press_angle])
    assert len(neighbours) == (2 if build is None else 1)
    assert iv.lo_refined == (build is None) and iv.hi_refined
    assert bits(record) == verified(spec, p)
    assert len(hinted) < len(grid) // 2


def test_search_verifies_on_the_covering_run(defaults, kernel_calls, monkeypatch):
    # optimize_design hands _verify the envelope the search scored the
    # answer with, so its re-verification takes no full sweep.
    import linkstat.design

    spec = reachable_spec()
    swept = []
    every_point = linkstat.design.sweep_points
    verify = linkstat.design._verify

    def spied_verify(spec, p, hint=()):
        kernel_calls.clear()
        swept.append(hint)
        return verify(spec, p, hint)

    monkeypatch.setattr(linkstat.design, "_verify", spied_verify)
    monkeypatch.setattr(linkstat.design, "sweep_points",
                        lambda *args: swept.append("full sweep") or every_point(*args))
    result = optimize_design(spec, defaults)
    assert result.feasible
    (hint,) = swept
    assert hint == own_envelope(result.parameters)
    assert len(kernel_calls) < len(linkstat.design._GRID) // 2


def shifted(iv, lo=0.0, hi=0.0):
    return iv._replace(lo=iv.lo + lo, hi=iv.hi + hi)


@pytest.mark.parametrize(
    "band, hint",
    [
        # No hint interval covers the band.
        ((-5.0, 5.0), lambda env: ()),
        ((30.0, 60.0), lambda env: env),
        # The covering hint interval holds no grid point.
        ((0.1, 0.2), lambda env: (OpeningInterval(rad(0.05), rad(0.3), True, True),)),
        # A grid point inside the hint does not open.
        ((-5.0, 5.0), lambda env: (shifted(env[0], lo=-GRID_STEP),)),
        ((-5.0, 5.0), lambda env: (shifted(env[0], hi=GRID_STEP),)),
        # A grid neighbour of the hint's points opens.
        ((-5.0, 5.0), lambda env: (shifted(env[0], lo=GRID_STEP),)),
        ((-5.0, 5.0), lambda env: (shifted(env[0], hi=-GRID_STEP),)),
        # The run is confirmed, but its refined edge falls short of the
        # band, which reaches past the true edge at -12.516 deg.
        ((-12.6, 5.0), lambda env: (shifted(env[0], lo=rad(-0.2)),)),
    ],
)
def test_a_refused_hint_falls_back_to_the_full_sweep(defaults, monkeypatch, band, hint):
    import linkstat.design

    spec = verify_spec(*band)
    hint = hint(own_envelope(defaults))
    expected = verified(spec, defaults)
    swept = []
    every_point = linkstat.design.sweep_points
    monkeypatch.setattr(linkstat.design, "sweep_points",
                        lambda *args: swept.append(args) or every_point(*args))
    assert verified(spec, defaults, hint) == expected
    assert len(swept) == 1


def test_an_accepted_hint_takes_no_full_sweep(defaults, monkeypatch):
    import linkstat.design

    spec = verify_spec(-5.0, 5.0)
    expected = verified(spec, defaults)
    monkeypatch.setattr(linkstat.design, "sweep_points", None)
    for hint in (own_envelope(defaults), (shifted(own_envelope(defaults)[0], lo=rad(-0.2)),)):
        assert verified(spec, defaults, hint) == expected


SCATTERED_FIELDS = ("l0", "l1", "l2", "l3", "l4", "theta0", "theta1", "theta2",
                    "theta3", "theta4", "theta5", "spring_k", "natural_length", "mu")
SCATTER = st.lists(st.floats(min_value=-0.2, max_value=0.2), min_size=14, max_size=14)
FRACTION = st.floats(min_value=0.0, max_value=1.0)


def scattered(scales):
    base = default_parameters()
    return base.with_values(
        **{name: getattr(base, name) * (1.0 + s) for name, s in zip(SCATTERED_FIELDS, scales)}
    )


@given(
    scales=SCATTER,
    other_scales=SCATTER,
    where=st.sampled_from(["inside", "inside", "inside", "anywhere"]),
    band=st.tuples(FRACTION, FRACTION),
    press=FRACTION,
    threshold=st.tuples(st.floats(min_value=0.0, max_value=8.0), FRACTION),
)
@settings(max_examples=150)
def test_hinted_verify_equals_the_full_sweep(scales, other_scales, where, band, press, threshold):
    # For builds scattered +-20 % and random target bands, every hint
    # gives the record or the error of the full sweep.
    p = scattered(scales)
    if not validate_parameters(p).ok:
        p = default_parameters()
    other = scattered(other_scales)
    if not validate_parameters(other).ok:
        other = default_parameters()
    own = own_envelope(p)
    # A band inside the build's widest interval, or anywhere in the range,
    # the lower fraction mapped to the lower edge.
    lo_deg, hi_deg = -30.0, 90.0
    if where == "inside" and own:
        lo_deg, hi_deg = math.degrees(own[0].lo), math.degrees(own[0].hi)
    u, v = sorted(band)
    span = hi_deg - lo_deg
    band_lo, band_hi = lo_deg + u * span, lo_deg + max(v * span, u * span + 0.01)
    if band_hi > 90.0:
        band_lo, band_hi = 89.99, 90.0
    spec = verify_spec(band_lo, band_hi, band_lo + press * (band_hi - band_lo),
                       (threshold[0], threshold[0] + 20.0 * threshold[1]))
    cover = [iv for iv in own if iv.lo <= spec.interval_lo and iv.hi >= spec.interval_hi]
    iv = (cover or own or [OpeningInterval(spec.interval_lo, spec.interval_hi, True, True)])[0]
    hints = [own, (), own_envelope(other), (shifted(iv, lo=-GRID_STEP, hi=GRID_STEP),),
             (shifted(iv, lo=rad(-0.2), hi=rad(0.2)),)]
    hints += [(shifted(iv, **{edge: d}),) for edge in ("lo", "hi") for d in (-GRID_STEP, GRID_STEP)]
    expected = verified(spec, p)
    for hint in hints:
        assert verified(spec, p, hint) == expected
