import math
from bisect import bisect_left, bisect_right

import pytest

import linkstat.statics

from linkstat import (
    DesignSpec,
    DesignStatus,
    NotOpeningError,
    evaluate_design,
    opening_interval,
    optimize_design,
    predict_opening,
    sensitivity,
    solve_balance,
    sweep,
    switching_threshold,
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
        DesignSpec(**{**spec.__dict__, "free": ()}).validated()
    with pytest.raises(ValueError, match="bounds"):
        DesignSpec(**{**spec.__dict__, "bounds": {}}).validated()
    with pytest.raises(ValueError, match="searchable"):
        DesignSpec(**{**spec.__dict__, "free": ("epsilon",)}).validated()
    with pytest.raises(ValueError, match="band"):
        DesignSpec(**{**spec.__dict__, "threshold_lo": 9.0}).validated()


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


@pytest.fixture
def kernel_calls(monkeypatch):
    """Press directions of every kernel verdict, counted at the names its
    callers look it up by."""
    import linkstat.design
    import linkstat.modeswitch

    calls = []
    kernel, batch = linkstat.statics._decide, linkstat.statics._decide_all

    def counted(p, zeta):
        calls.append(zeta)
        return kernel(p, zeta)

    def counted_batch(p, zetas):
        zetas = list(zetas)
        calls.extend(zetas)
        return batch(p, zetas)

    for module in (linkstat.modeswitch, linkstat.design):
        monkeypatch.setattr(module, "_decide", counted)
    monkeypatch.setattr(linkstat.modeswitch, "_decide_all", counted_batch)
    return calls


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
