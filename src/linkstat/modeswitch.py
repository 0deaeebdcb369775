"""Press-direction sweeps and the grip/turn-over switching decision.

A sweep walks the press direction across a range and records the opening
verdict at each sample.  Contiguous runs of opening samples form the
opening envelope; its boundaries are sharpened by bisection on the
underlying verdict function, not by interpolating the samples.
:func:`envelope` returns the same envelope without sampling the whole
grid: the verdict can only change where one of a few
``a*cos(zeta) + b*sin(zeta)`` sign functions crosses zero, so only the
grid points around those roots need a verdict of their own, and a
bisection midpoint needs one only when it lies next to a root or
between two; every other midpoint takes the known verdict of the
bracket end it shares a root-free stretch with.  The sweep, the envelope
and the design search's re-verification find runs by one rule
(:func:`_runs`), which refuses when a verdict changes across grid points
it was not given.  Verdicts come from the statics' batch kernel
(:func:`~linkstat.statics._decide_all`): a sweep's points, or those the
envelope needs, go to it in one call, and each bisection midpoint
through its one-point case.  The same roots tell the design search when
a move that only scales the spring moments keeps every verdict
(:func:`_spring_scale_keeps_verdicts`).  A sweep keeps one
:class:`~linkstat.statics.OpeningDecision` per sample, and the envelope
sweeps wherever :func:`_roots_by_function` does not trust the roots.
On top of that sit the operational questions: how hard must the finger
be pressed to flip into turn-over mode, and how much grip force is safe
to apply without flipping accidentally.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from .model import (
    DEFAULT_SWEEP_HI,
    DEFAULT_SWEEP_LO,
    DEFAULT_SWEEP_STEP,
    LinkageParameters,
    spring_force,
    sweep_grid,
)
from .statics import (
    _DET_RELATIVE_FLOOR,
    _OPENS,
    _VERDICT_ENUMS,
    OpeningDecision,
    _build_terms,
    _decide,
    _decide_all,
    _opening_decision,
)

__all__ = [
    "GraspMode",
    "NotOpeningError",
    "OpeningInterval",
    "SweepCurve",
    "SweepSample",
    "envelope",
    "opening_interval",
    "parallel_grip_budget",
    "select_mode",
    "sweep",
    "sweep_points",
    "switching_threshold",
]

DEFAULT_REFINE_TOL = math.radians(0.01)
# Fraction of the switching threshold that a planned parallel grip may use.
DEFAULT_GRIP_MARGIN = 0.8


class NotOpeningError(RuntimeError):
    """The requested press direction never swings the finger open."""


class SweepSample(NamedTuple):
    zeta: float
    decision: OpeningDecision


class SweepCurve(NamedTuple):
    """Ordered opening verdicts over a set of press directions."""

    params: LinkageParameters
    samples: tuple[SweepSample, ...]

    @property
    def zetas(self) -> tuple[float, ...]:
        return tuple(s.zeta for s in self.samples)

    @property
    def opening_count(self) -> int:
        return sum(1 for s in self.samples if s.decision.opens)


def sweep_points(p: LinkageParameters, zetas: Iterable[float]) -> SweepCurve:
    """Evaluate the opening verdict at explicitly given press directions.

    Sample order follows the input order; ``zetas`` is read once, so a
    generator or a numpy array serves as well as a list.  The verdict
    kernel gets every press direction in one call; each decision, and
    the ValueError of a non-finite one, is
    :func:`~linkstat.statics.predict_opening`'s.
    """
    zetas = tuple(zetas)
    if not zetas:
        raise ValueError("at least one press direction is required")
    return SweepCurve(
        params=p,
        samples=tuple(
            SweepSample(zeta=z, decision=_opening_decision(p, z, verdict))
            for z, verdict in zip(zetas, _decide_all(p, zetas))
        ),
    )


def sweep(
    p: LinkageParameters,
    zeta_lo: float = DEFAULT_SWEEP_LO,
    zeta_hi: float = DEFAULT_SWEEP_HI,
    step: float = DEFAULT_SWEEP_STEP,
) -> SweepCurve:
    """Sweep the press direction over a closed grid.

    Both endpoints are always sampled: a degenerate range yields a single
    sample and a step wider than the range yields just the two ends.
    """
    return sweep_points(p, sweep_grid(zeta_lo, zeta_hi, step))


class OpeningInterval(NamedTuple):
    """One contiguous band of press directions that open the finger.

    Endpoints are refined transition angles except where the band runs
    into the swept range boundary, flagged by the ``*_refined`` fields.
    A named tuple, so immutable.
    """

    lo: float
    hi: float
    lo_refined: bool
    hi_refined: bool

    @property
    def width(self) -> float:
        return self.hi - self.lo


# Points this close (radians) to a computed root are always given a
# verdict of their own, so rounding in the root cannot hide a transition.
_ROOT_WINDOW = 1e-7
# A sign function whose amplitude is below this fraction of the size of
# the terms summed into it is too cancelled to trust its roots; the
# envelope then falls back to a verdict at every grid point.
_CANCELLATION_FLOOR = 1e-6
# A det reads singular near its roots, where it falls below the singular
# floor.  That band must lie well inside the root window, so a det whose
# floor reaches this fraction of its amplitude falls back the same way:
# at a distance d from a root the det is at least amplitude*sin(d).
_FLOOR_REACH = 0.5 * math.sin(_ROOT_WINDOW)


def _runs(
    indices: Iterable[int], opens: Iterable[bool]
) -> list[tuple[int, int]] | None:
    """First and last grid index of each run of opening points, in order.

    ``indices`` are ascending grid indices, read from the first to the
    last, and ``opens`` the verdicts at them.  A grid point between two
    given ones takes their verdict, so None when the verdict changes
    between two given indices that are not adjacent.
    """
    runs: list[tuple[int, int]] = []
    start = previous = -1
    was_open = False
    for i, flag in zip(indices, opens):
        if flag != was_open:
            if previous >= 0 and i > previous + 1:
                return None
            if flag:
                start = i
            else:
                runs.append((start, previous))
            was_open = flag
        previous = i
    if was_open:
        runs.append((start, previous))
    return runs


def _root_free(roots: Sequence[float], a: float, b: float) -> bool:
    """Whether no root lies between ``a`` and ``b`` or within the root window of them."""
    lo, hi = (a, b) if a < b else (b, a)
    lo -= _ROOT_WINDOW
    hi += _ROOT_WINDOW
    for r in roots:
        if lo <= r <= hi:
            return False
    return True


def _bisect_transition(
    p: LinkageParameters,
    closed_side: float,
    open_side: float,
    tolerance: float,
    roots: Sequence[float] | None = None,
) -> float:
    """Shrink a bracket with one opening and one non-opening end.

    Returns the opening-side end of the final bracket, so reported
    interval endpoints always carry an opening verdict themselves.
    Given the sorted ``roots`` of the sign functions, a midpoint whose
    segment to one end of the bracket holds no root, within the root
    window, takes that end's verdict, and only the other midpoints get a
    verdict of their own.  Without roots, or when none lies in the
    bracket, every midpoint is computed.
    """
    near: Sequence[float] = ()
    if roots:
        lo, hi = sorted((closed_side, open_side))
        near = roots[
            bisect_left(roots, lo - _ROOT_WINDOW) : bisect_right(roots, hi + _ROOT_WINDOW)
        ]
    while abs(open_side - closed_side) > tolerance:
        mid = 0.5 * (closed_side + open_side)
        if mid == closed_side or mid == open_side:
            break
        if near and _root_free(near, closed_side, mid):
            closed_side = mid
        elif near and _root_free(near, mid, open_side):
            open_side = mid
        elif _decide(p, mid)[0] == _OPENS:
            open_side = mid
        else:
            closed_side = mid
    return open_side


def _refine_runs(
    p: LinkageParameters,
    zetas: Sequence[float],
    runs: Sequence[tuple[int, int]],
    tolerance: float,
    roots: Sequence[float] | None = None,
) -> tuple[OpeningInterval, ...]:
    """Turn runs of opening grid points into refined intervals, widest first.

    ``roots`` is passed on to :func:`_bisect_transition`.  Raises
    ValueError for a non-finite or negative ``tolerance``; zero bisects
    each edge to float resolution.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(
            f"refine tolerance must be finite and >= 0, got {tolerance!r}"
        )
    intervals: list[OpeningInterval] = []
    for first, last in runs:
        if first == 0:
            lo, lo_refined = zetas[0], False
        else:
            lo = _bisect_transition(p, zetas[first - 1], zetas[first], tolerance, roots)
            lo_refined = True
        if last == len(zetas) - 1:
            hi, hi_refined = zetas[-1], False
        else:
            hi = _bisect_transition(p, zetas[last + 1], zetas[last], tolerance, roots)
            hi_refined = True
        intervals.append(
            OpeningInterval(lo=lo, hi=hi, lo_refined=lo_refined, hi_refined=hi_refined)
        )

    intervals.sort(key=lambda iv: (-iv.width, iv.lo))
    return tuple(intervals)


def opening_interval(
    curve: SweepCurve, tolerance: float = DEFAULT_REFINE_TOL
) -> tuple[OpeningInterval, ...]:
    """Extract the opening envelope from a sweep, widest interval first.

    Ties on width break toward the lower interval.  Returns an empty
    tuple when no sample opens.  Every bisection midpoint gets a verdict
    of its own.
    """
    return _refine_runs(
        curve.params,
        curve.zetas,
        _runs(range(len(curve.samples)), [s.decision.opens for s in curve.samples]),
        tolerance,
    )


def _sign_functions(p: LinkageParameters) -> list[tuple[float, float, float, float]]:
    """Every function of the press direction whose sign the verdict reads.

    Each is an ``(a, b, size, floor)`` tuple for ``a*cos(zeta) +
    b*sin(zeta)``, with ``size`` bounding the terms summed into it and
    ``floor`` bounding the magnitude below which the verdict reads
    something other than its sign: the singular floor for a det, zero
    for the others.  In :func:`~linkstat.statics.assemble_system` only
    a00 and a10 depend on zeta, both through such terms, and the xi
    numerator does not depend on it at all.  So the verdict is fixed
    between roots of a00 (probe force f_rx), of a10 (f_sx, the sign of
    the tip moment ratio), of the beta numerator (the same on both
    friction branches) and of det on each branch (singularity, the sign
    of xi, and with the beta numerator the branch choice).  Where beta is
    zero both branches share xi = b0/a00, so a root of the beta numerator
    alone never flips ``opens``; it is kept so that every sign the
    decision reads is fixed between computed points.  The (a, b) pairs of
    a00 and a10 are the statics' own per-build terms, the closed forms the
    kernel evaluates, and those terms refuse every build that validation
    refuses.  The beta numerator comes last.
    """
    t = _build_terms(p)
    s13, s34 = t.s13, t.s34
    # Sizes: the tip moment ratio's terms l4*cos(z) and l3*sin(theta2 + z)
    # over its divisor, times s13 or s34; a00 adds sin(theta1 - z).
    g_size = (abs(p.l4) + abs(p.l3)) / abs(t.arm)
    a00 = (*t.a00, abs(s13) * g_size + 1.0)
    a10 = (*t.a10, abs(s34) * g_size)
    functions = [(*a00, 0.0), (*a10, 0.0)]
    # det = a11*a00 - s13*a10 on each branch, and the beta numerator
    # b1*a00 - b0*a10; a01 = s13, a11 and b do not depend on zeta.  A det
    # reads singular below _DET_RELATIVE_FLOOR times the squared row
    # scale, max(hypot(a00, a01), hypot(a10, a11)), which the sizes bound.
    for u, v, is_det in (
        (t.plus, s13, True),
        (t.minus, s13, True),
        (t.b1, t.b0, False),
    ):
        row_scale_sq = max(a00[2] ** 2 + s13 * s13, a10[2] ** 2 + u * u)
        functions.append(
            (
                u * a00[0] - v * a10[0],
                u * a00[1] - v * a10[1],
                abs(u) * a00[2] + abs(v) * a10[2],
                _DET_RELATIVE_FLOOR * row_scale_sq if is_det else 0.0,
            )
        )
    return functions


def _roots_by_function(
    p: LinkageParameters, lo: float, hi: float
) -> list[list[float]] | None:
    """Zeros of each sign function within [lo, hi], widened by the root window.

    One list per function of :func:`_sign_functions`, in its order, each
    ascending.  The one rule for trusting the roots: None when the sign
    functions cannot be formed (the build's terms raise ValueError for a
    build that validation refuses, or a size squared overflows), an
    amplitude, size or floor is not finite, a sign function is too
    cancelled to trust, or a det's floor could reach past the root
    window; the envelope then sweeps.
    """
    try:
        functions = _sign_functions(p)
    except (ValueError, OverflowError):
        return None
    groups: list[list[float]] = []
    for a, b, size, floor in functions:
        amplitude = math.hypot(a, b)
        if not (math.isfinite(amplitude) and math.isfinite(size) and math.isfinite(floor)):
            return None
        if amplitude == 0.0 and size == 0.0:
            groups.append([])  # identically zero, so its sign never changes
            continue
        if amplitude < _CANCELLATION_FLOOR * size or floor >= _FLOOR_REACH * amplitude:
            return None
        # a*cos(z) + b*sin(z) = R*cos(z - atan2(b, a)) vanishes pi/2 past the phase.
        first = math.atan2(b, a) + 0.5 * math.pi
        k_lo = math.ceil((lo - _ROOT_WINDOW - first) / math.pi)
        k_hi = math.floor((hi + _ROOT_WINDOW - first) / math.pi)
        groups.append([first + k * math.pi for k in range(k_lo, k_hi + 1)])
    return groups


# A spring-scale move leaves xi's numerator b0*a11 - s13*b1 (the same at
# every press direction) its computed sign when the numerator clears this
# fraction of the size of its two terms.
_SCALE_MARGIN = 1e-9
# Spring moments kept within these magnitudes, so that their products
# with the matrix entries neither underflow nor overflow.
_MOMENT_MIN = 2.0 ** -256
_MOMENT_MAX = 2.0 ** 256


def _spring_scalable(p: LinkageParameters) -> bool:
    """Whether ``p`` pulls the finger shut with spring moments of ordinary size.

    True when the spring force is positive and both spring moments b0,
    b1 lie within [2**-256, 2**256] in magnitude.  Two such builds of one
    geometry have spring moments that differ by one positive factor, up
    to a few roundings in each.  ``p`` must validate, else ValueError.
    """
    if not spring_force(p) > 0.0:
        return False
    t = _build_terms(p)
    return all(_MOMENT_MIN <= abs(b) <= _MOMENT_MAX for b in (t.b0, t.b1))


def _spring_scale_keeps_verdicts(p: LinkageParameters, lo: float, hi: float) -> bool:
    """Whether a spring-scale move from ``p`` keeps every verdict in [lo, hi].

    A spring-scale move changes only spring_k, natural_length, l0 or l1,
    from and to builds that :func:`_spring_scalable` accepts.  It
    multiplies (b0, b1) by one positive factor, up to a few roundings in
    each, and leaves the geometry alone.  The verdict's status is then
    the same at every press direction in [lo, hi], bit for bit, when this
    returns True:

    * a00, a10, a01, a11 and det of each branch, the singular floor and
      the probe forces f_rx, f_sx do not read b, so the singular and
      probe-force verdicts cannot change;
    * on a fixed branch s, sign(xi) = sign(N_s)*sign(det_s), where
      N_s = b0*a11_s - s13*b1 does not depend on the press direction.
      Its computed sign is exact when |N_s| clears _SCALE_MARGIN of
      |b0*a11_s| + |s13*b1|, which is checked on both branches;
    * the branch choice reads the sign of the beta numerator
      b1*a00 - b0*a10, which rounding can flip only within far less than
      the root window of its root.  At that root beta is zero on both
      branches, so both give xi = b0/a00, and the status could differ
      only if another sign function (a00, a10 or a det, which includes
      its singular band) changed sign there too.  So no root of the beta
      numerator in [lo, hi] may lie within twice the root window of a
      root of any other sign function, and :func:`_roots_by_function`
      must trust the roots.

    Equal statuses at every press direction give equal grid verdicts and
    equal bisections, so :func:`envelope`, which equals
    ``opening_interval(sweep(...))`` bit for bit, returns the same
    intervals for both builds.  False also when ``p`` is not
    :func:`_spring_scalable`.
    """
    if not _spring_scalable(p):
        return False
    groups = _roots_by_function(p, lo, hi)
    if groups is None:
        return False
    t = _build_terms(p)
    b0, b1, s13 = t.b0, t.b1, t.s13
    for a11 in (t.plus, t.minus):
        if not abs(b0 * a11 - s13 * b1) > _SCALE_MARGIN * (abs(b0 * a11) + abs(s13 * b1)):
            return False
    *others, beta_roots = groups  # the beta numerator is the last sign function
    reach = 2.0 * _ROOT_WINDOW
    return not any(
        abs(r - q) <= reach for r in beta_roots for group in others for q in group
    )


def envelope(
    p: LinkageParameters,
    zeta_lo: float = DEFAULT_SWEEP_LO,
    zeta_hi: float = DEFAULT_SWEEP_HI,
    step: float = DEFAULT_SWEEP_STEP,
    tolerance: float = DEFAULT_REFINE_TOL,
) -> tuple[OpeningInterval, ...]:
    """The opening envelope of the grid sweep, without sampling every point.

    Returns exactly ``opening_interval(sweep(p, zeta_lo, zeta_hi, step),
    tolerance)``.  Verdicts are computed only at the two range ends and
    at the grid points bracketing each root of the sign functions the
    verdict reads; every other grid point takes the verdict of the
    computed points around it, since no sign changes between them, and
    :func:`_runs` reads the runs from the computed points alone.  The
    edges are bisected as in :func:`opening_interval`, but a midpoint
    whose segment to one end of the bracket holds no root takes that
    end's verdict, so only a midpoint within the root window of a root,
    or between two roots, gets a verdict of its own.  If two computed
    grid points around an uncomputed stretch disagree, or
    :func:`_roots_by_function` does not trust the roots, the full sweep
    runs instead: every grid point and every midpoint gets its own
    verdict, and a build the sweep refuses raises the sweep's error.
    """
    return _envelope(p, sweep_grid(zeta_lo, zeta_hi, step), tolerance)


def _envelope(
    p: LinkageParameters, grid: Sequence[float], tolerance: float
) -> tuple[OpeningInterval, ...]:
    """:func:`envelope` on a built grid, with :func:`_runs` over the probed verdicts."""
    groups = _roots_by_function(p, grid[0], grid[-1])
    if groups is not None:
        roots = sorted(r for group in groups for r in group)
        last = len(grid) - 1
        probes = {0, last}
        for root in roots:
            first = max(bisect_right(grid, root - _ROOT_WINDOW) - 1, 0)
            past = min(bisect_left(grid, root + _ROOT_WINDOW), last)
            probes.update(range(first, past + 1))
        order = sorted(probes)
        verdicts = _decide_all(p, [grid[i] for i in order])
        runs = _runs(order, [v[0] == _OPENS for v in verdicts])
        if runs is not None:
            return _refine_runs(p, grid, runs, tolerance, roots)
    return opening_interval(sweep_points(p, grid), tolerance)


def switching_threshold(p: LinkageParameters, press_angle: float) -> float:
    """Contact force in N that flips the finger into turn-over mode.

    Raises :class:`NotOpeningError` when pressing along ``press_angle``
    cannot open the finger at any force level.
    """
    code, xi = _decide(p, press_angle)[:2]
    if code != _OPENS:
        reason = _VERDICT_ENUMS[code][1]
        raise NotOpeningError(
            f"press direction {math.degrees(press_angle):.6g} deg does not "
            f"open the finger ({reason.value})"
        )
    return xi


class GraspMode(Enum):
    PARALLEL_GRIP = "parallel_grip"
    TURN_OVER = "turn_over"


def select_mode(applied_force: float, threshold: float) -> GraspMode:
    """Which mode a given applied contact force lands in.

    The boundary belongs to turn-over: applying exactly the threshold
    force flips the finger.
    """
    if not math.isfinite(applied_force) or applied_force < 0.0:
        raise ValueError(f"applied force must be finite and >= 0, got {applied_force}")
    if not math.isfinite(threshold) or threshold < 0.0:
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
    return GraspMode.TURN_OVER if applied_force >= threshold else GraspMode.PARALLEL_GRIP


def parallel_grip_budget(threshold: float) -> float:
    """Largest grip force to plan for while staying safely below flip.

    That is :data:`DEFAULT_GRIP_MARGIN` of the threshold, a 20 percent
    guard band.
    """
    if not math.isfinite(threshold) or threshold < 0.0:
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
    return DEFAULT_GRIP_MARGIN * threshold
