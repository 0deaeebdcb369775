"""Press-direction sweeps and the grip/turn-over switching decision.

A sweep walks the press direction across a range and records the opening
verdict at each sample.  Contiguous runs of opening samples form the
opening envelope; its boundaries are sharpened by bisection on the
underlying verdict function, not by interpolating the samples.
:func:`envelope` returns the same envelope without sampling the whole
grid: the verdict can only change where one of a few
``a*cos(zeta) + b*sin(zeta)`` sign functions crosses zero, so only the
grid points around those roots need a verdict of their own.  On top of
that sit the operational questions: how hard must the finger be pressed
to flip into turn-over mode, and how much grip force is safe to apply
without flipping accidentally.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from .model import LinkageParameters
from .statics import (
    _OPENS,
    _VERDICT_ENUMS,
    OpeningDecision,
    _build_terms,
    _decide,
    predict_opening,
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
    "sweep_grid",
    "sweep_points",
    "switching_threshold",
]

DEFAULT_SWEEP_LO_DEG = -30.0
DEFAULT_SWEEP_HI_DEG = 90.0
DEFAULT_SWEEP_STEP_DEG = 0.5
DEFAULT_SWEEP_LO = math.radians(DEFAULT_SWEEP_LO_DEG)
DEFAULT_SWEEP_HI = math.radians(DEFAULT_SWEEP_HI_DEG)
DEFAULT_SWEEP_STEP = math.radians(DEFAULT_SWEEP_STEP_DEG)
DEFAULT_REFINE_TOL = math.radians(0.01)

# Most steps a sweep grid may span.  A default sweep spans 240, and each
# sample holds a full verdict, so this keeps a mistyped step from
# allocating without bound.
MAX_GRID_STEPS = 100_000


class NotOpeningError(RuntimeError):
    """The requested press direction never swings the finger open."""


@dataclass(frozen=True, eq=False)
class SweepSample:
    zeta: float
    decision: OpeningDecision


@dataclass(frozen=True, eq=False)
class SweepCurve:
    """Ordered opening verdicts over a set of press directions."""

    params: LinkageParameters
    samples: tuple[SweepSample, ...]

    @property
    def zetas(self) -> tuple[float, ...]:
        return tuple(s.zeta for s in self.samples)

    @property
    def opening_count(self) -> int:
        return sum(1 for s in self.samples if s.decision.opens)


def sweep_points(p: LinkageParameters, zetas: Sequence[float]) -> SweepCurve:
    """Evaluate the opening verdict at explicitly given press directions.

    Sample order follows the input order.
    """
    if not zetas:
        raise ValueError("at least one press direction is required")
    return SweepCurve(
        params=p,
        samples=tuple(SweepSample(zeta=z, decision=predict_opening(p, z)) for z in zetas),
    )


def sweep_grid(lo: float, hi: float, step: float) -> list[float]:
    """Closed grid from ``lo`` to ``hi`` by ``step``, both ends included.

    Works in any angle unit.  Raises ValueError for a non-finite, reversed
    or zero-step range, and for one spanning more than MAX_GRID_STEPS
    steps, which is checked before anything is allocated.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise ValueError(f"range must be finite: [{lo}, {hi}] by {step}")
    if hi < lo:
        raise ValueError(f"range is reversed: [{lo}, {hi}]")
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if hi == lo:
        return [lo]
    steps = (hi - lo) / step
    if not steps <= MAX_GRID_STEPS:  # negated so that an overflow to inf fails too
        raise ValueError(
            f"grid spans more than {MAX_GRID_STEPS} steps: [{lo}, {hi}] by {step}"
        )
    count = int(math.floor(steps + 1e-9))
    points = [lo + i * step for i in range(count + 1)]
    if hi - points[-1] > 1e-9 * step:
        points.append(hi)
    else:
        points[-1] = min(points[-1], hi)
    return points


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


@dataclass(frozen=True)
class OpeningInterval:
    """One contiguous band of press directions that open the finger.

    Endpoints are refined transition angles except where the band runs
    into the swept range boundary, flagged by the ``*_refined`` fields.
    """

    lo: float
    hi: float
    lo_refined: bool
    hi_refined: bool

    @property
    def width(self) -> float:
        return self.hi - self.lo


def _bisect_transition(
    p: LinkageParameters,
    closed_side: float,
    open_side: float,
    tolerance: float,
) -> float:
    """Shrink a bracket with one opening and one non-opening end.

    Returns the opening-side end of the final bracket, so reported
    interval endpoints always carry an opening verdict themselves.
    """
    while abs(open_side - closed_side) > tolerance:
        mid = 0.5 * (closed_side + open_side)
        if mid == closed_side or mid == open_side:
            break
        if _decide(p, mid)[0] == _OPENS:
            open_side = mid
        else:
            closed_side = mid
    return open_side


def _refine_runs(
    p: LinkageParameters,
    zetas: Sequence[float],
    opens: Sequence[bool],
    tolerance: float,
) -> tuple[OpeningInterval, ...]:
    """Turn runs of opening grid points into refined intervals, widest first.

    Raises ValueError for a non-finite or negative ``tolerance``; zero
    bisects each edge to float resolution.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(
            f"refine tolerance must be finite and >= 0, got {tolerance!r}"
        )
    runs: list[tuple[int, int]] = []
    start: int | None = None
    for i, flag in enumerate(opens):
        if flag:
            if start is None:
                start = i
        elif start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(opens) - 1))

    intervals: list[OpeningInterval] = []
    for first, last in runs:
        if first == 0:
            lo, lo_refined = zetas[0], False
        else:
            lo = _bisect_transition(p, zetas[first - 1], zetas[first], tolerance)
            lo_refined = True
        if last == len(zetas) - 1:
            hi, hi_refined = zetas[-1], False
        else:
            hi = _bisect_transition(p, zetas[last + 1], zetas[last], tolerance)
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
    tuple when no sample opens.
    """
    return _refine_runs(
        curve.params,
        curve.zetas,
        [s.decision.opens for s in curve.samples],
        tolerance,
    )


# Grid points this close (radians) to a computed root are always given a
# verdict of their own, so rounding in the root cannot hide a transition.
_ROOT_WINDOW = 1e-7
# A sign function whose amplitude is below this fraction of the size of
# the terms summed into it is too cancelled to trust its roots; the
# envelope then falls back to a verdict at every grid point.
_CANCELLATION_FLOOR = 1e-6


class _Harmonic(NamedTuple):
    """``a*cos(zeta) + b*sin(zeta)``; ``size`` bounds the terms summed into it."""

    a: float
    b: float
    size: float


def _mix(*terms: tuple[float, _Harmonic]) -> _Harmonic:
    return _Harmonic(
        sum(c * h.a for c, h in terms),
        sum(c * h.b for c, h in terms),
        sum(abs(c) * h.size for c, h in terms),
    )


def _sign_functions(p: LinkageParameters) -> list[_Harmonic] | None:
    """Every function of the press direction whose sign the verdict reads.

    In :func:`~linkstat.statics.assemble_system` only a00 and a10 depend
    on zeta, both through ``a*cos(zeta) + b*sin(zeta)`` terms, and the xi
    numerator does not depend on it at all.  So the verdict is fixed
    between roots of a00 (probe force f_rx), of a10 (f_sx, the sign of
    the tip moment ratio), of the beta numerator (the same on both
    friction branches) and of det on each branch (singularity, the sign
    of xi, and with the beta numerator the branch choice).  Where beta
    is zero both branches share xi = b0/a00, so a root of the beta
    numerator alone never flips ``opens``; it is kept so that every sign
    the decision reads is fixed between computed points.  None when the
    tip moment ratio itself is undefined.  The press-independent entries
    are the statics' own per-build terms.
    """
    t = _build_terms(p)
    denom = t.denom
    if denom == 0.0:
        return None
    # tip_moment_ratio: (l4*cos(z) - l3*sin(theta2 + z)) / denom
    gamma = _Harmonic(
        (p.l4 - p.l3 * math.sin(p.theta2)) / denom,
        -p.l3 * math.cos(p.theta2) / denom,
        (abs(p.l4) + abs(p.l3)) / abs(denom),
    )
    tilt = _Harmonic(math.sin(p.theta1), -t.cos1, 1.0)  # sin(theta1 - z)
    a00 = _mix((t.s13, gamma), (1.0, tilt))
    a10 = _mix((t.s34, gamma))
    functions = [a00, a10]
    for sign in (1, -1):
        a11 = t.branch(sign)[1]  # a01 = s13, a11 and b do not depend on zeta
        functions.append(_mix((a11, a00), (-t.s13, a10)))  # det
    functions.append(_mix((t.b1, a00), (-t.b0, a10)))  # beta numerator
    return functions


def _roots(f: _Harmonic, lo: float, hi: float) -> list[float] | None:
    """Zeros of ``f`` within [lo, hi], widened by the root window.

    None when cancellation leaves the zeros untrustworthy.
    """
    amplitude = math.hypot(f.a, f.b)
    if not (math.isfinite(amplitude) and math.isfinite(f.size)):
        return None
    if amplitude == 0.0 and f.size == 0.0:
        return []  # identically zero, so its sign never changes
    if amplitude < _CANCELLATION_FLOOR * f.size:
        return None
    # a*cos(z) + b*sin(z) = R*cos(z - atan2(b, a)) vanishes pi/2 past the phase.
    first = math.atan2(f.b, f.a) + 0.5 * math.pi
    k_lo = math.ceil((lo - _ROOT_WINDOW - first) / math.pi)
    k_hi = math.floor((hi + _ROOT_WINDOW - first) / math.pi)
    return [first + k * math.pi for k in range(k_lo, k_hi + 1)]


def _grid_verdicts(p: LinkageParameters, grid: Sequence[float]) -> list[bool]:
    """A fresh opening verdict at every grid point, as flags."""
    return [_decide(p, z)[0] == _OPENS for z in grid]


def _inferred_verdicts(p: LinkageParameters, grid: list[float]) -> list[bool] | None:
    """Opening flags for every grid point from verdicts around the roots."""
    functions = _sign_functions(p)
    if functions is None:
        return None
    last = len(grid) - 1
    probes = {0, last}
    for f in functions:
        roots = _roots(f, grid[0], grid[-1])
        if roots is None:
            return None
        for root in roots:
            first = max(bisect_right(grid, root - _ROOT_WINDOW) - 1, 0)
            past = min(bisect_left(grid, root + _ROOT_WINDOW), last)
            probes.update(range(first, past + 1))

    order = sorted(probes)
    verdict = {i: _decide(p, grid[i])[0] == _OPENS for i in order}
    opens = [verdict[last]] * len(grid)
    for i, j in zip(order, order[1:]):
        if j > i + 1 and verdict[i] != verdict[j]:
            return None
        opens[i:j] = [verdict[i]] * (j - i)
    return opens


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
    computed points around it, since no sign changes between them.  If
    two computed points around an uncomputed stretch disagree, or a sign
    function is too cancelled to trust, every grid point gets its own
    verdict instead.  Edges are then bisected as in
    :func:`opening_interval`.
    """
    grid = sweep_grid(zeta_lo, zeta_hi, step)
    opens = _inferred_verdicts(p, grid)
    if opens is None:
        opens = _grid_verdicts(p, grid)
    return _refine_runs(p, grid, opens, tolerance)


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


def parallel_grip_budget(threshold: float, margin: float = 0.8) -> float:
    """Largest grip force to plan for while staying safely below flip.

    ``margin`` is the fraction of the threshold to allow; the default
    keeps a 20 percent guard band.
    """
    if not (0.0 < margin <= 1.0):
        raise ValueError(f"margin must lie in (0, 1], got {margin}")
    if not math.isfinite(threshold) or threshold < 0.0:
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
    return margin * threshold
