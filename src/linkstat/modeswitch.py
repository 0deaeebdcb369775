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
bracket end it shares a root-free stretch with.  Verdicts come from the
statics' batch kernel (:func:`~linkstat.statics._decide_all`): the grid
points the envelope needs go to it in one call, and each bisection
midpoint through its one-point case.  :func:`sweep` keeps one
:class:`~linkstat.statics.OpeningDecision` per sample for its callers.
On top of that sit the operational questions: how hard must the finger
be pressed to flip into turn-over mode, and how much grip force is safe
to apply without flipping accidentally.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from .model import LinkageParameters
from .statics import (
    _DET_RELATIVE_FLOOR,
    _OPENS,
    _VERDICT_ENUMS,
    OpeningDecision,
    _build_terms,
    _decide,
    _decide_all,
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
# Fraction of the switching threshold that a planned parallel grip may use.
DEFAULT_GRIP_MARGIN = 0.8

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


def _runs(opens: Sequence[bool]) -> list[tuple[int, int]]:
    """First and last index of each run of opening flags, in order."""
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
        _runs([s.decision.opens for s in curve.samples]),
        tolerance,
    )


def _sign_functions(
    p: LinkageParameters,
) -> list[tuple[float, float, float, float]] | None:
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
    decision reads is fixed between computed points.  None when the tip
    moment ratio itself is undefined.  The press-independent entries are
    the statics' own per-build terms.
    """
    t = _build_terms(p)
    denom = t.denom
    if denom == 0.0:
        return None
    # gamma = tip_moment_ratio: (l4*cos(z) - l3*sin(theta2 + z)) / denom
    g_a = (p.l4 - p.l3 * math.sin(p.theta2)) / denom
    g_b = -p.l3 * math.cos(p.theta2) / denom
    g_size = (abs(p.l4) + abs(p.l3)) / abs(denom)
    s13, s34 = t.s13, t.s34
    # a00 = s13*gamma + sin(theta1 - z);  a10 = s34*gamma
    a00 = (s13 * g_a + math.sin(p.theta1), s13 * g_b - t.cos1, abs(s13) * g_size + 1.0)
    a10 = (s34 * g_a, s34 * g_b, abs(s34) * g_size)
    functions = [(*a00, 0.0), (*a10, 0.0)]
    # det = a11*a00 - s13*a10 on each branch, and the beta numerator
    # b1*a00 - b0*a10; a01 = s13, a11 and b do not depend on zeta.  A det
    # reads singular below _DET_RELATIVE_FLOOR times the squared row
    # scale, max(hypot(a00, a01), hypot(a10, a11)), which the sizes bound.
    for u, v, is_det in (
        (t.branch(1), s13, True),
        (t.branch(-1), s13, True),
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


def _sorted_roots(p: LinkageParameters, lo: float, hi: float) -> list[float] | None:
    """Zeros of every sign function within [lo, hi], widened by the root window.

    Sorted.  None when a sign function is too cancelled to trust, or when
    its floor could reach past the root window.
    """
    functions = _sign_functions(p)
    if functions is None:
        return None
    roots: list[float] = []
    for a, b, size, floor in functions:
        amplitude = math.hypot(a, b)
        if not (math.isfinite(amplitude) and math.isfinite(size) and math.isfinite(floor)):
            return None
        if amplitude == 0.0 and size == 0.0:
            continue  # identically zero, so its sign never changes
        if amplitude < _CANCELLATION_FLOOR * size or floor >= _FLOOR_REACH * amplitude:
            return None
        # a*cos(z) + b*sin(z) = R*cos(z - atan2(b, a)) vanishes pi/2 past the phase.
        first = math.atan2(b, a) + 0.5 * math.pi
        k_lo = math.ceil((lo - _ROOT_WINDOW - first) / math.pi)
        k_hi = math.floor((hi + _ROOT_WINDOW - first) / math.pi)
        roots.extend(first + k * math.pi for k in range(k_lo, k_hi + 1))
    roots.sort()
    return roots


def _swept_intervals(
    p: LinkageParameters, grid: Sequence[float], tolerance: float
) -> tuple[OpeningInterval, ...]:
    """The envelope from a fresh verdict at every grid point and every midpoint."""
    opens = [v[0] == _OPENS for v in _decide_all(p, grid)]
    return _refine_runs(p, grid, _runs(opens), tolerance)


def _probed_runs(
    p: LinkageParameters, grid: Sequence[float], roots: Sequence[float]
) -> list[tuple[int, int]] | None:
    """Runs of opening grid points from verdicts at the ends and around the roots.

    Every grid point between two computed ones takes their verdict, so a
    run can start or end only between two adjacent computed points.
    None when two computed points around an uncomputed stretch disagree.
    """
    last = len(grid) - 1
    probes = {0, last}
    for root in roots:
        first = max(bisect_right(grid, root - _ROOT_WINDOW) - 1, 0)
        past = min(bisect_left(grid, root + _ROOT_WINDOW), last)
        probes.update(range(first, past + 1))
    order = sorted(probes)
    runs: list[tuple[int, int]] = []
    start = previous = -1
    was_open = False
    for i, verdict in zip(order, _decide_all(p, [grid[i] for i in order])):
        opens = verdict[0] == _OPENS
        if opens != was_open:
            if i > previous + 1:
                return None
            if opens:
                start = i
            else:
                runs.append((start, previous))
            was_open = opens
        previous = i
    if was_open:
        runs.append((start, last))
    return runs


# The grid of the latest envelope or re-verification, with the range it
# came from.  The key holds the sign and type of each end besides its
# value, since 0.0 == -0.0 and 0 == 0.0 but the end points they give the
# grid differ in bits.
_last_grid: tuple[tuple, tuple[float, ...]] | None = None


def _grid(lo: float, hi: float, step: float) -> tuple[float, ...]:
    """``sweep_grid(lo, hi, step)``, built once for repeated calls with one range."""
    global _last_grid
    key = (lo, hi, step, math.copysign(1.0, lo), math.copysign(1.0, hi), type(lo), type(hi))
    entry = _last_grid
    if entry is None or entry[0] != key:
        entry = _last_grid = (key, tuple(sweep_grid(lo, hi, step)))
    return entry[1]


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
    computed points around it, since no sign changes between them.  The
    edges are bisected as in :func:`opening_interval`, but a midpoint
    whose segment to one end of the bracket holds no root takes that
    end's verdict, so only a midpoint within the root window of a root,
    or between two roots, gets a verdict of its own.  If two computed
    grid points around an uncomputed stretch disagree, or a sign function
    is too cancelled to trust, or a det's singular band could reach past
    the root window, every grid point and every midpoint gets its own
    verdict instead.
    """
    grid = _grid(zeta_lo, zeta_hi, step)
    roots = _sorted_roots(p, grid[0], grid[-1])
    runs = None if roots is None else _probed_runs(p, grid, roots)
    if runs is None:
        return _swept_intervals(p, grid, tolerance)
    return _refine_runs(p, grid, runs, tolerance, roots)


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
