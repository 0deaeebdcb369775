"""Press-direction sweeps and the grip/turn-over switching decision.

A sweep walks the press direction across a range and records the opening
verdict at each sample.  Contiguous runs of opening samples form the
opening envelope; its boundaries are sharpened by bisection on the
underlying verdict function, not by interpolating the samples.  The
sweep, the root-inferred envelope of :mod:`linkstat.roots` and the
design search's re-verification find runs by one rule (:func:`_runs`),
which refuses when a verdict changes across grid points it was not
given, and sharpen them by one bisection (:func:`_bisect_transition`),
which takes a known verdict for a midpoint only when it is handed the
roots of the verdict's sign functions.  Verdicts come from the statics'
batch kernel (:func:`~linkstat.statics._decide_all`): a sweep's points
go to it in one call, and each bisection midpoint through its one-point
case.  A sweep keeps one :class:`~linkstat.statics.OpeningDecision` per
sample.

On top of the sweep sit the operational questions: how hard must the
finger be pressed to flip into turn-over mode, and how much grip force
is safe to apply without flipping accidentally.
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
    sweep_grid,
)
from .statics import (
    _OPENS,
    _VERDICT_ENUMS,
    OpeningDecision,
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

    The samples are read as a grid, so their press directions must be
    strictly ascending, as :func:`sweep` gives them; ValueError names
    the first pair that is not.  Ties on width break toward the lower
    interval.  Returns an empty tuple when no sample opens.  Every
    bisection midpoint gets a verdict of its own.
    """
    zetas = curve.zetas
    for k in range(1, len(zetas)):
        if not zetas[k - 1] < zetas[k]:
            raise ValueError(f"press directions must be strictly ascending: sample {k} "
                             f"({zetas[k]!r} rad) follows sample {k - 1} ({zetas[k - 1]!r} rad)")
    return _refine_runs(
        curve.params,
        zetas,
        _runs(range(len(curve.samples)), [s.decision.opens for s in curve.samples]),
        tolerance,
    )


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

