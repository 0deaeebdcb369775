"""Design-space search over the finger linkage parameters.

The design question is always the same shape: find parameters whose
opening envelope covers a target band of press directions and whose
switching force at a chosen press direction lands inside a target range.
A derivative-free coordinate pattern search handles it; the objective is
a penalty built from the opening envelope, so there is no gradient to
trust.  Each candidate is scored with :func:`~linkstat.modeswitch.envelope`,
which returns the envelope of the full grid sweep bit for bit but computes
verdicts only around the few press directions where one can change
(10 instead of 253 on the reference build: no bisection midpoint there
lies next to a root, so every one takes a known verdict).  A move of
``spring_k``, ``natural_length``, ``l0`` or ``l1`` only scales the
spring moments (b0, b1) on the balance's right-hand side, which changes
no verdict's status while the spring force stays positive; such a move
keeps the best build's envelope wherever
:func:`~linkstat.modeswitch._spring_scale_keeps_verdicts` accepts its
geometry, and computes one fresh verdict, at the press direction.

The search is deterministic: no randomness, fixed iteration order, and a
Feasible verdict is always re-verified before being returned, on the
same grid (the default range, built once), with fresh verdicts and no
inference from roots: at every grid point of the run the search's
envelope says covers the target band, at the run's two grid neighbours,
at every bisection midpoint of its edges and at the press direction.  A
run that opens between two closed neighbours is a run of the full
sweep, and its refined edges are the full sweep's, so the record is the
one a verdict at every grid point would give; when the run is not
confirmed, the full sweep gives every grid point a verdict, and only it
builds verdict objects: scoring and the confirmed run read the verdict
kernel (:func:`~linkstat.statics._decide_all`, or its one-point case
:func:`~linkstat.statics._decide`).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from enum import Enum
from typing import NamedTuple

from .model import (
    _ANGLE_FIELDS,
    _FREE_FIELDS,
    DEFAULT_BUDGET,
    DesignSpec,
    LinkageParameters,
    sweep_grid,
    validate_parameters,
)
from .modeswitch import (
    DEFAULT_REFINE_TOL,
    OpeningInterval,
    _envelope,
    _refine_runs,
    _runs,
    _spring_scalable,
    _spring_scale_keeps_verdicts,
    opening_interval,
    sweep_points,
    switching_threshold,
)
from .statics import _OPENS, _decide, _decide_all

__all__ = [
    "DesignEvaluation",
    "DesignResult",
    "DesignStatus",
    "VerificationRecord",
    "evaluate_design",
    "optimize_design",
    "sensitivity",
]

# Initial pattern steps, halved whenever a full pass fails to improve.
_INITIAL_STEP_ANGLE = math.radians(1.0)
_INITIAL_STEP_LENGTH = 0.5
_INITIAL_STEP_RATE = 0.05
_INITIAL_STEP_MU = 0.05
_STEP_SHRINK_LIMIT = 64  # stop once steps fall below initial/64

# Penalty weights: degrees of missing envelope coverage count 1:1, each
# newton outside the switching band costs ten. A blocked press direction
# costs the whole band top plus a small shaping term pulling the press
# angle toward the nearest existing envelope.
_INTERVAL_WEIGHT = 1.0
_THRESHOLD_WEIGHT = 10.0
_BLOCKED_SHAPING_PER_DEG = 0.01

# Central-difference step of sensitivity(), relative to the field's size.
_SENSITIVITY_REL_STEP = 1e-6

# The fields a spring-scale move changes: they enter the 2x2 balance only
# through its spring moments (b0, b1), which they scale by one factor.
_SPRING_SCALE_FIELDS = frozenset({"spring_k", "natural_length", "l0", "l1"})

# The one grid candidates are scored and re-verified on: the default range.
_GRID = tuple(sweep_grid(DesignSpec.sweep_lo, DesignSpec.sweep_hi, DesignSpec.sweep_step))


def _initial_step(name: str) -> float:
    if name in _ANGLE_FIELDS:
        return _INITIAL_STEP_ANGLE
    if name == "spring_k":
        return _INITIAL_STEP_RATE
    if name == "mu":
        return _INITIAL_STEP_MU
    return _INITIAL_STEP_LENGTH


def sensitivity(p: LinkageParameters, name: str, zeta: float) -> float:
    """Central-difference sensitivity of the balance force to one field.

    The step is 1e-6 of the field magnitude (floored at 1 so near-zero
    fields still move).  All three evaluation points must open;
    otherwise the derivative of the switching force is undefined there
    and :class:`~linkstat.modeswitch.NotOpeningError` propagates.
    """
    if name not in _FREE_FIELDS:
        raise ValueError(
            f"unknown design field {name!r}; choose one of "
            f"{sorted(_FREE_FIELDS)}"
        )
    value = getattr(p, name)
    h = _SENSITIVITY_REL_STEP * max(abs(value), 1.0)
    switching_threshold(p, zeta)
    up = switching_threshold(p.with_values(**{name: value + h}), zeta)
    down = switching_threshold(p.with_values(**{name: value - h}), zeta)
    return (up - down) / (2.0 * h)


def _containment_shortfall_deg(
    intervals: tuple[OpeningInterval, ...], lo: float, hi: float
) -> float:
    """Degrees by which the best interval misses containing [lo, hi]."""
    if not intervals:
        return math.degrees(hi - lo) + 30.0
    best = math.inf
    for iv in intervals:
        miss = max(0.0, math.degrees(iv.lo - lo)) + max(0.0, math.degrees(hi - iv.hi))
        best = min(best, miss)
    return best


def _distance_to_envelope_deg(
    intervals: tuple[OpeningInterval, ...], angle: float
) -> float:
    if not intervals:
        return 30.0
    best = math.inf
    for iv in intervals:
        if iv.lo <= angle <= iv.hi:
            return 0.0
        gap = iv.lo - angle if angle < iv.lo else angle - iv.hi
        best = min(best, math.degrees(gap))
    return best


class DesignEvaluation(NamedTuple):
    """Penalty breakdown for one candidate parameter set."""

    penalty: float
    interval_shortfall_deg: float
    threshold_violation_n: float
    press_opens: bool
    threshold: float | None
    intervals: tuple[OpeningInterval, ...]
    violations: tuple[str, ...]


# The score of a candidate that does not validate.
_INVALID = DesignEvaluation(
    penalty=math.inf,
    interval_shortfall_deg=math.inf,
    threshold_violation_n=math.inf,
    press_opens=False,
    threshold=None,
    intervals=(),
    violations=("candidate parameters do not validate",),
)


def evaluate_design(spec: DesignSpec, p: LinkageParameters) -> DesignEvaluation:
    """Score a candidate against the target.  Zero penalty means feasible."""
    if not validate_parameters(p).ok:
        return _INVALID
    return _scored(spec, p, _envelope(p, _GRID, DEFAULT_REFINE_TOL))


def _scored(
    spec: DesignSpec, p: LinkageParameters, intervals: tuple[OpeningInterval, ...]
) -> DesignEvaluation:
    """Score a validated candidate whose opening envelope is ``intervals``."""
    shortfall = _containment_shortfall_deg(
        intervals, spec.interval_lo, spec.interval_hi
    )

    violations: list[str] = []
    if shortfall > 0.0:
        violations.append(
            f"opening envelope misses the target band by {shortfall:.3g} deg"
        )

    code, t = _decide(p, spec.press_angle)[:2]
    press_opens = code == _OPENS
    if press_opens:
        violation_n = max(0.0, spec.threshold_lo - t) + max(
            0.0, t - spec.threshold_hi
        )
        if violation_n > 0.0:
            violations.append(
                f"switching force {t:.4g} N sits outside "
                f"[{spec.threshold_lo:.4g}, {spec.threshold_hi:.4g}] N"
            )
        threshold: float | None = t
    else:
        gap = _distance_to_envelope_deg(intervals, spec.press_angle)
        violation_n = max(1.0, spec.threshold_hi) + _BLOCKED_SHAPING_PER_DEG * gap
        violations.append(
            f"press direction {math.degrees(spec.press_angle):.4g} deg is blocked "
            f"({gap:.3g} deg outside the nearest opening band)"
        )
        threshold = None

    penalty = _INTERVAL_WEIGHT * shortfall + _THRESHOLD_WEIGHT * violation_n
    return DesignEvaluation(
        penalty=penalty,
        interval_shortfall_deg=shortfall,
        threshold_violation_n=violation_n,
        press_opens=press_opens,
        threshold=threshold,
        intervals=intervals,
        violations=tuple(violations),
    )


class DesignStatus(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"


class VerificationRecord(NamedTuple):
    """Fresh confirmation attached to every Feasible verdict."""

    interval_lo: float
    interval_hi: float
    threshold: float


class DesignResult(NamedTuple):
    status: DesignStatus
    parameters: LinkageParameters
    evaluations: int
    penalty: float
    violations: tuple[str, ...]
    verification: VerificationRecord | None

    @property
    def feasible(self) -> bool:
        return self.status is DesignStatus.FEASIBLE


def _clip(value: float, lo: float, hi: float) -> float:
    return min(max(value, lo), hi)


def _covering(
    intervals: tuple[OpeningInterval, ...], spec: DesignSpec
) -> OpeningInterval | None:
    """The first of ``intervals`` that contains the target band, if any."""
    for iv in intervals:
        if iv.lo <= spec.interval_lo and iv.hi >= spec.interval_hi:
            return iv
    return None


def _confirmed_cover(
    spec: DesignSpec, p: LinkageParameters, hint: tuple[OpeningInterval, ...]
) -> OpeningInterval | None:
    """The full sweep's interval covering the target band, found from ``hint``.

    Takes the first hint interval that covers the band and the grid
    points ``first..last`` inside it, and computes a fresh verdict at
    each of them and at each grid neighbour, ``first - 1`` and
    ``last + 1``, that exists.  When :func:`~linkstat.modeswitch._runs`
    reads the one run ``(first, last)`` from them, it is a maximal run of
    the full sweep, and its edges are bisected with a verdict at every
    midpoint, as the full sweep bisects them.  Returns that refined
    interval when it covers the band.  None when no hint interval covers
    the band, a verdict disagrees (always so when the covering interval
    holds no grid point) or the refined interval falls short.  The hint
    only says where to look; no verdict is taken from it.
    """
    iv = _covering(hint, spec)
    if iv is None:
        return None
    first = bisect_left(_GRID, iv.lo)
    last = bisect_right(_GRID, iv.hi) - 1
    start, stop = max(first - 1, 0), min(last + 2, len(_GRID))
    verdicts = _decide_all(p, _GRID[start:stop])
    if _runs(range(start, stop), [v[0] == _OPENS for v in verdicts]) != [(first, last)]:
        return None
    return _covering(_refine_runs(p, _GRID, [(first, last)], DEFAULT_REFINE_TOL), spec)


def _verify(
    spec: DesignSpec,
    p: LinkageParameters,
    hint: tuple[OpeningInterval, ...] = (),
) -> VerificationRecord:
    """Re-check a feasible candidate with fresh verdicts and no root inference.

    ``hint`` is the candidate's envelope as the search scored it.  The
    covering run it points to is confirmed by :func:`_confirmed_cover`,
    which computes a fresh verdict at the run's grid points, at its two
    grid neighbours and at every bisection midpoint of its edges.
    Without a hint, or when that check fails, every grid point and every
    midpoint gets a fresh verdict from the public full sweep, which
    builds verdict objects (:func:`~linkstat.modeswitch.sweep_points`).
    The switching force gets one fresh verdict at the press direction.
    Every verdict comes from the scalar kernel on the grid the envelope
    reads; none is inferred from the sign-function roots that
    :func:`~linkstat.modeswitch.envelope` relies on, so a fault there
    cannot pass unnoticed.

    The record, and the RuntimeError raised when a check fails, are
    those of the full sweep for every hint, given a validated ``spec``:
    a confirmed run is a maximal run of the full sweep, its refined edges
    depend only on its own brackets, and the full sweep's refined
    intervals are disjoint, so at most one of them covers the band.  The
    hint decides only how much work is done.
    """
    best = _confirmed_cover(spec, p, hint)
    if best is None:
        intervals = opening_interval(sweep_points(p, _GRID), DEFAULT_REFINE_TOL)
        best = _covering(intervals, spec)
        if best is None:
            raise RuntimeError(
                "feasible candidate failed re-verification of envelope coverage"
            )
    t = switching_threshold(p, spec.press_angle)
    if not (spec.threshold_lo <= t <= spec.threshold_hi):
        raise RuntimeError(
            "feasible candidate failed re-verification of the switching band"
        )
    return VerificationRecord(interval_lo=best.lo, interval_hi=best.hi, threshold=t)


def optimize_design(
    spec: DesignSpec,
    start: LinkageParameters,
    budget: int = DEFAULT_BUDGET,
) -> DesignResult:
    """Coordinate pattern search for a feasible design.

    Walks one free parameter at a time, trying +step then -step, clipped
    to bounds; accepted moves restart nothing, the pass simply continues.
    A full pass with no improvement halves every step, and the search
    stops when steps fall below 1/64 of their initial size, the penalty
    reaches zero, or the evaluation budget runs out.

    A trial that moves ``spring_k``, ``natural_length``, ``l0`` or ``l1``
    from a validated best build is scored with the best build's envelope
    when both builds have a positive spring force of ordinary size and
    the best build's geometry passes
    :func:`~linkstat.modeswitch._spring_scale_keeps_verdicts`, asked once
    per geometry.  Such a move scales (b0, b1) by one positive factor and
    leaves every verdict's status as it was, so the envelope is the one
    :func:`evaluate_design` would compute, bit for bit; the trial still
    runs :func:`~linkstat.model.validate_parameters` and a fresh verdict
    at the press direction, and counts as an evaluation.  Every other
    trial is :func:`evaluate_design`.

    A feasible answer is re-verified by :func:`_verify`, given the
    envelope the answer was scored with: fresh verdicts at the grid
    points of its run covering the target band, at the run's two grid
    neighbours, at every bisection midpoint and at the press direction,
    or at every grid point and midpoint when that run is not confirmed.
    The verification record, or the RuntimeError when re-verification
    fails, is the one a verdict at every grid point gives.
    """
    spec = spec.validated()
    if budget < 1:
        raise ValueError(f"evaluation budget must be >= 1, got {budget}")

    for name in spec.free:
        lo, hi = spec.bounds[name]
        start = start.with_values(**{name: _clip(getattr(start, name), lo, hi)})

    steps = {name: _initial_step(name) for name in spec.free}
    floor = {name: step / _STEP_SHRINK_LIMIT for name, step in steps.items()}

    evaluations = 0
    # Whether a spring-scale move from best_p keeps its envelope: computed
    # on the first such move, and reset whenever a candidate that built
    # an envelope of its own is accepted.
    keeps_envelope: bool | None = None

    def scored(
        candidate: LinkageParameters, name: str | None = None
    ) -> tuple[DesignEvaluation, bool]:
        """The candidate's score, and whether it took best's envelope."""
        nonlocal evaluations, keeps_envelope
        evaluations += 1
        if (
            name in _SPRING_SCALE_FIELDS
            and best is not _INVALID
            and validate_parameters(candidate).ok
            and _spring_scalable(candidate)
        ):
            if keeps_envelope is None:
                keeps_envelope = _spring_scale_keeps_verdicts(
                    best_p, _GRID[0], _GRID[-1]
                )
            if keeps_envelope:
                return _scored(spec, candidate, best.intervals), True
        return evaluate_design(spec, candidate), False

    best_p = start
    best, _ = scored(best_p)

    while best.penalty > 0.0 and evaluations < budget:
        improved = False
        for name in spec.free:
            lo, hi = spec.bounds[name]
            for direction in (1.0, -1.0):
                if evaluations >= budget or best.penalty == 0.0:
                    break
                moved = _clip(
                    getattr(best_p, name) + direction * steps[name], lo, hi
                )
                if moved == getattr(best_p, name):
                    continue
                candidate = best_p.with_values(**{name: moved})
                trial, reused = scored(candidate, name)
                if trial.penalty < best.penalty:
                    if not reused:
                        keeps_envelope = None
                    best_p, best = candidate, trial
                    improved = True
                    break
        if not improved:
            steps = {name: 0.5 * step for name, step in steps.items()}
            if all(steps[name] < floor[name] for name in spec.free):
                break

    if best.penalty == 0.0:
        record = _verify(spec, best_p, best.intervals)
        return DesignResult(
            status=DesignStatus.FEASIBLE,
            parameters=best_p,
            evaluations=evaluations,
            penalty=0.0,
            violations=(),
            verification=record,
        )
    return DesignResult(
        status=DesignStatus.INFEASIBLE,
        parameters=best_p,
        evaluations=evaluations,
        penalty=best.penalty,
        violations=best.violations,
        verification=None,
    )
