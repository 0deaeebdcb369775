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

The search is deterministic: no randomness, fixed iteration order.
Candidates are scored, and a Feasible verdict is re-verified by
:func:`_verify`, on one grid (the default range, built once).  Scoring
and re-verification read the verdict kernel
(:func:`~linkstat.statics._decide_all`, or its one-point case
:func:`~linkstat.statics._decide`); only re-verification's full-sweep
fallback builds verdict objects.
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


def _verify(
    spec: DesignSpec,
    p: LinkageParameters,
    hint: tuple[OpeningInterval, ...] = (),
) -> VerificationRecord:
    """Re-check a feasible candidate with fresh verdicts and no root inference.

    ``hint`` is the candidate's envelope as the search scored it, and
    only says where to look; no verdict is taken from it.  Its first
    interval that covers the target band holds the grid points
    ``first..last``; a fresh verdict at each of them and at each grid
    neighbour, ``first - 1`` and ``last + 1``, that exists confirms the
    run when :func:`~linkstat.modeswitch._runs` reads the one run
    ``(first, last)`` from them.  A confirmed run is a maximal run of the
    full sweep, and its edges are bisected with a verdict at every
    midpoint, as the full sweep bisects them.  Without a covering hint
    interval, when a verdict disagrees (always so when that interval
    holds no grid point) or when the refined run falls short of the
    band, every grid point and every midpoint gets a fresh verdict from
    the public full sweep, which builds verdict objects
    (:func:`~linkstat.modeswitch.sweep_points`).  The switching force
    gets one fresh verdict at the press direction.  Every verdict comes
    from the scalar kernel on the grid the envelope reads; none is
    inferred from the sign-function roots that
    :func:`~linkstat.modeswitch.envelope` relies on, so a fault there
    cannot pass unnoticed.

    The record, and the RuntimeError raised when a check fails, are
    those of the full sweep for every hint, given a validated ``spec``:
    a confirmed run is a maximal run of the full sweep, its refined edges
    depend only on its own brackets, and the full sweep's refined
    intervals are disjoint, so at most one of them covers the band.  The
    hint decides only how much work is done.
    """
    best = _covering(hint, spec)
    if best is not None:
        first = bisect_left(_GRID, best.lo)
        last = bisect_right(_GRID, best.hi) - 1
        start, stop = max(first - 1, 0), min(last + 2, len(_GRID))
        opens = [v[0] == _OPENS for v in _decide_all(p, _GRID[start:stop])]
        if _runs(range(start, stop), opens) == [(first, last)]:
            best = _covering(_refine_runs(p, _GRID, [(first, last)], DEFAULT_REFINE_TOL), spec)
        else:
            best = None
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

    A feasible answer is re-verified by :func:`_verify` from the
    envelope it was scored with; the record, or the RuntimeError, is the
    one a verdict at every grid point gives.
    """
    spec = spec.validated()
    if budget < 1:
        raise ValueError(f"evaluation budget must be >= 1, got {budget}")

    for name in spec.free:
        lo, hi = spec.bounds[name]
        start = start.with_values(**{name: _clip(getattr(start, name), lo, hi)})

    steps = {name: _initial_step(name) for name in spec.free}
    floor = {name: step / _STEP_SHRINK_LIMIT for name, step in steps.items()}

    best_p, best, evaluations = start, evaluate_design(spec, start), 1
    # Whether a spring-scale move from best_p keeps its envelope: asked on
    # the first such move, and forgotten whenever a candidate that built
    # an envelope of its own is accepted.
    keeps_envelope: bool | None = None

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
                evaluations += 1
                eligible = (
                    name in _SPRING_SCALE_FIELDS
                    and best is not _INVALID
                    and validate_parameters(candidate).ok
                    and _spring_scalable(candidate)
                )
                if eligible and keeps_envelope is None:
                    keeps_envelope = _spring_scale_keeps_verdicts(best_p, _GRID[0], _GRID[-1])
                reused = eligible and keeps_envelope
                trial = (_scored(spec, candidate, best.intervals) if reused
                         else evaluate_design(spec, candidate))
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

    feasible = best.penalty == 0.0  # then _scored added no violation
    return DesignResult(
        status=DesignStatus.FEASIBLE if feasible else DesignStatus.INFEASIBLE,
        parameters=best_p,
        evaluations=evaluations,
        penalty=best.penalty,
        violations=best.violations,
        verification=_verify(spec, best_p, best.intervals) if feasible else None,
    )
