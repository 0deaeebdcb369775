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
lies next to a root, so every one takes a known verdict).

The search is deterministic: no randomness, fixed iteration order, and a
Feasible verdict is always re-verified before being returned, with a
fresh verdict at every grid point and no inference from roots.  Scoring
and re-verification both read the verdict kernel
(:func:`~linkstat.statics._decide_all`, one call for all of a grid's
points, or its one-point case :func:`~linkstat.statics._decide`) and
build no verdict objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Mapping

from .model import _ANGLE_FIELDS, LinkageParameters, validate_parameters
from .modeswitch import (
    DEFAULT_REFINE_TOL,
    DEFAULT_SWEEP_HI,
    DEFAULT_SWEEP_LO,
    DEFAULT_SWEEP_STEP,
    OpeningInterval,
    _grid,
    _swept_intervals,
    envelope,
    switching_threshold,
)
from .statics import _OPENS, _decide

__all__ = [
    "DesignEvaluation",
    "DesignResult",
    "DesignSpec",
    "DesignStatus",
    "VerificationRecord",
    "evaluate_design",
    "optimize_design",
    "sensitivity",
]

# Parameters the search may vary.  The probe step epsilon only scales
# reported probe forces, never the verdict, so it is not a design knob.
_FREE_FIELDS = frozenset(f.name for f in fields(LinkageParameters)) - {"epsilon"}

# Evaluations a search may spend when neither caller nor design file says.
DEFAULT_BUDGET = 400

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


@dataclass(frozen=True)
class DesignSpec:
    """Target and search space for a design run.

    Angles radians, forces N.  The opening envelope must contain
    [interval_lo, interval_hi] and pressing along ``press_angle`` must
    flip the finger at a force inside [threshold_lo, threshold_hi].
    ``free`` lists the parameters the search may vary and ``bounds`` maps
    each of them to an inclusive (lo, hi) box.
    """

    interval_lo: float
    interval_hi: float
    press_angle: float
    threshold_lo: float
    threshold_hi: float
    free: tuple[str, ...]
    bounds: Mapping[str, tuple[float, float]]
    sweep_lo: float = DEFAULT_SWEEP_LO
    sweep_hi: float = DEFAULT_SWEEP_HI
    sweep_step: float = DEFAULT_SWEEP_STEP

    def validated(self) -> "DesignSpec":
        if not self.free:
            raise ValueError("at least one free parameter is required")
        unknown = [n for n in self.free if n not in _FREE_FIELDS]
        if unknown:
            raise ValueError(
                f"not searchable: {unknown}; allowed fields are "
                f"{sorted(_FREE_FIELDS)}"
            )
        if len(set(self.free)) != len(self.free):
            raise ValueError(f"duplicate free parameters in {self.free}")
        for name in self.free:
            if name not in self.bounds:
                raise ValueError(f"free parameter {name!r} has no bounds")
            lo, hi = self.bounds[name]
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
                raise ValueError(
                    f"bounds for {name!r} must be a finite ordered pair, "
                    f"got ({lo}, {hi})"
                )
        if not self.interval_lo < self.interval_hi:
            raise ValueError(
                "target interval is empty: "
                f"[{self.interval_lo}, {self.interval_hi}]"
            )
        if not (
            math.isfinite(self.threshold_lo)
            and math.isfinite(self.threshold_hi)
            and 0.0 <= self.threshold_lo <= self.threshold_hi
        ):
            raise ValueError(
                "switching band must satisfy 0 <= lo <= hi and be finite, "
                f"got [{self.threshold_lo}, {self.threshold_hi}]"
            )
        if not self.sweep_lo <= self.interval_lo or not self.interval_hi <= self.sweep_hi:
            raise ValueError("target interval must lie inside the sweep range")
        return self


def _deg(x: float) -> float:
    return math.degrees(x)


def _containment_shortfall_deg(
    intervals: tuple[OpeningInterval, ...], lo: float, hi: float
) -> float:
    """Degrees by which the best interval misses containing [lo, hi]."""
    if not intervals:
        return _deg(hi - lo) + 30.0
    best = math.inf
    for iv in intervals:
        miss = max(0.0, _deg(iv.lo - lo)) + max(0.0, _deg(hi - iv.hi))
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
        best = min(best, _deg(gap))
    return best


@dataclass(frozen=True, eq=False)
class DesignEvaluation:
    """Penalty breakdown for one candidate parameter set."""

    penalty: float
    interval_shortfall_deg: float
    threshold_violation_n: float
    press_opens: bool
    threshold: float | None
    intervals: tuple[OpeningInterval, ...]
    violations: tuple[str, ...]


def evaluate_design(spec: DesignSpec, p: LinkageParameters) -> DesignEvaluation:
    """Score a candidate against the target.  Zero penalty means feasible."""
    if not validate_parameters(p).ok:
        return DesignEvaluation(
            penalty=math.inf,
            interval_shortfall_deg=math.inf,
            threshold_violation_n=math.inf,
            press_opens=False,
            threshold=None,
            intervals=(),
            violations=("candidate parameters do not validate",),
        )

    intervals = envelope(p, spec.sweep_lo, spec.sweep_hi, spec.sweep_step)
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
            f"press direction {_deg(spec.press_angle):.4g} deg is blocked "
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


@dataclass(frozen=True, eq=False)
class VerificationRecord:
    """Fresh confirmation attached to every Feasible verdict."""

    interval_lo: float
    interval_hi: float
    threshold: float


@dataclass(frozen=True, eq=False)
class DesignResult:
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


def _verify(spec: DesignSpec, p: LinkageParameters) -> VerificationRecord:
    """Re-check a feasible candidate with a fresh verdict at every grid point.

    No verdict is inferred from the sign-function roots that
    :func:`~linkstat.modeswitch.envelope` relies on, so a fault there
    cannot pass unnoticed; the verdicts come from the scalar kernel, the
    grid is the one the envelope reads, and the edges are bisected as in
    :func:`~linkstat.modeswitch.opening_interval`, with a verdict at every
    midpoint.
    """
    grid = _grid(spec.sweep_lo, spec.sweep_hi, spec.sweep_step)
    intervals = _swept_intervals(p, grid, DEFAULT_REFINE_TOL)
    covering = [
        iv
        for iv in intervals
        if iv.lo <= spec.interval_lo and iv.hi >= spec.interval_hi
    ]
    if not covering:
        raise RuntimeError(
            "feasible candidate failed re-verification of envelope coverage"
        )
    t = switching_threshold(p, spec.press_angle)
    if not (spec.threshold_lo <= t <= spec.threshold_hi):
        raise RuntimeError(
            "feasible candidate failed re-verification of the switching band"
        )
    best = covering[0]
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

    def scored(candidate: LinkageParameters) -> DesignEvaluation:
        nonlocal evaluations
        evaluations += 1
        return evaluate_design(spec, candidate)

    best_p = start
    best = scored(best_p)

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
                trial = scored(candidate)
                if trial.penalty < best.penalty:
                    best_p, best = candidate, trial
                    improved = True
                    break
            if evaluations >= budget or best.penalty == 0.0:
                break
        if best.penalty == 0.0 or evaluations >= budget:
            break
        if not improved:
            steps = {name: 0.5 * step for name, step in steps.items()}
            if all(steps[name] < floor[name] for name in spec.free):
                break

    if best.penalty == 0.0:
        record = _verify(spec, best_p)
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
