"""Parameters, the spring force, their validation, the sweep range and the
design target for the parallel-link finger.

The finger is a planar six-bar linkage driven by a tension spring.  Two
equal-length side struts, O-R and O-S, hang from a common base pivot O,
a coupler R-Q rides on the left strut, and a slotted strut S-T slides
over a fixed pin T.  The spring stretches between two
anchors U and V on the outer links and pulls the finger shut.

All angles held by :class:`LinkageParameters` are radians and all lengths
are millimetres.  Degree values appear only at file and CLI boundaries,
always with an explicit ``_deg`` suffix.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

__all__ = [
    "DesignSpec",
    "LinkageParameters",
    "ParameterViolation",
    "ValidationReport",
    "default_parameters",
    "spring_force",
    "validate_parameters",
]

# Fields that measure a physical length and therefore must be positive.
_LENGTH_FIELDS = ("l0", "l1", "l2", "l3", "l4", "natural_length")

# Joint angle fields, each confined to the open interval (-pi/2, pi/2).
_ANGLE_FIELDS = ("theta0", "theta1", "theta2", "theta3", "theta4", "theta5")

_HALF_PI = math.pi / 2.0

# The default press-direction sweep, in the degrees the CLI and parameter
# files speak and in radians, and the grid every sweep is built on.  Kept
# here, beside the parameters, so that building the CLI's help and
# checking its grid need no solver.
DEFAULT_SWEEP_LO_DEG = -30.0
DEFAULT_SWEEP_HI_DEG = 90.0
DEFAULT_SWEEP_STEP_DEG = 0.5
DEFAULT_SWEEP_LO = math.radians(DEFAULT_SWEEP_LO_DEG)
DEFAULT_SWEEP_HI = math.radians(DEFAULT_SWEEP_HI_DEG)
DEFAULT_SWEEP_STEP = math.radians(DEFAULT_SWEEP_STEP_DEG)

# Most steps a sweep grid may span.  A default sweep spans 240, and each
# sample holds a full verdict, so this keeps a mistyped step from
# allocating without bound.
MAX_GRID_STEPS = 100_000


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


# The fields the tip moment ratio reads.
_TIP_RATIO_FIELDS = ("l2", "l3", "l4", "theta2", "theta3")

# The fields the spring moments b0, b1 of the 2x2 balance read.
_SPRING_MOMENT_FIELDS = ("l0", "l1", "theta0", "theta1", "theta4", "theta5",
                         "spring_k", "natural_length")


class LinkageParameters(NamedTuple):
    """One complete description of the finger linkage.

    Lengths in mm, angles in radians.  Construction is permissive; call
    :func:`validate_parameters` to get a full report of any violations.

    l0          spring-anchor offset along each outer link
    l1          length of both side struts
    l2          coupler length
    l3          slotted strut length from S to its far end
    l4          fingertip pad offset from the coupler line
    theta0      anchor offset angle on the left outer link
    theta1      left strut angle from the vertical
    theta2      slotted strut angle from the vertical
    theta3      coupler angle from the vertical
    theta4      right strut angle from the vertical
    theta5      anchor offset angle on the right outer link
    spring_k    spring rate in N/mm (zero means no spring)
    natural_length  unstretched spring length in mm
    mu          Coulomb friction coefficient at the slotted pin
    epsilon     probe force step in N used for perturbation studies
    """

    l0: float
    l1: float
    l2: float
    l3: float
    l4: float
    theta0: float
    theta1: float
    theta2: float
    theta3: float
    theta4: float
    theta5: float
    spring_k: float
    natural_length: float
    mu: float
    epsilon: float

    def with_values(self, **changes: float) -> "LinkageParameters":
        """Return a copy with the named fields replaced; ValueError names an unknown one."""
        return self._replace(**changes)

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self._fields, self))


class ParameterViolation(NamedTuple):
    """A single broken parameter rule."""

    field: str
    message: str


class ValidationReport(NamedTuple):
    violations: tuple[ParameterViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.ok:
            return "parameters ok"
        return "\n".join(f"{v.field}: {v.message}" for v in self.violations)


def spring_force(p: LinkageParameters) -> float:
    """Tension in the return spring with the finger closed, in N.

    The stretched length is modelled as the lateral projection of the two
    anchor offsets, l0*(sin(theta0+theta1) + sin(theta4+theta5)); the
    spring rate times the stretch past natural length gives the force.
    """
    stretched = p.l0 * (
        math.sin(p.theta0 + p.theta1) + math.sin(p.theta4 + p.theta5)
    )
    return p.spring_k * (stretched - p.natural_length)


def _spring_moments(p: LinkageParameters) -> tuple[float, float]:
    """(b0, b1), the 2x2 balance's spring moments; l1 must be nonzero."""
    f_k = spring_force(p)
    lever = p.l0 / p.l1
    return (lever * math.cos(p.theta0 + p.theta1) * f_k,
            -lever * math.cos(p.theta4 + p.theta5) * f_k)


def validate_parameters(p: LinkageParameters) -> ValidationReport:
    """Check every parameter rule and report all violations at once.

    Never raises: a report is returned even for wildly broken input, so a
    caller can show the user the complete list in one pass.
    """
    found: list[ParameterViolation] = []

    for name in _LENGTH_FIELDS:
        value = getattr(p, name)
        if not math.isfinite(value):
            found.append(ParameterViolation(name, f"must be finite, got {value!r}"))
        elif value <= 0.0:
            found.append(ParameterViolation(name, f"must be positive, got {value}"))

    for name in _ANGLE_FIELDS:
        value = getattr(p, name)
        if not math.isfinite(value):
            found.append(ParameterViolation(name, f"must be finite, got {value!r}"))
        elif not (-_HALF_PI < value < _HALF_PI):
            found.append(
                ParameterViolation(
                    name,
                    f"must lie strictly inside (-pi/2, pi/2) rad, got {value}",
                )
            )

    for name, floor in (("spring_k", 0.0), ("mu", 0.0), ("epsilon", 0.0)):
        value = getattr(p, name)
        if not math.isfinite(value):
            found.append(ParameterViolation(name, f"must be finite, got {value!r}"))
        elif value < floor:
            found.append(ParameterViolation(name, f"must be >= {floor}, got {value}"))

    # The rules below read many fields, so they read each once.
    l0, l1, l2, l3, l4, _, _, theta2, theta3, _, _, _, _, mu, _ = p

    # theta2 = -theta3 collapses the coupler moment arm: the pair is
    # degenerate even though each angle passes its own range check.  The
    # sum of two finite angles can overflow, and sin(inf) raises.
    if math.isfinite(theta2 + theta3) and math.sin(theta2 + theta3) == 0.0:
        found.append(
            ParameterViolation(
                "theta2",
                f"theta2 + theta3 = {theta2 + theta3} makes sin(theta2+theta3) vanish; "
                "the coupler transmits no moment (degenerate pair theta2, theta3)",
            )
        )

    # The tip moment ratio (l4*cos(zeta) - l3*sin(theta2+zeta)) over the
    # coupler moment arm l2*sin(theta2+theta3) overflows when l2 is tiny
    # (l2 = 5e-324 passes every rule above), and every verdict would then
    # read nan.  Its numerator is at most |l3| + |l4| in size; that bound
    # over the arm, evaluated here as statics._BuildTerms forms the arm,
    # is checked only when none of the fields it reads broke a rule above.
    if not found or {v.field for v in found}.isdisjoint(_TIP_RATIO_FIELDS):
        arm = l2 * math.sin(theta2 + theta3)
        bound = abs(l3) + abs(l4)
        if arm == 0.0 or not math.isfinite(bound / arm):
            found.append(
                ParameterViolation(
                    "l2",
                    f"l2*sin(theta2+theta3) = {arm!r} with l2 = {l2!r}: "
                    f"|l3| + |l4| = {bound!r} over it overflows the tip "
                    "moment ratio",
                )
            )

    # The slotted pin self-locks once the friction angle reaches the
    # slot's complement, mu >= cot|theta2|: the coupling denominator
    # -s*mu*sin(theta2) + cos(theta2) of branch s, evaluated here exactly
    # as statics.friction_coupling does, is then <= 0, and the sliding
    # balance no longer holds.
    if math.isfinite(theta2) and math.isfinite(mu):
        sin2, cos2 = math.sin(theta2), math.cos(theta2)
        for s in (1.0, -1.0):
            if -s * mu * sin2 + cos2 <= 0.0:
                found.append(
                    ParameterViolation(
                        "mu",
                        f"mu = {mu} with theta2 = {theta2} self-locks the slotted "
                        f"pin on the {s:+.0f} branch (mu >= cot|theta2|, so "
                        "-s*mu*sin(theta2) + cos(theta2) <= 0)",
                    )
                )

    # The 2x2 balance's right-hand side, the spring moment about each
    # base pivot over the strut length, overflows when l1 is tiny next to
    # l0 and the spring force (l1 = 1e-320 passes every rule above), and
    # every verdict would then read an infinite force.  b0 and b1 are the
    # solver's own, checked only when none of the fields they read broke a
    # rule above, so those are finite and l1 is positive.
    if not found or {v.field for v in found}.isdisjoint(_SPRING_MOMENT_FIELDS):
        b0, b1 = _spring_moments(p)
        if not (math.isfinite(b0) and math.isfinite(b1)):
            found.append(
                ParameterViolation(
                    "l1",
                    f"l0/l1 = {l0!r}/{l1!r} times the spring force "
                    f"overflows the spring moments (b0 = {b0!r}, b1 = {b1!r})",
                )
            )

    return ValidationReport(tuple(found))


def default_parameters() -> LinkageParameters:
    """Factory defaults for the reference finger build.

    The slotted strut length and pad offset are tied together: the pad
    offset is a 2.5 mm tip pad inclined 15 degrees off the coupler line,
    and the strut gains the matching projection.
    """
    tip_pad = 2.5
    tip_tilt = math.radians(15.0)
    l4 = tip_pad * math.cos(tip_tilt)
    return LinkageParameters(
        l0=10.93,
        l1=24.0,
        l2=12.0,
        l3=22.0 + l4 * math.sin(tip_tilt),
        l4=l4,
        theta0=math.radians(30.0),
        theta1=math.radians(9.0),
        theta2=math.radians(18.5),
        theta3=math.radians(15.0),
        theta4=math.radians(7.44),
        theta5=math.radians(33.1),
        spring_k=0.862,
        natural_length=9.7,
        mu=0.6,
        epsilon=0.1,
    )


# Parameters the search may vary.  The probe step epsilon only scales
# reported probe forces, never the verdict, so it is not a design knob.
_FREE_FIELDS = frozenset(LinkageParameters._fields) - {"epsilon"}

# Evaluations a search may spend when neither caller nor design file says.
DEFAULT_BUDGET = 400


class DesignSpec(NamedTuple):
    """Target and search space for a design run.

    Angles radians, forces N.  The opening envelope must contain
    [interval_lo, interval_hi] and pressing along ``press_angle`` must
    flip the finger at a force inside [threshold_lo, threshold_hi].
    ``free`` lists the parameters the search may vary and ``bounds`` maps
    each of them, and any other searchable field, to an inclusive
    (lo, hi) box.  The search range is fixed:
    ``sweep_lo``, ``sweep_hi`` and ``sweep_step`` are class constants.
    """

    interval_lo: float
    interval_hi: float
    press_angle: float
    threshold_lo: float
    threshold_hi: float
    free: tuple[str, ...]
    bounds: Mapping[str, tuple[float, float]]

    sweep_lo = DEFAULT_SWEEP_LO
    sweep_hi = DEFAULT_SWEEP_HI
    sweep_step = DEFAULT_SWEEP_STEP

    def validated(self) -> "DesignSpec":
        if not self.free:
            raise ValueError("at least one free parameter is required")
        # A bound may name a field that is not free, but not one no search varies.
        named = dict.fromkeys((*self.free, *self.bounds))
        unknown = [n for n in named if n not in _FREE_FIELDS]
        if unknown:
            raise ValueError(
                f"not searchable: {unknown}; allowed fields are "
                f"{sorted(_FREE_FIELDS)}"
            )
        if len(set(self.free)) != len(self.free):
            raise ValueError(f"duplicate free parameters in {self.free}")
        missing = [n for n in self.free if n not in self.bounds]
        if missing:
            raise ValueError(f"free parameter {missing[0]!r} has no bounds")
        for name, (lo, hi) in self.bounds.items():  # every pair, free or not
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
                raise ValueError(
                    f"bounds for {name!r} must be a finite ordered pair, "
                    f"got ({lo}, {hi})"
                )
        if not (math.isfinite(self.interval_lo) and math.isfinite(self.interval_hi)):
            raise ValueError(
                "target interval must have finite ends, got "
                f"[{self.interval_lo}, {self.interval_hi}]"
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
        if not math.isfinite(self.press_angle):
            raise ValueError(f"press angle must be finite, got {self.press_angle}")
        if not self.sweep_lo <= self.interval_lo or not self.interval_hi <= self.sweep_hi:
            raise ValueError(
                "target interval must lie inside the sweep range "
                f"[{self.sweep_lo}, {self.sweep_hi}], got "
                f"[{self.interval_lo}, {self.interval_hi}]"
            )
        return self
