"""Parameters and their validation for the parallel-link finger.

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
from dataclasses import dataclass, fields, replace

__all__ = [
    "LinkageParameters",
    "ParameterViolation",
    "ValidationReport",
    "default_parameters",
    "validate_parameters",
]

# Fields that measure a physical length and therefore must be positive.
_LENGTH_FIELDS = ("l0", "l1", "l2", "l3", "l4", "natural_length")

# Joint angle fields, each confined to the open interval (-pi/2, pi/2).
_ANGLE_FIELDS = ("theta0", "theta1", "theta2", "theta3", "theta4", "theta5")

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class LinkageParameters:
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
        """Return a copy with the named fields replaced."""
        return replace(self, **changes)

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ParameterViolation:
    """A single broken parameter rule."""

    field: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[ParameterViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.ok:
            return "parameters ok"
        return "\n".join(f"{v.field}: {v.message}" for v in self.violations)


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

    # theta2 = -theta3 collapses the coupler moment arm: the pair is
    # degenerate even though each angle passes its own range check.
    t2, t3 = p.theta2, p.theta3
    if math.isfinite(t2) and math.isfinite(t3) and math.sin(t2 + t3) == 0.0:
        found.append(
            ParameterViolation(
                "theta2",
                f"theta2 + theta3 = {t2 + t3} makes sin(theta2+theta3) vanish; "
                "the coupler transmits no moment (degenerate pair theta2, theta3)",
            )
        )

    # The slotted pin self-locks once the friction angle reaches the
    # slot's complement, mu >= cot|theta2|: the coupling denominator
    # -s*mu*sin(theta2) + cos(theta2) of branch s, evaluated here exactly
    # as statics.friction_coupling does, is then <= 0, and the sliding
    # balance no longer holds.
    mu = p.mu
    if math.isfinite(t2) and math.isfinite(mu):
        sin2, cos2 = math.sin(t2), math.cos(t2)
        for s in (1.0, -1.0):
            if -s * mu * sin2 + cos2 <= 0.0:
                found.append(
                    ParameterViolation(
                        "mu",
                        f"mu = {mu} with theta2 = {t2} self-locks the slotted "
                        f"pin on the {s:+.0f} branch (mu >= cot|theta2|, so "
                        "-s*mu*sin(theta2) + cos(theta2) <= 0)",
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
