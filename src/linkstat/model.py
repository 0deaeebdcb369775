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

# The fields each friction branch's a11, the coupling times
# sin(theta4 - theta2), reads.
_A11_FIELDS = ("mu", "theta2", "theta3", "theta4")


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


def _branch_sign_error(sign_beta3: object) -> ValueError:
    return ValueError(f"friction branch sign must be +1 or -1, got {sign_beta3!r}")


# The report of a build that breaks no rule.
_VALID = ValidationReport(())


def _field_violations(p: LinkageParameters) -> list[ParameterViolation]:
    """The per-field rules: finite positive lengths, angles inside
    (-pi/2, pi/2) and non-negative spring_k, mu and epsilon."""
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
    return found


def _self_lock(mu: float, theta2: float, s: float) -> ParameterViolation:
    return ParameterViolation(
        "mu", f"mu = {mu} with theta2 = {theta2} self-locks the slotted pin on the "
        f"{s:+.0f} branch (mu >= cot|theta2|, so -s*mu*sin(theta2) + cos(theta2) <= 0)")


def _a11_overflow(mu: float, theta2: float, s: float, a11: float) -> ParameterViolation:
    return ParameterViolation(
        "mu", f"mu = {mu!r} with theta2 = {theta2!r} overflows the {s:+.0f} friction "
        f"branch's a11 = {a11!r}, its coupling (s*mu*sin(theta3) + cos(theta3)) "
        "/ (-s*mu*sin(theta2) + cos(theta2)) times sin(theta4 - theta2)")


class _Derivation:
    """One build's validation report and the press-independent terms of its
    2x2 balance, derived in one pass.

    Most of the 2x2 balance does not depend on the press direction: the
    strut-angle sines ``s13``, ``s34``, the right-hand side ``b0``,
    ``b1``, each friction branch's a11 (``plus``, ``minus``), the
    probe-force cosines ``cos1``, ``cos4`` and the (c, s) pairs ``a00``,
    ``a10`` of the two press-dependent entries, each c*cos(zeta) +
    s*sin(zeta).  Each is one float expression, derived once per build
    and read by every caller of the statics' 2x2 route, so caching
    changes no bit of any result; its raw-equilibrium route never reads
    them.  ``kernel`` holds the 12 values the statics' kernel reads, in
    its order (s13, plus, minus, b0, b1, epsilon, cos1, cos4 and the
    pairs of a00 and a10): one tuple unpack costs about half of 12
    attribute reads, and a one-point verdict pays it per point.

    ``report`` is the build's :class:`ValidationReport`.  Each rule that
    reads a term (the tip moment bound over the coupler moment arm
    ``arm``, the self-lock of each branch's coupling denominator, the
    spring moments and each branch's a11) reads it here, and runs only
    when none of the fields it reads broke a rule before it, so that no
    term is formed off a non-finite field or a zero divisor.  The terms
    are complete, and ``kernel`` is not None, only when the report is
    empty.
    """

    __slots__ = ("params", "report", "arm", "s13", "s34", "b0", "b1",
                 "plus", "minus", "cos1", "cos4", "a00", "a10", "kernel")

    def __init__(self, p: LinkageParameters) -> None:
        self.params = p  # held so that the identity test in _derive stays sound
        self.kernel = None
        # Fields are read once, by unpacking: a named-tuple field read per
        # use costs more than the arithmetic here.
        (l0, l1, l2, l3, l4, theta0, theta1, theta2, theta3, theta4, theta5,
         spring_k, natural_length, mu, epsilon) = p
        inf, half_pi, isfinite, sin, cos = math.inf, _HALF_PI, math.isfinite, math.sin, math.cos
        # A build inside every range breaks no per-field rule, and most
        # builds are: only the others pay for the rules' loops.
        if (0.0 < l0 < inf and 0.0 < l1 < inf and 0.0 < l2 < inf and 0.0 < l3 < inf
                and 0.0 < l4 < inf and 0.0 < natural_length < inf
                and -half_pi < theta0 < half_pi and -half_pi < theta1 < half_pi
                and -half_pi < theta2 < half_pi and -half_pi < theta3 < half_pi
                and -half_pi < theta4 < half_pi and -half_pi < theta5 < half_pi
                and 0.0 <= spring_k < inf and 0.0 <= mu < inf and 0.0 <= epsilon < inf):
            found: list[ParameterViolation] = []
        else:
            found = _field_violations(p)

        # theta2 = -theta3 collapses the coupler moment arm, though each
        # angle passes its own range check.  The sum of two finite angles
        # can overflow, and sin(inf) raises.
        if isfinite(theta2 + theta3):
            s23 = sin(theta2 + theta3)
            if s23 == 0.0:
                found.append(ParameterViolation(
                    "theta2", f"theta2 + theta3 = {theta2 + theta3} makes sin(theta2+theta3) "
                    "vanish; the coupler transmits no moment (degenerate pair theta2, theta3)"))

        # The tip moment ratio (l4*cos(zeta) - l3*sin(theta2+zeta)) over the
        # coupler moment arm overflows when l2 is tiny (l2 = 5e-324 passes
        # every rule above).  Its numerator is at most |l3| + |l4| in size.
        if not found or {v.field for v in found}.isdisjoint(_TIP_RATIO_FIELDS):
            self.arm = arm = l2 * s23
            bound = abs(l3) + abs(l4)
            if arm == 0.0 or not isfinite(bound / arm):
                found.append(ParameterViolation(
                    "l2", f"l2*sin(theta2+theta3) = {arm!r} with l2 = {l2!r}: "
                    f"|l3| + |l4| = {bound!r} over it overflows the tip moment ratio"))

        # The slotted pin self-locks once the friction angle reaches the
        # slot's complement, mu >= cot|theta2|: the coupling denominator
        # -s*mu*sin(theta2) + cos(theta2) of branch s is then <= 0, and the
        # sliding balance no longer holds.
        if isfinite(theta2) and isfinite(mu):
            sin2, cos2 = sin(theta2), cos(theta2)
            denom_plus, denom_minus = -mu * sin2 + cos2, mu * sin2 + cos2
            if denom_plus <= 0.0:
                found.append(_self_lock(mu, theta2, 1.0))
            if denom_minus <= 0.0:
                found.append(_self_lock(mu, theta2, -1.0))

        # The spring moment about each base pivot over the strut length
        # overflows when l1 is tiny next to l0 and the spring force
        # (l1 = 1e-320 passes every rule above).
        if not found or {v.field for v in found}.isdisjoint(_SPRING_MOMENT_FIELDS):
            f_k = spring_force(p)
            lever = l0 / l1
            self.b0 = b0 = lever * cos(theta0 + theta1) * f_k
            self.b1 = b1 = -lever * cos(theta4 + theta5) * f_k
            if not (isfinite(b0) and isfinite(b1)):
                found.append(ParameterViolation(
                    "l1", f"l0/l1 = {l0!r}/{l1!r} times the spring force "
                    f"overflows the spring moments (b0 = {b0!r}, b1 = {b1!r})"))

        # A coupling denominator that clears zero by a rounding error or two
        # overflows its branch's a11 (theta2 = 1e-300 with mu near 1e300).
        if not found or {v.field for v in found}.isdisjoint(_A11_FIELDS):
            sin3, cos3 = sin(theta3), cos(theta3)
            s42 = sin(theta4 - theta2)
            self.plus = plus = (mu * sin3 + cos3) / denom_plus * s42
            self.minus = minus = (-mu * sin3 + cos3) / denom_minus * s42
            if not isfinite(plus):
                found.append(_a11_overflow(mu, theta2, 1.0, plus))
            if not isfinite(minus):
                found.append(_a11_overflow(mu, theta2, -1.0, minus))

        if found:
            self.report = ValidationReport(tuple(found))
            return
        self.report = _VALID
        self.s13 = s13 = sin(theta1 - theta3)
        self.s34 = s34 = sin(theta3 + theta4)
        self.cos1 = cos1 = cos(theta1)
        self.cos4 = cos4 = cos(theta4)
        # gamma = (l4*cos(z) - l3*sin(theta2 + z)) / arm = g_a*cos(z) + g_b*sin(z),
        # finite by the tip moment rule, as are a00 and a10 with |s13|, |s34| <= 1.
        g_a = (l4 - l3 * sin2) / arm
        g_b = -l3 * cos2 / arm
        # a00 = s13*gamma + sin(theta1 - z);  a10 = s34*gamma
        self.a00 = (s13 * g_a + sin(theta1), s13 * g_b - cos1)
        self.a10 = (s34 * g_a, s34 * g_b)
        self.kernel = (s13, plus, minus, b0, b1, epsilon, cos1, cos4, *self.a00, *self.a10)

    def branch(self, sign_beta3: int) -> float:
        """a11 of one friction branch; ValueError for a sign other than +1 or -1."""
        if sign_beta3 == 1:
            return self.plus
        if sign_beta3 == -1:
            return self.minus
        raise _branch_sign_error(sign_beta3)


# The most recent build's derivation.  One entry suffices: validation,
# sweeps, bisections, envelopes and comparisons ask about one build many
# times in a row.
_last_derivation: _Derivation | None = None


def _derive(p: LinkageParameters) -> _Derivation:
    """The derivation of ``p``, computed once per build.

    The entry is one object holding its own parameters, read and stored
    whole, so that callers that interleave (threads, or a verdict computed
    while another build is derived) each get their own build's.
    """
    global _last_derivation
    derived = _last_derivation
    if derived is None or derived.params is not p:
        derived = _last_derivation = _Derivation(p)
    return derived


def validate_parameters(p: LinkageParameters) -> ValidationReport:
    """Check every parameter rule and report all violations at once.

    Never raises: a report is returned even for wildly broken input, so a
    caller can show the user the complete list in one pass.  The 2x2
    balance refuses a build by this same report.
    """
    return _derive(p).report


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
