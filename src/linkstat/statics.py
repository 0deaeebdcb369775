"""Quasi-static force balance for the finger pressing on an object edge.

When the closed finger is pushed against a fixed edge, the contact force
on the tip pad works against the return spring through the linkage.  The
balance of that contest decides whether the finger stays clamped
(parallel grip) or swings open (turn-over).  Everything here is a rigid
linkage in a plane with Coulomb friction at the slotted pin, so the whole
problem reduces to small linear systems.

Two independent routes compute the same state:

* :func:`solve_balance` aggregates the member balances into a 2x2 system
  in the contact force and one internal strut force.
* :func:`~linkstat.oracle.full_equilibrium` writes out the raw per-member
  force and moment balances as a 9-unknown linear system and solves that
  directly.

The second route, the oracle, cross-checks the first from
:mod:`linkstat.oracle`, which ``linkstat.statics.full_equilibrium``
loads on first lookup.  The first route, every sweep and search run in
plain floats; only the oracle loads numpy.

The first route has one copy of its decision logic and its one 2x2
solve: the private scalar kernel :func:`_decide_all` takes a build and a
list of press directions.  For each it assembles the two press-dependent
entries, solves the +1 friction branch and, if the strut force
contradicts it, the -1 branch (or a pinned branch alone), applies the
singular floor and the opening rule, and returns a plain tuple (status
code, xi, beta, branch, det, a00, a10, f_rx, f_sx).  :func:`_decide` is
its one-point case.  Callers holding many press directions of one build
(a sweep, the envelope's probes and measurement comparison) hand them
over in one call; the edge bisection, the switching threshold and design
scoring ask one point at a time.  Only a sweep builds objects:
:func:`_opening_decision`, the one builder of :class:`OpeningDecision`,
repackages each tuple, bit for bit, for callers that read its fields
(the CLI's sweep CSV), and :func:`predict_opening` is its view of one
point.  :func:`solve_balance` and :func:`solve_balance_with_sign`
repackage the :class:`BalanceSolution` alone.

The press-independent terms of the 2x2 balance are derived once per
build by :class:`linkstat.model._Derivation`, on the same pass that
validates the build; :func:`_build_terms` hands them to this route and
refuses, with the first ``validate`` line, every build that validation
refuses.  Every public function here goes through it, the helpers
:func:`tip_moment_ratio` (over the terms' coupler moment arm) and
:func:`friction_coupling` (the terms' coupling) included, so that line
is the only refusal of a build this route gives.  :func:`_decide_all`
reads the terms once per call, in one unpack of a tuple they hold; the
per-point work is then the arithmetic of the decision alone.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, NamedTuple

from . import _EXPORTS, _forward
from .model import LinkageParameters, _Derivation, _derive

__all__ = _EXPORTS["statics"]

# A 2x2 determinant below this fraction of the squared row scale is
# treated as singular rather than solved into garbage.
_DET_RELATIVE_FLOOR = 1e-12


class SingularSystemError(RuntimeError):
    """The balance system has no usable solution at this press direction."""


def tip_moment_ratio(p: LinkageParameters, zeta: float) -> float:
    """Ratio coupling the tip contact force into the coupler strut load.

    ``zeta`` is the press direction in radians, measured at the tip pad;
    zero presses straight along the pad normal.  The ratio changes sign
    where the contact force line crosses the slotted strut axis, which is
    what ultimately bounds the opening envelope from below.  The raw trig
    numerator is divided by the build's coupler moment arm
    l2*sin(theta2+theta3), its derivation's ``arm``.  Raises ValueError
    for a non-finite press direction, then, with the first ``validate``
    line, for a build that validation refuses.
    """
    _require_finite(zeta)
    arm = _build_terms(p).arm
    return (p.l4 * math.cos(zeta) - p.l3 * math.sin(p.theta2 + zeta)) / arm


def friction_coupling(p: LinkageParameters, sign_beta3: int) -> float:
    """Transmission factor through the slotted pin for a friction branch,
    (s*mu*sin(theta3) + cos(theta3)) / (-s*mu*sin(theta2) + cos(theta2)).

    ``sign_beta3`` picks the assumed slip sense s, +1 or -1.  With mu = 0
    both branches collapse to the same frictionless value.  The coupling
    is the one the build's derivation holds; times sin(theta4 - theta2)
    it is the branch's a11.  Raises ValueError, with the first ``validate``
    line, for a build that validation refuses, then for a sign other than
    +1 or -1.
    """
    return _build_terms(p).coupling(sign_beta3)


class BalanceSystem(NamedTuple):
    """The aggregated 2x2 balance, kept for inspection and reuse.

    [[a00, a01], [a10, a11]] * (xi_b, beta_3b) = (b0, b1), with xi_b the
    contact force magnitude and beta_3b the coupler strut force, both in
    N.  Only a00 and a10 depend on the press direction, and only a11 on
    the friction branch.
    """

    a00: float
    a01: float
    a10: float
    a11: float
    b0: float
    b1: float

    @property
    def det(self) -> float:
        return self.a00 * self.a11 - self.a01 * self.a10


def _require_finite(zeta: float) -> None:
    if not math.isfinite(zeta):
        raise ValueError(f"press direction must be finite, got {zeta!r}")


def _build_terms(p: LinkageParameters) -> _Derivation:
    """The press-independent terms of ``p``, derived once per build.

    Raises ValueError for a build that :func:`~linkstat.model.validate_parameters`
    refuses, with the report's first line as its text, so this route
    refuses exactly the builds validation refuses.
    """
    terms = _derive(p)
    if terms.kernel is None:
        first = terms.report.violations[0]
        raise ValueError(f"{first.field}: {first.message}")
    return terms


def assemble_system(
    p: LinkageParameters, zeta: float, sign_beta3: int
) -> BalanceSystem:
    """Build the 2x2 balance for one press direction and friction branch.

    Raises ValueError for a non-finite press direction and for a branch
    sign other than +1 or -1.
    """
    _require_finite(zeta)
    t = _build_terms(p)
    (c00, s00), (c10, s10) = t.a00, t.a10
    cz, sz = math.cos(zeta), math.sin(zeta)
    return BalanceSystem(
        a00=c00 * cz + s00 * sz,
        a01=t.s13,
        a10=c10 * cz + s10 * sz,
        a11=t.branch(sign_beta3),
        b0=t.b0,
        b1=t.b1,
    )


class BalanceSolution(NamedTuple):
    """Solved contact and strut forces for one press direction."""

    xi_b: float
    beta_3b: float
    sign_beta3: int
    sign_consistent: bool
    system: BalanceSystem


def _singular_error(zeta: float, det: float) -> SingularSystemError:
    return SingularSystemError(
        f"balance matrix is singular at press direction "
        f"{math.degrees(zeta):.6g} deg (det = {det:.3e})"
    )


# Status codes of a verdict, the first field of a _decide tuple.
_OPENS, _NEGATIVE_XI, _CONTACT_MAINTAINED, _SINGULAR = range(4)

# The singular floor compares |det| with _DET_RELATIVE_FLOOR times the
# squared row scale, max(hypot(a00, a01), hypot(a10, a11))**2.  The sum
# of the four squared entries bounds that square from above, so a det
# that clears this slightly larger fraction of the sum clears the floor
# too, and the hypot rule runs only for the rest.  The margin covers the
# rounding of both sides (a few ulps each) wherever the products stay
# normal; where they underflow, the floor itself rounds to zero, leaving
# only det == 0 singular, which the strict test below never passes.  An
# inf or nan anywhere fails the strict test and takes the hypot rule.
_DET_SAFE_FLOOR = _DET_RELATIVE_FLOOR * (1 + 1e-9)

_Verdict = tuple[int, float, float, int, float, float, float, float, float]


def _decide_all(
    p: LinkageParameters, zetas: Iterable[float], pinned: int | None = None
) -> list[_Verdict]:
    """The opening verdicts for many press directions, in plain floats.

    Returns one ``(status, xi, beta, branch, det, a00, a10, f_rx, f_sx)``
    tuple per press direction, in order: the status code, the balance
    force, the coupler strut force, the friction branch kept, det of
    that branch, the two press-dependent entries of the 2x2 balance and
    the two probe forces.  A _SINGULAR verdict carries the det that fell
    below the floor and nan forces.

    This is the only copy of the decision and the only 2x2 solve: the
    +1 -> -1 friction retry of :func:`solve_balance`, the singular floor
    and the opening rule of :func:`predict_opening`, applied point by
    point.  Once per call it reads the build's 12 press-independent
    values in one unpack of the terms' ``kernel``, binds the floors and
    status codes as locals and squares a01.  Each point then runs one
    branch loop that starts on the +1 branch, or on ``pinned`` (+1 or -1,
    else ValueError), whose answer is kept whatever the sign of its strut
    force.  a00, a10 and det are the expressions :func:`assemble_system`
    and ``BalanceSystem.det`` evaluate, so the wrappers that repackage a
    tuple into named tuples give the same bits, and the probe forces are
    computed here alone.  A non-finite press direction raises ValueError.
    """
    t = _build_terms(p)
    a01, plus, minus, b0, b1, eps, cos1, cos4, c00, s00, c10, s10 = t.kernel
    first, first_a11, last = (
        (1, plus, -1) if pinned is None else (pinned, t.branch(pinned), pinned))
    a01_sq = a01 * a01
    safe_floor, relative_floor = _DET_SAFE_FLOOR, _DET_RELATIVE_FLOOR
    opens, negative_xi, contact_maintained, singular = (
        _OPENS, _NEGATIVE_XI, _CONTACT_MAINTAINED, _SINGULAR)
    cos, sin, hypot, isfinite = math.cos, math.sin, math.hypot, math.isfinite
    nan = math.nan
    verdicts: list[_Verdict] = []
    append = verdicts.append
    for zeta in zetas:
        if not isfinite(zeta):
            _require_finite(zeta)
        cz, sz = cos(zeta), sin(zeta)
        a00 = c00 * cz + s00 * sz
        a10 = c10 * cz + s10 * sz
        branch, a11 = first, first_a11
        while True:
            det = a00 * a11 - a01 * a10
            sum_sq = a00 * a00 + a01_sq + a10 * a10 + a11 * a11
            if not abs(det) > safe_floor * sum_sq:
                row_scale = max(hypot(a00, a01), hypot(a10, a11))
                if det == 0.0 or abs(det) < relative_floor * row_scale * row_scale:
                    append((singular, nan, nan, branch, det, a00, a10, nan, nan))
                    break
            beta = (a00 * b1 - a10 * b0) / det
            # Keep a +1 answer that agrees with its branch, and the last branch's
            # answer either way.
            if beta >= 0.0 or branch == last:
                xi = (b0 * a11 - a01 * b1) / det
                f_rx = -(eps * a00) / cos1
                f_sx = -(eps * a10) / cos4
                if xi < 0.0:
                    status = negative_xi
                elif f_rx <= 0.0 and f_sx >= 0.0:
                    status = opens
                else:
                    status = contact_maintained
                append((status, xi, beta, branch, det, a00, a10, f_rx, f_sx))
                break
            branch, a11 = -1, minus
    return verdicts


def _decide(p: LinkageParameters, zeta: float) -> _Verdict:
    """The verdict of :func:`_decide_all` for one press direction."""
    return _decide_all(p, (zeta,))[0]


def _solution(p: LinkageParameters, zeta: float, verdict: tuple) -> BalanceSolution:
    """The BalanceSolution of a _decide tuple; raises for a singular one."""
    status, xi, beta, branch, det = verdict[:5]
    if status == _SINGULAR:
        raise _singular_error(zeta, det)
    return BalanceSolution(
        xi_b=xi,
        beta_3b=beta,
        sign_beta3=branch,
        sign_consistent=(beta >= 0.0) == (branch == 1),  # the kernel's rule
        system=assemble_system(p, zeta, branch),
    )


def solve_balance_with_sign(
    p: LinkageParameters, zeta: float, sign_beta3: int
) -> BalanceSolution:
    """Solve the balance with the friction branch pinned, no iteration.

    ``sign_beta3`` is +1 or -1; any other value raises ValueError, after
    a non-finite ``zeta`` does.  The solve is :func:`_decide_all`'s on
    the pinned branch; a singular one raises SingularSystemError.
    """
    _require_finite(zeta)
    return _solution(p, zeta, _decide_all(p, (zeta,), sign_beta3)[0])


def solve_balance(p: LinkageParameters, zeta: float) -> BalanceSolution:
    """Solve the aggregated balance, iterating the friction branch once.

    The slip sense at the slotted pin is not known in advance.  Start on
    the +1 branch; if the solved strut force contradicts it, switch to
    the -1 branch and accept that answer.  The switch reuses the +1
    entries with only a11, the friction branch's entry, replaced, which
    gives exactly ``solve_balance_with_sign(p, zeta, -1)``.  A solution
    whose strut force still contradicts its branch after the switch is
    returned with ``sign_consistent`` False so callers can surface it.

    When both branches are self-consistent the +1 branch is kept, and
    the two can disagree on the sign of xi: on the reference build at
    60 deg the +1 branch gives xi = -1387 N (blocked) and the -1 branch
    xi = +4.77 N.  The verdict there follows this branch order.
    The iteration itself is :func:`_decide_all`'s; this wraps its result.
    """
    return _solution(p, zeta, _decide(p, zeta))


class JointForcePair(NamedTuple):
    """Lateral driving forces on the two strut joints under a force probe.

    Obtained by nudging the contact force a small step ``epsilon`` past
    balance and reading how the joint reactions must respond.  Signs are
    what matters: they say which way each strut is being driven.
    """

    f_rx: float
    f_sx: float


def perturbed_joint_forces(p: LinkageParameters, zeta: float) -> JointForcePair:
    """Joint driving forces for a probe step past the balance point.

    The full matrix route reduces exactly to a single matrix column
    scaled by the probe step; these are the forces :func:`_decide_all`
    computes in that reduced form, and the equivalence with the matrix
    route is part of the test suite.  A singular balance raises
    SingularSystemError, a non-finite ``zeta`` ValueError.
    """
    verdict = _decide(p, zeta)
    if verdict[0] == _SINGULAR:
        raise _singular_error(zeta, verdict[4])
    return JointForcePair(verdict[7], verdict[8])


class OpeningStatus(Enum):
    OPENS = "opens"
    BLOCKED = "blocked"
    SINGULAR = "singular"


class BlockedReason(Enum):
    """Why a press direction fails to open the finger."""

    NEGATIVE_XI = "negative_xi"
    CONTACT_MAINTAINED = "contact_maintained"
    SINGULAR = "singular"


# A _decide status code as the (status, blocked_reason) of an OpeningDecision.
_VERDICT_ENUMS: dict[int, tuple[OpeningStatus, BlockedReason | None]] = {
    _OPENS: (OpeningStatus.OPENS, None),
    _NEGATIVE_XI: (OpeningStatus.BLOCKED, BlockedReason.NEGATIVE_XI),
    _CONTACT_MAINTAINED: (OpeningStatus.BLOCKED, BlockedReason.CONTACT_MAINTAINED),
    _SINGULAR: (OpeningStatus.SINGULAR, BlockedReason.SINGULAR),
}


class OpeningDecision(NamedTuple):
    """Verdict for one press direction.

    ``required_force`` is the contact force in N needed to hold balance,
    set only when the finger actually opens.  The underlying solution and
    probe forces are kept for reporting; both are None when the balance
    matrix was singular.
    """

    status: OpeningStatus
    required_force: float | None
    blocked_reason: BlockedReason | None
    forces: JointForcePair | None
    solution: BalanceSolution | None

    @property
    def opens(self) -> bool:
        return self.status is OpeningStatus.OPENS

    @property
    def sign_beta3(self) -> int:
        return self.solution.sign_beta3 if self.solution is not None else 0

    @property
    def sign_consistent(self) -> bool:
        return self.solution.sign_consistent if self.solution is not None else False


def predict_opening(p: LinkageParameters, zeta: float) -> OpeningDecision:
    """Decide whether pressing along ``zeta`` swings the finger open.

    Opening requires a non-negative balance force together with probe
    forces that drive the left strut joint inward (f_rx <= 0) and the
    right strut joint outward (f_sx >= 0); that combination releases the
    clamp instead of tightening it.  A negative balance force means the
    press direction cannot reach balance at all and is reported as
    NEGATIVE_XI; the wrong probe-force pattern is CONTACT_MAINTAINED.
    The friction branch is the one :func:`solve_balance` keeps, +1 when
    both are self-consistent, so a NEGATIVE_XI verdict can hold on that
    branch alone (the reference build at 60 deg has xi = +4.77 N on the
    -1 branch).  A non-finite ``zeta`` raises ValueError rather than get
    a verdict.  The decision is :func:`_decide`'s, repackaged by
    :func:`_opening_decision`.
    """
    return _opening_decision(p, zeta, _decide(p, zeta))


def _opening_decision(
    p: LinkageParameters, zeta: float, verdict: _Verdict
) -> OpeningDecision:
    """The OpeningDecision of ``p`` at ``zeta`` from its kernel ``verdict``."""
    code = verdict[0]
    status, reason = _VERDICT_ENUMS[code]
    if code == _SINGULAR:
        return OpeningDecision(
            status=status,
            required_force=None,
            blocked_reason=reason,
            forces=None,
            solution=None,
        )
    return OpeningDecision(
        status=status,
        required_force=verdict[1] if code == _OPENS else None,
        blocked_reason=reason,
        forces=JointForcePair(f_rx=verdict[7], f_sx=verdict[8]),
        solution=_solution(p, zeta, verdict),
    )


__getattr__ = _forward(globals())  # full_equilibrium, from linkstat.oracle
