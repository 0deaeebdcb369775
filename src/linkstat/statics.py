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
* :func:`full_equilibrium` writes out the raw per-member force and moment
  balances as a 9-unknown linear system and solves that directly.

The second route exists to cross-check the first and is deliberately not
implemented in terms of it.  Only that route uses numpy, and it imports
numpy on its first call: the 2x2 balance, every verdict, sweep and search
run in plain floats, so importing linkstat does not load numpy.

The first route has one copy of its decision logic: the private scalar
kernel :func:`_decide` assembles the two press-dependent entries, solves
the +1 friction branch and, if the strut force contradicts it, the -1
branch, applies the singular floor and the opening rule, and returns a
plain tuple (status code, xi, beta, branch, det, a00, a10, f_rx, f_sx).
The envelope and its edge bisection, the switching threshold, design
scoring and measurement comparison read that tuple and build no objects.
:func:`solve_balance` and :func:`predict_opening` are wrappers that
repackage the same tuple into :class:`BalanceSolution`,
:class:`BalanceSystem`, :class:`JointForcePair` and
:class:`OpeningDecision`, bit for bit, for callers that read those
fields (the CLI's sweep CSV and ``analyze``).

Most of the 2x2 balance does not depend on the press direction: the
strut-angle sines, the spring load and right-hand side, the friction
couplings and the probe-force cosines belong to the build alone.  The
first route computes them once per build and keeps the most recent
build's terms, keyed on the identity of its (frozen) parameters object,
so a sweep, a bisection or a comparison over one build leaves each
verdict only the three press-direction trig calls.  Each term is the
float expression a per-call evaluation would use, so caching changes no
bit of any result.  The raw equilibrium route never reads these terms,
which keeps it independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .model import LinkageParameters

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BalanceSolution",
    "BalanceSystem",
    "BlockedReason",
    "EquilibriumState",
    "JointForcePair",
    "OpeningDecision",
    "OpeningStatus",
    "SingularSystemError",
    "assemble_system",
    "friction_coupling",
    "full_equilibrium",
    "perturbed_joint_forces",
    "predict_opening",
    "solve_balance",
    "solve_balance_with_sign",
    "spring_force",
    "tip_moment_ratio",
]

# A 2x2 determinant below this fraction of the squared row scale is
# treated as singular rather than solved into garbage.
_DET_RELATIVE_FLOOR = 1e-12


class SingularSystemError(RuntimeError):
    """The balance system has no usable solution at this press direction."""


def _sign_of(value: float) -> int:
    """Sign convention used throughout: zero counts as positive."""
    return 1 if value >= 0.0 else -1


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


def tip_moment_ratio(p: LinkageParameters, zeta: float) -> float:
    """Ratio coupling the tip contact force into the coupler strut load.

    ``zeta`` is the press direction in radians, measured at the tip pad;
    zero presses straight along the pad normal.  The ratio changes sign
    where the contact force line crosses the slotted strut axis, which is
    what ultimately bounds the opening envelope from below.
    """
    return (p.l4 * math.cos(zeta) - p.l3 * math.sin(p.theta2 + zeta)) / (
        p.l2 * math.sin(p.theta2 + p.theta3)
    )


def friction_coupling(p: LinkageParameters, sign_beta3: int) -> float:
    """Transmission factor through the slotted pin for a friction branch.

    ``sign_beta3`` picks the assumed slip sense (+1 or -1).  With mu = 0
    both branches collapse to the same frictionless value.
    """
    s = float(sign_beta3)
    return (s * p.mu * math.sin(p.theta3) + math.cos(p.theta3)) / (
        -s * p.mu * math.sin(p.theta2) + math.cos(p.theta2)
    )


@dataclass(frozen=True, eq=False)
class BalanceSystem:
    """The aggregated 2x2 balance, kept for inspection and reuse.

    [[a00, a01], [a10, a11]] * (xi_b, beta_3b) = (b0, b1), with xi_b the
    contact force magnitude and beta_3b the coupler strut force, both in
    N.  Only a00 and a10 depend on the press direction, and only a11 on
    the friction branch.  ``matrix`` and ``rhs`` build the same entries
    as numpy arrays on demand.
    """

    a00: float
    a01: float
    a10: float
    a11: float
    b0: float
    b1: float
    tip_ratio: float
    coupling: float
    sign_beta3: int
    spring_load: float

    @property
    def det(self) -> float:
        return self.a00 * self.a11 - self.a01 * self.a10

    @property
    def matrix(self) -> np.ndarray:
        import numpy as np

        return np.array([[self.a00, self.a01], [self.a10, self.a11]], dtype=float)

    @property
    def rhs(self) -> np.ndarray:
        import numpy as np

        return np.array([self.b0, self.b1], dtype=float)


def _require_finite(zeta: float) -> None:
    if not math.isfinite(zeta):
        raise ValueError(f"press direction must be finite, got {zeta!r}")


def _friction_branch(p: LinkageParameters, sign_beta3: int) -> tuple[float, float]:
    """Coupling and a11 for one friction branch, the only branch-dependent entry."""
    lam = friction_coupling(p, sign_beta3)
    return lam, lam * math.sin(p.theta4 - p.theta2)


class _BuildTerms:
    """The entries of the 2x2 balance that do not depend on the press direction.

    Each keeps the exact expression of the formula it comes from, so it
    has the bits a per-call evaluation would give.  The -1 friction
    branch is computed on first use: many builds never need it, and its
    coupling may divide by zero where the +1 branch does not.
    """

    __slots__ = ("params", "denom", "s13", "s34", "b0", "b1", "spring_load",
                 "plus", "_minus", "cos1", "cos4")

    def __init__(self, p: LinkageParameters) -> None:
        self.params = p  # held so that the identity test in _build_terms stays sound
        self.denom = p.l2 * math.sin(p.theta2 + p.theta3)  # tip_moment_ratio's
        self.s13 = math.sin(p.theta1 - p.theta3)
        self.s34 = math.sin(p.theta3 + p.theta4)
        self.plus = _friction_branch(p, 1)
        self._minus: tuple[float, float] | None = None
        f_k = spring_force(p)
        lever = p.l0 / p.l1
        self.b0 = lever * math.cos(p.theta0 + p.theta1) * f_k
        self.b1 = -lever * math.cos(p.theta4 + p.theta5) * f_k
        self.spring_load = f_k
        self.cos1 = math.cos(p.theta1)
        self.cos4 = math.cos(p.theta4)

    def branch(self, sign_beta3: int) -> tuple[float, float]:
        """(coupling, a11) of one friction branch."""
        if sign_beta3 == 1:
            return self.plus
        if sign_beta3 != -1:
            return _friction_branch(self.params, sign_beta3)
        if self._minus is None:
            self._minus = _friction_branch(self.params, -1)
        return self._minus


# The most recent build's terms.  One entry suffices: sweeps, bisections,
# envelopes and comparisons ask about one build many times in a row.
_last_terms: _BuildTerms | None = None


def _build_terms(p: LinkageParameters) -> _BuildTerms:
    """The press-independent terms of ``p``, computed once per build.

    The entry is one object holding its own parameters, read and stored
    whole, so callers that interleave (threads, or a verdict computed
    while another build's terms are built) each get terms of their own
    build.
    """
    global _last_terms
    terms = _last_terms
    if terms is None or terms.params is not p:
        terms = _last_terms = _BuildTerms(p)
    return terms


def assemble_system(
    p: LinkageParameters, zeta: float, sign_beta3: int
) -> BalanceSystem:
    """Build the 2x2 balance for one press direction and friction branch.

    Raises ValueError for a non-finite press direction.
    """
    _require_finite(zeta)
    t = _build_terms(p)
    # tip_moment_ratio(p, zeta), with its press-independent denominator cached.
    gamma = (p.l4 * math.cos(zeta) - p.l3 * math.sin(p.theta2 + zeta)) / t.denom
    lam, a11 = t.branch(sign_beta3)
    return BalanceSystem(
        a00=gamma * t.s13 + math.sin(p.theta1 - zeta),
        a01=t.s13,
        a10=gamma * t.s34,
        a11=a11,
        b0=t.b0,
        b1=t.b1,
        tip_ratio=gamma,
        coupling=lam,
        sign_beta3=sign_beta3,
        spring_load=t.spring_load,
    )


@dataclass(frozen=True, eq=False)
class BalanceSolution:
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


def _solve_2x2(
    a00: float, a01: float, a10: float, a11: float, b0: float, b1: float, zeta: float
) -> tuple[float, float]:
    det = a00 * a11 - a01 * a10
    row_scale = max(math.hypot(a00, a01), math.hypot(a10, a11))
    if det == 0.0 or abs(det) < _DET_RELATIVE_FLOOR * row_scale * row_scale:
        raise _singular_error(zeta, det)
    xi = (b0 * a11 - a01 * b1) / det
    beta = (a00 * b1 - a10 * b0) / det
    return xi, beta


# Status codes of a verdict, the first field of a _decide tuple.
_OPENS, _NEGATIVE_XI, _CONTACT_MAINTAINED, _SINGULAR = range(4)


def _decide(
    p: LinkageParameters, zeta: float
) -> tuple[int, float, float, int, float, float, float, float, float]:
    """The opening verdict for one press direction, in plain floats.

    Returns ``(status, xi, beta, branch, det, a00, a10, f_rx, f_sx)``:
    the status code, the balance force, the coupler strut force, the
    friction branch kept, det of that branch, the two press-dependent
    entries of the 2x2 balance and the two probe forces.  A _SINGULAR
    verdict carries the det that fell below the floor and nan forces.

    This is the only copy of the decision: the +1 -> -1 friction retry
    of :func:`solve_balance`, the singular floor and the opening rule of
    :func:`predict_opening`.  Each float is the expression
    :func:`assemble_system`, :func:`solve_balance_with_sign` and
    :func:`perturbed_joint_forces` evaluate, so the wrappers that
    repackage this tuple into dataclasses give the same bits.  A
    non-finite ``zeta`` raises ValueError.
    """
    _require_finite(zeta)
    t = _build_terms(p)
    gamma = (p.l4 * math.cos(zeta) - p.l3 * math.sin(p.theta2 + zeta)) / t.denom
    a01 = t.s13
    a00 = gamma * a01 + math.sin(p.theta1 - zeta)
    a10 = gamma * t.s34
    b0, b1 = t.b0, t.b1
    for branch in (1, -1):
        a11 = t.branch(branch)[1]
        det = a00 * a11 - a01 * a10
        row_scale = max(math.hypot(a00, a01), math.hypot(a10, a11))
        if det == 0.0 or abs(det) < _DET_RELATIVE_FLOOR * row_scale * row_scale:
            nan = math.nan
            return (_SINGULAR, nan, nan, branch, det, a00, a10, nan, nan)
        beta = (a00 * b1 - a10 * b0) / det
        if beta >= 0.0:  # agrees with the +1 branch; a -1 answer is kept either way
            break
    xi = (b0 * a11 - a01 * b1) / det
    f_rx = -(p.epsilon * a00) / t.cos1
    f_sx = -(p.epsilon * a10) / t.cos4
    if xi < 0.0:
        status = _NEGATIVE_XI
    elif f_rx <= 0.0 and f_sx >= 0.0:
        status = _OPENS
    else:
        status = _CONTACT_MAINTAINED
    return (status, xi, beta, branch, det, a00, a10, f_rx, f_sx)


def _solved(system: BalanceSystem, xi: float, beta: float) -> BalanceSolution:
    return BalanceSolution(
        xi_b=xi,
        beta_3b=beta,
        sign_beta3=system.sign_beta3,
        sign_consistent=_sign_of(beta) == system.sign_beta3,
        system=system,
    )


def _solution(p: LinkageParameters, zeta: float, verdict: tuple) -> BalanceSolution:
    """The BalanceSolution of a _decide tuple; raises for a singular one."""
    status, xi, beta, branch, det = verdict[:5]
    if status == _SINGULAR:
        raise _singular_error(zeta, det)
    return _solved(assemble_system(p, zeta, branch), xi, beta)


def solve_balance_with_sign(
    p: LinkageParameters, zeta: float, sign_beta3: int
) -> BalanceSolution:
    """Solve the balance with the friction branch pinned, no iteration."""
    s = assemble_system(p, zeta, sign_beta3)
    return _solved(s, *_solve_2x2(s.a00, s.a01, s.a10, s.a11, s.b0, s.b1, zeta))


def solve_balance(p: LinkageParameters, zeta: float) -> BalanceSolution:
    """Solve the aggregated balance, iterating the friction branch once.

    The slip sense at the slotted pin is not known in advance.  Start on
    the +1 branch; if the solved strut force contradicts it, switch to
    the -1 branch and accept that answer.  The switch reuses the +1
    entries with only the friction coupling and a11 replaced, which
    gives exactly ``solve_balance_with_sign(p, zeta, -1)``.  A solution
    whose strut force still contradicts its branch after the switch is
    returned with ``sign_consistent`` False so callers can surface it.

    When both branches are self-consistent the +1 branch is kept, and
    the two can disagree on the sign of xi: on the reference build at
    60 deg the +1 branch gives xi = -1387 N (blocked) and the -1 branch
    xi = +4.77 N.  The verdict there follows this branch order.
    The iteration itself is :func:`_decide`'s; this wraps its result.
    """
    return _solution(p, zeta, _decide(p, zeta))


@dataclass(frozen=True)
class JointForcePair:
    """Lateral driving forces on the two strut joints under a force probe.

    Obtained by nudging the contact force a small step ``epsilon`` past
    balance and reading how the joint reactions must respond.  Signs are
    what matters: they say which way each strut is being driven.
    """

    f_rx: float
    f_sx: float


def perturbed_joint_forces(
    p: LinkageParameters,
    zeta: float,
    solution: BalanceSolution | None = None,
) -> JointForcePair:
    """Joint driving forces for a probe step past the balance point.

    The full matrix route reduces exactly to a single matrix column
    scaled by the probe step, so that reduced form is computed here; the
    equivalence with the matrix route is part of the test suite.
    """
    if solution is None:
        solution = solve_balance(p, zeta)
    system = solution.system
    t = _build_terms(p)
    f_rx = -(p.epsilon * system.a00) / t.cos1
    f_sx = -(p.epsilon * system.a10) / t.cos4
    return JointForcePair(f_rx=f_rx, f_sx=f_sx)


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


@dataclass(frozen=True, eq=False)
class OpeningDecision:
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
    a verdict.  The decision is :func:`_decide`'s; this builds the four
    dataclasses from its tuple.
    """
    verdict = _decide(p, zeta)
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


@dataclass(frozen=True, eq=False)
class EquilibriumState:
    """Full member-by-member force state from the raw 9-unknown balance.

    Forces are (x, y) pairs in N: ``f_r1`` at joint R of the left strut,
    ``f_s4`` at joint S of the right strut and ``f_pin`` on the slotted
    pin T (joints as named in :mod:`linkstat.model`); ``beta_6`` is the slotted strut internal force that the aggregated
    route folds away.  ``residual`` is the worst scaled defect over all
    nine balance rows.
    """

    xi: float
    beta_3: float
    beta_6: float
    f_r1: tuple[float, float]
    f_s4: tuple[float, float]
    f_pin: tuple[float, float]
    friction_sign: int
    consistent: bool
    residual: float


def _equilibrium_rows(
    p: LinkageParameters, zeta: float, slip_sign: int
) -> tuple[np.ndarray, np.ndarray]:
    """Raw balance rows, one unknown vector:

    (xi, beta_3, beta_6, f_r1x, f_r1y, f_s4x, f_s4y, f_pinx, f_piny).

    Member balances are written directly from the free bodies of the two
    struts and the slotted pin; nothing is pre-aggregated, so this stays
    an independent check on :func:`solve_balance`.
    """
    import numpy as np

    _require_finite(zeta)
    s1, c1 = math.sin(p.theta1), math.cos(p.theta1)
    s2, c2 = math.sin(p.theta2), math.cos(p.theta2)
    s3, c3 = math.sin(p.theta3), math.cos(p.theta3)
    s4, c4 = math.sin(p.theta4), math.cos(p.theta4)
    gamma = tip_moment_ratio(p, zeta)
    f_k = spring_force(p)

    a = np.zeros((9, 9), dtype=float)
    b = np.zeros(9, dtype=float)

    # Left strut, force balance (x then y).
    a[0, 3] = 1.0
    a[0, 0] = gamma * s3 + math.sin(zeta)
    a[0, 1] = s3
    a[1, 4] = 1.0
    a[1, 0] = gamma * c3 + math.cos(zeta)
    a[1, 1] = c3
    # Left strut, moment about the base pivot.
    a[2, 4] = p.l1 * s1
    a[2, 3] = -p.l1 * c1
    b[2] = -p.l0 * math.cos(p.theta0 + p.theta1) * f_k
    # Right strut, force balance.
    a[3, 5] = 1.0
    a[3, 0] = -gamma * s3
    a[3, 2] = s2
    a[4, 6] = 1.0
    a[4, 0] = -gamma * c3
    a[4, 2] = -c2
    # Right strut, moment about the base pivot.
    a[5, 6] = -p.l1 * s4
    a[5, 5] = -p.l1 * c4
    b[5] = p.l0 * math.cos(p.theta4 + p.theta5) * f_k
    # Slotted pin, force balance.
    a[6, 7] = 1.0
    a[6, 1] = s3
    a[6, 2] = s2
    a[7, 8] = 1.0
    a[7, 1] = c3
    a[7, 2] = -c2
    # Coulomb condition at the pin for the assumed slip sense.
    a[8, 8] = 1.0
    a[8, 7] = -p.mu * float(slip_sign)
    return a, b


def _solve_equilibrium_branch(
    p: LinkageParameters, zeta: float, slip_sign: int
) -> tuple[np.ndarray, float]:
    import numpy as np

    a, b = _equilibrium_rows(p, zeta, slip_sign)
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"raw equilibrium is singular at press direction "
            f"{math.degrees(zeta):.6g} deg"
        ) from exc
    defect = a @ x - b
    scale = max(1.0, float(np.max(np.abs(b))), float(np.max(np.abs(x))))
    residual = float(np.max(np.abs(defect))) / scale
    return x, residual


def full_equilibrium(
    p: LinkageParameters, zeta: float, sign_beta3: int | None = None
) -> EquilibriumState:
    """Solve the raw member balances for one press direction.

    The Coulomb row needs an assumed slip sense at the pin, so both
    senses are solved and the self-consistent one kept.  When both are
    consistent (the friction force is essentially zero) the branch
    matching ``sign_beta3`` is preferred; an inconsistent pair is
    returned with ``consistent`` False rather than raised.  A non-finite
    ``zeta`` raises ValueError.
    """
    preferred = -sign_beta3 if sign_beta3 is not None else None
    branches: dict[int, tuple[np.ndarray, float]] = {}
    consistent_signs: list[int] = []
    for slip in (1, -1):
        x, residual = _solve_equilibrium_branch(p, zeta, slip)
        branches[slip] = (x, residual)
        pin_x = float(x[7])
        tol = 1e-9 * max(1.0, abs(pin_x))
        if slip * pin_x >= -tol:
            consistent_signs.append(slip)

    if not consistent_signs:
        # Neither slip sense agrees with its own solution; report the
        # branch implied by the strut-force sign convention.
        chosen = preferred if preferred in branches else 1
        consistent = False
    elif len(consistent_signs) == 1:
        chosen = consistent_signs[0]
        consistent = True
    else:
        if preferred in consistent_signs:
            chosen = preferred
        else:
            # Tie-break with the sense opposing the coupler strut force,
            # matching the convention of the aggregated route.
            chosen = next(
                (
                    s
                    for s in consistent_signs
                    if s == -_sign_of(float(branches[s][0][1]))
                ),
                consistent_signs[0],
            )
        consistent = True

    x, residual = branches[chosen]
    return EquilibriumState(
        xi=float(x[0]),
        beta_3=float(x[1]),
        beta_6=float(x[2]),
        f_r1=(float(x[3]), float(x[4])),
        f_s4=(float(x[5]), float(x[6])),
        f_pin=(float(x[7]), float(x[8])),
        friction_sign=chosen,
        consistent=consistent,
        residual=residual,
    )
