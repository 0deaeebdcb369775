"""The raw-equilibrium oracle: the member balances solved as they stand.

:func:`full_equilibrium` writes out the raw per-member force and moment
balances of the finger pressed on an object edge as a 9-unknown linear
system and solves it directly.  It exists to cross-check the aggregated
2x2 balance of :mod:`linkstat.statics` and is deliberately not
implemented in terms of it: it writes its own rows member by member, in
the class that caches them, and reads none of that route's terms (no
:class:`linkstat.model._Derivation`).  The two share only
:func:`linkstat.model.spring_force`, which scales both right-hand sides,
the refusal of a bad branch sign, :func:`linkstat.model._branch_sign_error`,
and of a non-finite press direction, and the
:class:`~linkstat.statics.SingularSystemError` both raise.

The two slip senses differ in one entry, so both systems form one
(2, 9, 9) stack that one LAPACK call solves; the branch choice and the
residual then run on plain floats.  Only four entries of each system
depend on the press direction, so the stack is written once per build,
each entry at its own row and column, and kept read-only for the most
recent build in a cache of the oracle's own; each call copies it and
writes those four entries.  This is the only code in linkstat that uses
numpy, and it imports numpy on its first call.  No command line or
search runs it: ``full_equilibrium`` still resolves on
:mod:`linkstat.statics`, loading this module on first access there.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .model import LinkageParameters, _branch_sign_error, spring_force
from .statics import SingularSystemError, _require_finite

__all__ = ["EquilibriumState", "full_equilibrium"]


class EquilibriumState(NamedTuple):
    """Full member-by-member force state from the raw 9-unknown balance.

    Forces are (x, y) pairs in N: ``f_r1`` at joint R of the left strut,
    ``f_s4`` at joint S of the right strut and ``f_pin`` on the slotted
    pin T (joints as named in :mod:`linkstat.model`); ``beta_6`` is the
    slotted strut internal force that the aggregated route folds away.
    ``residual`` is the worst scaled defect over all nine balance rows.
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


def _raw_singular_error(zeta: float, cause: str = "") -> SingularSystemError:
    return SingularSystemError(
        f"raw equilibrium is singular at press direction "
        f"{math.degrees(zeta):.6g} deg{cause}"
    )


def _all_finite(values: list[float]) -> bool:
    """Whether every value is finite.

    A sum is finite only when every term is, so the term-by-term test
    runs only when the sum is not, which an overflow can also cause.
    """
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


def _abs_max(values: list[float]) -> float:
    """max(abs(v)) over ``values``, nan if any is nan, as numpy's max gives.

    Python's ``max`` keeps a nan only when it comes first.  A sum of
    magnitudes is nan exactly when one of them is, since inf + inf = inf.
    """
    magnitudes = list(map(abs, values))
    total = sum(magnitudes)
    return max(magnitudes) if total == total else total


class _OracleTerms:
    """The raw balance of one build, less its press-dependent entries.

    ``matrix`` is the (2, 9, 9) stack of both slip senses with zeros at
    the four entries ``press_entries`` gives, and ``rhs`` its (2, 9, 1)
    right-hand sides; both are read-only, so every call solves a copy.
    ``finite`` says whether every entry but those four is finite, and
    ``scale`` is max(1, |b|), the floor of the residual's scale.  Each
    entry is written once, at its own row and column, member by member
    from the free bodies of the two struts and the slotted pin, sharing
    only :func:`spring_force` with the aggregated route.  ``arm`` is the
    coupler moment arm l2*sin(theta2+theta3); where it is zero nothing
    else is computed, since :func:`full_equilibrium` raises on it first.
    An infinite field is read as nan, so that it gives the rows a nan
    field gives rather than the ValueError ``math.sin`` raises on inf.
    """

    __slots__ = ("params", "arm", "matrix", "rhs", "scale", "press_entries", "finite")

    def __init__(self, p: LinkageParameters) -> None:
        import numpy as np

        self.params = p  # held so that the identity test in _oracle_terms stays sound
        if not math.isfinite(sum(p)):
            p = LinkageParameters(*(math.nan if math.isinf(v) else v for v in p))
        l0, l1, l2, l3, l4, theta0, theta1, theta2, theta3, theta4, theta5, _, _, mu, _ = p
        s1, c1 = math.sin(theta1), math.cos(theta1)
        s2, c2 = math.sin(theta2), math.cos(theta2)
        s3, c3 = math.sin(theta3), math.cos(theta3)
        s4, c4 = math.sin(theta4), math.cos(theta4)
        arm = self.arm = l2 * math.sin(theta2 + theta3)
        if arm == 0.0:  # full_equilibrium raises on it, before any error the rest could raise
            return
        cos, sin = math.cos, math.sin

        def press_entries(zeta: float) -> tuple[float, float, float, float]:
            # tip_moment_ratio(p, zeta), then the tip load in the strut force balances.
            gamma = (l4 * cos(zeta) - l3 * sin(theta2 + zeta)) / arm
            return gamma * s3 + sin(zeta), gamma * c3 + cos(zeta), -gamma * s3, -gamma * c3

        self.press_entries = press_entries
        f_k = spring_force(p)
        # Columns: xi, beta_3, beta_6, f_r1x, f_r1y, f_s4x, f_s4y, f_pinx, f_piny.
        # Column 0 of rows 0, 1, 3 and 4 depends on the press direction: each call writes it.
        a = np.zeros((2, 9, 9))
        plus = a[0]  # the +1 slip sense
        # Left strut: force balance (x then y), moment about the base pivot.
        plus[0, 3] = 1.0
        plus[0, 1] = s3
        plus[1, 4] = 1.0
        plus[1, 1] = c3
        plus[2, 4] = l1 * s1
        plus[2, 3] = -l1 * c1
        # Right strut: force balance, moment about the base pivot.
        plus[3, 5] = 1.0
        plus[3, 2] = s2
        plus[4, 6] = 1.0
        plus[4, 2] = -c2
        plus[5, 6] = -l1 * s4
        plus[5, 5] = -l1 * c4
        # Slotted pin: force balance, then the Coulomb row's own unknown.
        plus[6, 7] = 1.0
        plus[6, 1] = s3
        plus[6, 2] = s2
        plus[7, 8] = 1.0
        plus[7, 1] = c3
        plus[7, 2] = -c2
        plus[8, 8] = 1.0
        # The -1 slip sense differs only in the Coulomb coefficient.
        a[1] = plus
        a[0, 8, 7] = -mu
        a[1, 8, 7] = mu
        b2 = -l0 * math.cos(theta0 + theta1) * f_k
        b5 = l0 * math.cos(theta4 + theta5) * f_k
        # A stack of column vectors, not (2, 9): numpy 2 reads a 2-D b as one
        # matrix of right-hand sides, numpy 1 as a stack of vectors.
        b = np.zeros((2, 9, 1))
        b[:, 2], b[:, 5] = b2, b5
        self.finite = _all_finite([s2, c2, s3, c3, l1 * s1, -l1 * c1, -l1 * s4, -l1 * c4,
                                   mu, b2, b5])
        self.scale = max(1.0, abs(b2), abs(b5))
        a.flags.writeable = b.flags.writeable = False
        self.matrix, self.rhs = a, b


# The most recent build's oracle terms, one entry as for _build_terms but
# a cache of its own: the oracle reads nothing the aggregated route holds.
_last_oracle_terms: _OracleTerms | None = None


def _oracle_terms(p: LinkageParameters) -> _OracleTerms:
    """The raw balance of ``p`` without its press entries, built once per build.

    Read and stored whole, like :func:`_build_terms`.  A build whose
    coupler moment arm is zero is stored too; :func:`full_equilibrium`
    raises on every call on it, naming that call's press direction.
    """
    global _last_oracle_terms
    terms = _last_oracle_terms
    if terms is None or terms.params is not p:
        terms = _last_oracle_terms = _OracleTerms(p)
    return terms


def full_equilibrium(
    p: LinkageParameters, zeta: float, sign_beta3: int | None = None
) -> EquilibriumState:
    """Solve the raw member balances for one press direction.

    The Coulomb row needs an assumed slip sense at the pin, so both
    senses are solved and the self-consistent one kept.  When both are
    consistent (the friction force is essentially zero) the branch
    matching ``sign_beta3`` is preferred; an inconsistent pair is
    returned with ``consistent`` False rather than raised.

    The two senses differ only in the Coulomb entry, so both are one
    stack of two 9x9 systems that one LAPACK call solves; numpy is
    imported on the first call.  All but four entries of that stack
    belong to the build alone: each is written once per build, at its
    own row and column, and each call copies them and writes the four
    press-dependent entries of each sense.  The defect a x - b is taken
    for both senses at once; the branch choice, and ``residual``, the
    kept system's largest defect over max(1, |b|, |x|), are computed in
    floats.

    A non-finite ``zeta`` raises ValueError, then a ``sign_beta3`` other
    than None, +1 or -1 (one equal to +1 or -1 is read as that int).
    SingularSystemError, naming the press direction, is raised when the
    coupler moment arm l2*sin(theta2+theta3) is zero, when either system
    is singular, and when its rows or its solution are not finite, in
    that order.
    """
    import numpy as np

    _require_finite(zeta)
    if sign_beta3 is not None and sign_beta3 != 1 and sign_beta3 != -1:
        raise _branch_sign_error(sign_beta3)
    t = _oracle_terms(p)
    if t.arm == 0.0:
        cause = ": the coupler moment arm l2*sin(theta2+theta3) is zero"
        raise _raw_singular_error(zeta, cause)
    e00, e10, e30, e40 = t.press_entries(zeta)
    a = t.matrix.copy()
    a[0, 0, 0] = a[1, 0, 0] = e00
    a[0, 1, 0] = a[1, 1, 0] = e10
    a[0, 3, 0] = a[1, 3, 0] = e30
    a[0, 4, 0] = a[1, 4, 0] = e40
    b = t.rhs
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise _raw_singular_error(zeta) from exc
    # Checked after the solve, so that a singular system names only that.
    if not (t.finite and _all_finite([e00, e10, e30, e40])):
        raise _raw_singular_error(zeta, ": the balance rows are not finite")
    solved = x.ravel().tolist()  # the +1 sense's nine unknowns, then the -1 sense's
    if not _all_finite(solved):
        raise _raw_singular_error(zeta, ": the solution is not finite")
    defects = (a @ x - b).ravel().tolist()

    # A slip sense is consistent when the pin's slot force, unknown 7,
    # does not oppose it.
    pin_plus, pin_minus = solved[7], solved[16]
    plus_ok = pin_plus >= -1e-9 * max(1.0, abs(pin_plus))
    minus_ok = -pin_minus >= -1e-9 * max(1.0, abs(pin_minus))
    if plus_ok != minus_ok:
        chosen = 1 if plus_ok else -1
    elif sign_beta3 is not None:
        # Both senses consistent, or neither (then the pair is reported
        # inconsistent): keep the branch the strut-force sign implies.
        chosen = -1 if sign_beta3 == 1 else 1
    elif plus_ok:
        # Both senses consistent and no hint: keep sense -1 (the
        # aggregated route's +1 branch, as the hint mapping above shows)
        # when the coupler strut force, unknown 1, is non-negative in
        # both solutions, else sense +1.  The aggregated route keeps its
        # +1 branch on every tie, so the two rules differ where that
        # force is negative: an unhinted call and the fast route give
        # different xi at 61 points of the default grid (solve_balance's docstring).
        chosen = -1 if solved[1] >= 0.0 and solved[10] >= 0.0 else 1
    else:
        chosen = 1
    xs, defect = (solved[:9], defects[:9]) if chosen == 1 else (solved[9:], defects[9:])
    # Everything in the scale is finite here, so max needs no nan care.
    scale = max(t.scale, max(map(abs, xs)))
    return EquilibriumState(
        xs[0], xs[1], xs[2], (xs[3], xs[4]), (xs[5], xs[6]), (xs[7], xs[8]),
        chosen, plus_ok or minus_ok, _abs_max(defect) / scale,
    )
