"""The opening envelope inferred from the roots of the verdict's sign functions.

Every sign the opening verdict reads is an ``a*cos(zeta) + b*sin(zeta)``
function of the press direction, one of :func:`_sign_functions`, so the
verdict can only change where one of them crosses zero.  :func:`envelope`
returns the envelope of the full grid sweep,
``opening_interval(sweep(...))``, bit for bit, its edges bisected to the
same ``modeswitch.DEFAULT_REFINE_TOL``, but only the grid points around
those roots need a verdict of their own, and a bisection midpoint needs
one only when it lies next to a root or between two; every other midpoint
takes the known verdict of the bracket end it shares a root-free stretch
with.  Wherever :func:`_roots_by_function` does not trust the roots, or
the computed points leave a verdict change unexplained
(:func:`~linkstat.modeswitch._runs`), the full sweep runs instead.  The
same roots tell the design search when a move that only scales the spring
moments keeps every verdict (:func:`_spring_scale_keeps_verdicts`).

Only the design search runs this code, so a sweep from the command line
never loads it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Sequence

from . import _EXPORTS
from .model import (
    DEFAULT_SWEEP_HI,
    DEFAULT_SWEEP_LO,
    DEFAULT_SWEEP_STEP,
    LinkageParameters,
    spring_force,
    sweep_grid,
)
from .modeswitch import (
    _ROOT_WINDOW,
    OpeningInterval,
    _refine_runs,
    _runs,
    opening_interval,
    sweep_points,
)
from .statics import _DET_RELATIVE_FLOOR, _OPENS, _build_terms, _decide_all

__all__ = _EXPORTS["roots"]

# A sign function whose amplitude is below this fraction of the size of
# the terms summed into it is too cancelled to trust its roots; the
# envelope then falls back to a verdict at every grid point.
_CANCELLATION_FLOOR = 1e-6
# A det reads singular near its roots, where it falls below the singular
# floor.  That band must lie well inside the root window, so a det whose
# floor reaches this fraction of its amplitude falls back the same way:
# at a distance d from a root the det is at least amplitude*sin(d).
_FLOOR_REACH = 0.5 * math.sin(_ROOT_WINDOW)


def _sign_functions(p: LinkageParameters) -> list[tuple[float, float, float, float]]:
    """Every function of the press direction whose sign the verdict reads.

    Each is an ``(a, b, size, floor)`` tuple for ``a*cos(zeta) +
    b*sin(zeta)``, with ``size`` bounding the terms summed into it and
    ``floor`` bounding the magnitude below which the verdict reads
    something other than its sign: the singular floor for a det, zero
    for the others.  In :func:`~linkstat.statics.assemble_system` only
    a00 and a10 depend on zeta, both through such terms, and the xi
    numerator does not depend on it at all.  So the verdict is fixed
    between roots of a00 (probe force f_rx), of a10 (f_sx, the sign of
    the tip moment ratio), of the beta numerator (the same on both
    friction branches) and of det on each branch (singularity, the sign
    of xi, and with the beta numerator the branch choice).  Where beta is
    zero both branches share xi = b0/a00, so a root of the beta numerator
    alone never flips ``opens``; it is kept so that every sign the
    decision reads is fixed between computed points.  The (a, b) pairs of
    a00 and a10 are the statics' own per-build terms, the closed forms the
    kernel evaluates, and those terms refuse every build that validation
    refuses.  The beta numerator comes last.
    """
    t = _build_terms(p)
    s13, s34 = t.s13, t.s34
    (c00, s00), (c10, s10) = t.a00, t.a10
    # Sizes: the tip moment ratio's terms l4*cos(z) and l3*sin(theta2 + z)
    # over its divisor, times s13 or s34; a00 adds sin(theta1 - z).
    g_size = (abs(p.l4) + abs(p.l3)) / abs(t.arm)
    size00 = abs(s13) * g_size + 1.0
    size10 = abs(s34) * g_size
    # det = a11*a00 - s13*a10 on each branch, and the beta numerator
    # b1*a00 - b0*a10; a01 = s13, a11 and b do not depend on zeta.  A det
    # reads singular below _DET_RELATIVE_FLOOR times the squared row
    # scale, max(hypot(a00, a01), hypot(a10, a11)), which the sizes bound.
    # A size whose square overflows raises OverflowError here.
    row00_sq = size00 ** 2 + s13 * s13
    size10_sq = size10 ** 2
    functions = [(c00, s00, size00, 0.0), (c10, s10, size10, 0.0)]
    for u in (t.plus, t.minus):
        functions.append((
            u * c00 - s13 * c10,
            u * s00 - s13 * s10,
            abs(u) * size00 + abs(s13) * size10,
            _DET_RELATIVE_FLOOR * max(row00_sq, size10_sq + u * u),
        ))
    b0, b1 = t.b0, t.b1
    functions.append(
        (b1 * c00 - b0 * c10, b1 * s00 - b0 * s10, abs(b1) * size00 + abs(b0) * size10, 0.0)
    )
    return functions


def _roots_by_function(
    p: LinkageParameters, lo: float, hi: float
) -> list[list[float]] | None:
    """Zeros of each sign function within [lo, hi], widened by the root window.

    One list per function of :func:`_sign_functions`, in its order, each
    ascending.  The one rule for trusting the roots: None when the sign
    functions cannot be formed (the build's terms raise ValueError for a
    build that validation refuses, or a size squared overflows), an
    amplitude, size or floor is not finite, a sign function is too
    cancelled to trust, or a det's floor could reach past the root
    window; the envelope then sweeps.
    """
    try:
        functions = _sign_functions(p)
    except (ValueError, OverflowError):
        return None
    hypot, isfinite, atan2, ceil, floor, pi = (
        math.hypot, math.isfinite, math.atan2, math.ceil, math.floor, math.pi)
    half_pi = 0.5 * pi
    reach_lo, reach_hi = lo - _ROOT_WINDOW, hi + _ROOT_WINDOW
    cancellation_floor, floor_reach = _CANCELLATION_FLOOR, _FLOOR_REACH
    groups: list[list[float]] = []
    for a, b, size, det_floor in functions:
        amplitude = hypot(a, b)
        if not (isfinite(amplitude) and isfinite(size) and isfinite(det_floor)):
            return None
        if amplitude == 0.0 and size == 0.0:
            groups.append([])  # identically zero, so its sign never changes
            continue
        if amplitude < cancellation_floor * size or det_floor >= floor_reach * amplitude:
            return None
        # a*cos(z) + b*sin(z) = R*cos(z - atan2(b, a)) vanishes pi/2 past the phase.
        first = atan2(b, a) + half_pi
        k = ceil((reach_lo - first) / pi)
        k_hi = floor((reach_hi - first) / pi)
        group = []
        while k <= k_hi:
            group.append(first + k * pi)
            k += 1
        groups.append(group)
    return groups


# The fields a spring-scale move changes: they enter the 2x2 balance only
# through its spring moments (b0, b1), which they scale by one factor.
_SPRING_SCALE_FIELDS = frozenset({"spring_k", "natural_length", "l0", "l1"})

# A spring-scale move leaves xi's numerator b0*a11 - s13*b1 (the same at
# every press direction) its computed sign when the numerator clears this
# fraction of the size of its two terms.
_SCALE_MARGIN = 1e-9
# Spring moments kept within these magnitudes, so that their products
# with the matrix entries neither underflow nor overflow.
_MOMENT_MIN = 2.0 ** -256
_MOMENT_MAX = 2.0 ** 256


def _spring_scalable(p: LinkageParameters) -> bool:
    """Whether ``p`` pulls the finger shut with spring moments of ordinary size.

    True when the spring force is positive and both spring moments b0,
    b1 lie within [2**-256, 2**256] in magnitude.  Two such builds of one
    geometry have spring moments that differ by one positive factor, up
    to a few roundings in each.  ``p`` must validate, else ValueError.
    """
    if not spring_force(p) > 0.0:
        return False
    t = _build_terms(p)
    return all(_MOMENT_MIN <= abs(b) <= _MOMENT_MAX for b in (t.b0, t.b1))


def _spring_scale_keeps_verdicts(p: LinkageParameters, lo: float, hi: float) -> bool:
    """Whether a spring-scale move from ``p`` keeps every verdict in [lo, hi].

    A spring-scale move changes only spring_k, natural_length, l0 or l1,
    from and to builds that :func:`_spring_scalable` accepts.  It
    multiplies (b0, b1) by one positive factor, up to a few roundings in
    each, and leaves the geometry alone.  The verdict's status is then
    the same at every press direction in [lo, hi], bit for bit, when this
    returns True:

    * a00, a10, a01, a11 and det of each branch, the singular floor and
      the probe forces f_rx, f_sx do not read b, so the singular and
      probe-force verdicts cannot change;
    * on a fixed branch s, sign(xi) = sign(N_s)*sign(det_s), where
      N_s = b0*a11_s - s13*b1 does not depend on the press direction.
      Its computed sign is exact when |N_s| clears _SCALE_MARGIN of
      |b0*a11_s| + |s13*b1|, which is checked on both branches;
    * the branch choice reads the sign of the beta numerator
      b1*a00 - b0*a10, which rounding can flip only within far less than
      the root window of its root.  At that root beta is zero on both
      branches, so both give xi = b0/a00, and the status could differ
      only if another sign function (a00, a10 or a det, which includes
      its singular band) changed sign there too.  So no root of the beta
      numerator in [lo, hi] may lie within twice the root window of a
      root of any other sign function, and :func:`_roots_by_function`
      must trust the roots.

    Equal statuses at every press direction give equal grid verdicts and
    equal bisections, so :func:`envelope`, which equals
    ``opening_interval(sweep(...))`` bit for bit, returns the same
    intervals for both builds.  False also when ``p`` is not
    :func:`_spring_scalable`.
    """
    if not _spring_scalable(p):
        return False
    groups = _roots_by_function(p, lo, hi)
    if groups is None:
        return False
    t = _build_terms(p)
    b0, b1, s13 = t.b0, t.b1, t.s13
    for a11 in (t.plus, t.minus):
        if not abs(b0 * a11 - s13 * b1) > _SCALE_MARGIN * (abs(b0 * a11) + abs(s13 * b1)):
            return False
    *others, beta_roots = groups  # the beta numerator is the last sign function
    reach = 2.0 * _ROOT_WINDOW
    return not any(
        abs(r - q) <= reach for r in beta_roots for group in others for q in group
    )


def envelope(
    p: LinkageParameters,
    zeta_lo: float = DEFAULT_SWEEP_LO,
    zeta_hi: float = DEFAULT_SWEEP_HI,
    step: float = DEFAULT_SWEEP_STEP,
) -> tuple[OpeningInterval, ...]:
    """The opening envelope of the grid sweep, without sampling every point.

    Returns exactly ``opening_interval(sweep(p, zeta_lo, zeta_hi, step))``.
    Verdicts are computed only at the two range ends and at the grid
    points bracketing each root of the sign functions the verdict reads;
    every other grid point takes the verdict of the computed points around
    it, since no sign changes between them, and :func:`_runs` reads the
    runs from the computed points alone.  The edges are bisected to
    ``modeswitch.DEFAULT_REFINE_TOL`` as in :func:`opening_interval`, but
    a midpoint whose segment to one end of the bracket holds no root takes
    that end's verdict, so only a midpoint within the root window of a
    root, or between two roots, gets a verdict of its own.  If two
    computed grid points around an uncomputed stretch disagree, or
    :func:`_roots_by_function` does not trust the roots, the full sweep
    runs instead: every grid point and every midpoint gets its own
    verdict, and a build the sweep refuses raises the sweep's error.
    """
    return _envelope(p, sweep_grid(zeta_lo, zeta_hi, step))


def _probe_indices(grid: Sequence[float], roots: Sequence[float]) -> list[int]:
    """The ascending grid indices that get a verdict of their own.

    Those are both range ends and, for each of the ascending ``roots``,
    the grid points from the last one at or below ``root - _ROOT_WINDOW``
    to the first one at or above ``root + _ROOT_WINDOW``, clipped to the
    grid.  The stretches of ascending roots ascend too, so each adds only
    the indices past the highest one already taken.
    """
    last = len(grid) - 1
    order = [0]
    top = 0  # the highest index in order
    for root in roots:
        first = bisect_right(grid, root - _ROOT_WINDOW) - 1
        past = bisect_left(grid, root + _ROOT_WINDOW)
        if past > last:
            past = last
        if past > top:
            order.extend(range(top + 1 if first <= top else first, past + 1))
            top = past
    if top < last:
        order.append(last)
    return order


def _envelope(p: LinkageParameters, grid: Sequence[float]) -> tuple[OpeningInterval, ...]:
    """:func:`envelope` on a built grid, with :func:`_runs` over the probed verdicts."""
    groups = _roots_by_function(p, grid[0], grid[-1])
    if groups is not None:
        roots: list[float] = []
        for group in groups:
            roots += group
        roots.sort()
        order = _probe_indices(grid, roots)
        verdicts = _decide_all(p, [grid[i] for i in order])
        runs = _runs(order, [v[0] == _OPENS for v in verdicts])
        if runs is not None:
            return _refine_runs(p, grid, runs, roots)
    return opening_interval(sweep_points(p, grid))
