"""Bracketed scalar root finding.

PacketSuccess's equations (InfoTheoretic's have closed forms) cross zero
exactly once, from positive to negative.  The bracket is grown from 1 and
collapsed to the float plain bisection would return: Illinois regula falsi
finds the crossing in a dozen evaluations, and the bisection is replayed
with the signs away from it taken as known.  No Newton steps: the second
derivative of the efficiency models changes sign inside the search
interval.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import SolverError

MAX_STEPS = 200  # doublings, halvings or bisection steps, each loop at most
REL_TOL = 1e-15  # bisection stops once hi - lo <= REL_TOL * hi
GUARD_ULPS = 16  # the replay evaluates fn this close to the located crossing; see bisect


def expand_bracket(fn: Callable[[float], float]) -> tuple[float, float]:
    """Find [lo, hi] with fn(lo) > 0 >= fn(hi) around a sign change.

    Doubles upward from 1 while fn is positive, halves downward while it is
    negative.  The caller guarantees a positive root: fn > 0 near 0 and
    fn <= 0 far out.  SolverError after MAX_STEPS steps either way.
    """
    f0 = fn(1.0)
    if f0 == 0.0:
        return 1.0, 1.0
    if f0 > 0.0:
        lo, hi = 1.0, 2.0
        for _ in range(MAX_STEPS):
            if fn(hi) <= 0.0:
                return lo, hi
            lo, hi = hi, 2.0 * hi
        raise SolverError("no sign change found expanding up from 1.0")
    lo, hi = 0.5, 1.0
    for _ in range(MAX_STEPS):
        if fn(lo) > 0.0:
            return lo, hi
        lo, hi = 0.5 * lo, lo
    raise SolverError("no sign change found contracting down from 1.0")


def _locate(fn: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """[a, b] inside [lo, hi] with fn(a) > 0 >= fn(b), narrowed to b - a <= REL_TOL * b.

    Illinois regula falsi (Dowell and Jarratt, BIT 1971), evaluating fn only
    strictly inside (lo, hi): the secant point of the ends, halving the value
    kept at one end when the other moves twice in a row.  It takes the
    midpoint until fn is known at both ends and while a known value is
    infinite or NaN, and keeps a secant step REL_TOL * b / 2 inside the
    bracket, so an end at the root pulls the other one in.  An end where fn
    was never evaluated stays at lo or hi.
    """
    a, b = lo, hi
    fa = fb = math.nan  # unknown until evaluated
    moved = 0  # +1 after a moved, -1 after b moved
    for _ in range(MAX_STEPS):
        tol = 0.5 * REL_TOL * b
        if b - a <= 2.0 * tol:
            break
        x = 0.5 * (a + b)
        if 0.0 < fa - fb < math.inf:
            x = a + (b - a) * (fa / (fa - fb))
            x = a + tol if x < a + tol else b - tol if x > b - tol else x
        if not a < x < b:
            break
        fx = fn(x)
        if fx > 0.0:
            if moved > 0:
                fb *= 0.5
            a, fa, moved = x, fx, 1
        else:
            if moved < 0:
                fa *= 0.5
            b, fb, moved = x, fx, -1
    return a, b


def bisect(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """The float plain bisection returns on a bracket with fn(lo) > 0 >= fn(hi).

    That float depends only on the signs of fn at the midpoints bisection
    visits.  ``_locate`` narrows the crossing to [a, b]; then bisection's
    arithmetic is replayed, a midpoint more than GUARD_ULPS ulps below a
    taking the sign +, one more than GUARD_ULPS ulps above b the sign <= 0,
    and only midpoints in between calling fn.  fn is never evaluated at lo
    or hi, each loop stops within MAX_STEPS steps, and the result lies in
    [lo, hi] whatever fn does.

    Why GUARD_ULPS suffices: the replay is exact when fn's computed sign
    outside the band is that of its side.  Signs flicker only on [p, q],
    from the first float where fn <= 0 to the last where fn > 0, and
    a <= q, b >= p, so a band as wide as the flicker suffices.  For the
    characteristic equation g(x) = x (1 - A x) dlog(x) - 1 the flicker is
    rounding noise.  Near the root g is 1 less a product of three factors
    rounded a few times, so its error is a few u (u = 2**-53); where a
    factor loses precision (1 - e**-x at small x) its rounding still keeps
    its order in x.  The slope there is steep: |x g'(x)| is
    x/(1 - e**-x) - 1 + A x/(1 - A x) > 0.7 for PacketSuccess (m >= 2)
    and 1 + A c for InfoTheoretic.  So the sign is wrong only within a few
    ulps of the root.  Measured over 19,863 random roots (m from 2 to 199,
    c from 3e-12 to 100, A from 0 past the one-shot and leader limits), the
    widest flicker spanned 4 floats, 3 ulps: the band has a fivefold margin.
    """
    if lo == hi:
        return lo
    if not lo < hi:
        raise SolverError(f"invalid bracket [{lo}, {hi}]")
    a, b = _locate(fn, lo, hi)
    left = a - GUARD_ULPS * math.ulp(a)
    right = b + GUARD_ULPS * math.ulp(b)
    # while midpoints miss the band, [lo, hi] holds [a, b] and reaches past
    # the band where it moved, so it is wider than REL_TOL * hi and than two
    # floats: neither stop test below can fire
    for step in range(MAX_STEPS):
        mid = 0.5 * (lo + hi)
        if mid < left:
            lo = mid
        elif mid > right:
            hi = mid
        else:
            break
    else:
        step = MAX_STEPS
    for _ in range(step, MAX_STEPS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval collapsed to adjacent floats
        if mid < left or (mid <= right and fn(mid) > 0.0):
            lo = mid
        else:
            hi = mid
        if hi - lo <= REL_TOL * hi:
            break
    return 0.5 * (lo + hi)
