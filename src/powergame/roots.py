"""Bracketed scalar root finding.

PacketSuccess's equations (InfoTheoretic's have closed forms) cross zero
exactly once, from positive to negative.  A root is the float plain
bisection returns on the bracket grown from 1, ``bisect(fn,
*expand_bracket(fn))``, found in two steps: locate the crossing, then replay
the bisection with the signs away from it taken as known, evaluating fn only
near it.  ``bisect`` locates by Illinois regula falsi on fn, a dozen
evaluations.  ``bisect_near`` takes the crossing from the caller's estimate
and derives the bracket from it; the replay's own evaluations check the
estimate.  fn itself takes no Newton steps: the second derivative of the
efficiency models changes sign inside the search interval.
"""

from __future__ import annotations

import math
import sys
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
    visits.  ``_locate`` narrows the crossing to [a, b]; then ``_replay``
    replays bisection's arithmetic, a midpoint more than GUARD_ULPS ulps
    below a taking the sign +, one more than GUARD_ULPS ulps above b the
    sign <= 0, and only midpoints in between calling fn.  fn is never
    evaluated at lo or hi, each loop stops within MAX_STEPS steps, and the
    result lies in [lo, hi] whatever fn does.

    Why GUARD_ULPS suffices: the replay is exact when fn's computed sign
    outside the band is that of its side.  Signs flicker only on [p, q],
    from the first float where fn <= 0 to the last where fn > 0, and
    a <= q, b >= p, so a band as wide as the flicker suffices.  Only the
    signs at a and b matter, so a bracket located from an estimate serves
    as well once they are known: ``bisect_near`` reads them off the
    replay's last [lo, hi], whose ends it evaluated.  How far the estimate
    is off decides only how often that check passes.

    For the characteristic equation g(x) = x (1 - A x) dlog(x) - 1 the
    flicker is rounding noise.  Near the root g is 1 less a product of three
    factors rounded a few times, so its error is a few u (u = 2**-53), and
    the slope is steep: |x g'(x)| is x/(1 - e**-x) - 1 + A x/(1 - A x) > 0.7
    for PacketSuccess (m >= 2) and 1 + A c for InfoTheoretic.  Where 1 - e**-x
    loses precision (small x), the rounded e**-x is a staircase whose steps
    span 2**j/e**-x floats of x on [2**-(j+1), 2**-j): below 1/16 wider than
    the band.  g falls at every step, and between steps it falls too where
    x (1 - A x) falls (2 A x > 1, as for every m >= 3 at small x); for m = 2
    it rises there and the signs can flicker across a whole step, so
    PacketSuccess keeps such roots off ``bisect_near``
    (``efficiency._packet_root``).
    Measured over 20,000 random PacketSuccess roots (m from 2 to 199 and,
    one in ten, up to 1e300; A from 0 past the one-shot and leader limits),
    19,977 crossings were clean and the widest flicker spanned 9 floats, 8
    ulps, one step at m = 2, x = 0.12: the band has a twofold margin.
    ``efficiency._newton``'s estimate sat within 2.3 ulps of the exact root
    (median 0.26, 99th percentile 0.73, against 60-digit arithmetic) and
    within 4 ulps of the float root at the 99th percentile.  It was farther
    than 8 ulps from it for 149 roots, 148 of them below 0.01, where the
    rounding of 1 - e**-x moves the float root off the exact one.
    """
    if lo == hi:
        return lo
    if not lo < hi:
        raise SolverError(f"invalid bracket [{lo}, {hi}]")
    lo, hi = _replay(fn, lo, hi, *_locate(fn, lo, hi))
    return 0.5 * (lo + hi)


def bisect_near(fn: Callable[[float], float], x: float) -> float | None:
    """``bisect(fn, *expand_bracket(fn))``, bit for bit, with fn's crossing estimated
    at x; None where the estimate cannot stand in for those searches.

    [a, b] is x -+ GUARD_ULPS ulps, and the bracket is the one expand_bracket
    would reach, the binade [2**j, 2**(j+1)] holding the band around [a, b].
    ``_replay`` runs on it, and its last [lo, hi] checks the estimate: lying
    inside [a, b], its ends were evaluated, fn(lo) > 0 >= fn(hi), so [a, b]
    holds a sign change as ``_locate``'s does.  None where the band reaches a
    power of two, the bracket lies past expand_bracket's MAX_STEPS steps, or
    the check fails (x NaN or infinite included).
    """
    a = x - GUARD_ULPS * math.ulp(x)
    b = x + GUARD_ULPS * math.ulp(x)
    left, right = _band(a, b)
    lo = math.ldexp(0.5, math.frexp(left)[1])  # the power of two at or below left
    if _LOWEST <= lo < left and right < 2.0 * lo <= _HIGHEST:
        lo, hi = _replay(fn, lo, 2.0 * lo, a, b)
        if a <= lo and hi <= b:
            return 0.5 * (lo + hi)
    return None


_LOWEST = 2.0 ** -MAX_STEPS  # the lowest lo and highest hi expand_bracket returns
_HIGHEST = 2.0 ** MAX_STEPS


def _replay(fn: Callable[[float], float], lo: float, hi: float, a: float,
            b: float) -> tuple[float, float]:
    """Plain bisection's last [lo, hi], fn's crossing located in [a, b] inside [lo, hi].

    Midpoints more than GUARD_ULPS ulps outside [a, b] take the sign of
    their side, and only midpoints in between call fn (see ``bisect``).  An
    end a = lo or b = hi, where fn was never evaluated, serves as well: the
    band then reaches past that end.
    """
    left, right = _band(a, b)
    lo, hi, step = _halve_to_band(lo, hi, left, right)
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
    return lo, hi


def _band(a: float, b: float) -> tuple[float, float]:
    """The floats GUARD_ULPS ulps outside [a, b]: the replay evaluates fn between them."""
    return a - GUARD_ULPS * math.ulp(a), b + GUARD_ULPS * math.ulp(b)


def _halve_to_band(lo: float, hi: float, left: float,
                   right: float) -> tuple[float, float, int]:
    """Bisection's [lo, hi] and step count when a midpoint first falls in [left, right].

    The halvings before it take the sign of the band's side.  While they do,
    [lo, hi] holds the band and reaches past it where it moved, so it is
    wider than REL_TOL * hi and than two floats: no stop test can fire.
    """
    if sys.float_info.min <= lo < left and right < hi == 2.0 * lo and math.frexp(lo)[0] == 0.5:
        # On the binade [lo, 2 lo] every such midpoint is exact: in units of the
        # spacing there, [lo, hi] is [0, 2**52], step s halves it at an odd multiple
        # of 2**(51 - s), and the first in [first, last] is the number there with
        # the most trailing zeros, t of them.
        unit = math.ulp(lo)
        first = int((left - lo) / unit)
        last = int((right - lo) / unit)
        t = ((first - 1) ^ last).bit_length() - 1
        mid = last >> t << t
        return lo + (mid - (1 << t)) * unit, lo + (mid + (1 << t)) * unit, 51 - t
    for step in range(MAX_STEPS):
        mid = 0.5 * (lo + hi)
        if mid < left:
            lo = mid
        elif mid > right:
            hi = mid
        else:
            return lo, hi, step
    return lo, hi, MAX_STEPS
