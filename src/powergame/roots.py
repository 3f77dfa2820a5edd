"""Bracketed scalar root finding.

PacketSuccess's equations (InfoTheoretic's have closed forms) cross zero
exactly once, from positive to negative.  A root is the float plain
bisection returns on the bracket grown from 1, ``bisect(fn,
*expand_bracket(fn))``.  ``bisect`` runs that bisection, evaluating fn at
every midpoint.  ``bisect_near`` takes the crossing from the caller's
estimate, derives the bracket from it and replays the same bisection with
the signs away from the estimate taken as known, evaluating fn only near
it; the replay's own evaluations check the estimate.  Both go through one
loop, ``_replay``, which takes every halving from the bracket on.  fn itself
takes no Newton steps: the second derivative of the efficiency models
changes sign inside the search interval.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import SolverError

MAX_STEPS = 200  # doublings, halvings or bisection steps, each loop at most
REL_TOL = 1e-15  # bisection stops once hi - lo <= REL_TOL * hi
GUARD_ULPS = 16  # the replay evaluates fn this close to the estimate; see bisect_near


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


def bisect(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """The float plain bisection returns on a bracket with fn(lo) > 0 >= fn(hi).

    ``_replay`` on the whole bracket, so fn is called at every midpoint.  fn
    is never evaluated at lo or hi, the loop stops within MAX_STEPS steps,
    and the result lies in [lo, hi] whatever fn does.
    """
    if lo == hi:
        return lo
    if not lo < hi:
        raise SolverError(f"invalid bracket [{lo}, {hi}]")
    lo, hi = _replay(fn, lo, hi, lo, hi)
    return 0.5 * (lo + hi)


def bisect_near(fn: Callable[[float], float], x: float) -> float | None:
    """``bisect(fn, *expand_bracket(fn))``, bit for bit, with fn's crossing estimated
    at x; None where the estimate cannot stand in for those searches.

    [a, b] is x -+ GUARD_ULPS ulps, and the bracket is the one expand_bracket
    would reach, the binade [2**j, 2**(j+1)] holding the band around [a, b].
    ``_replay`` runs on it, and its last [lo, hi] checks the estimate: lying
    inside [a, b], its ends were evaluated, fn(lo) > 0 >= fn(hi), so [a, b]
    holds a sign change.  None where the band reaches a power of two, the
    bracket lies past expand_bracket's MAX_STEPS steps, or the check fails
    (x NaN or infinite included).

    Why GUARD_ULPS suffices: the replay is exact when fn's computed sign
    outside the band is that of its side.  Signs flicker only on [p, q],
    from the first float where fn <= 0 to the last where fn > 0.  A passed
    check puts the ends of the last [lo, hi] in [a, b], so p <= b and
    q >= a, and a flicker at most GUARD_ULPS ulps wide lies inside the band.
    How far the estimate is off decides only how often the check passes.

    For the characteristic equation g(x) = x (1 - A x) f'(x)/f(x) - 1 the
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

    Every halving from [lo, hi] on is a step of this loop.  Midpoints more
    than GUARD_ULPS ulps outside [a, b] take the sign of their side, and only
    midpoints in between call fn; with [a, b] = [lo, hi] every midpoint calls
    fn.  On ``bisect_near``'s binade the halvings down to the band, at most
    about 52, call nothing, and no stop test fires among them: [lo, hi] still
    holds the band, wider than REL_TOL * hi and than two floats.
    """
    left, right = _band(a, b)
    for _ in range(MAX_STEPS):
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
