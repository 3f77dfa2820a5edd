"""Bracketed scalar root finding.

All characteristic-SINR equations used here cross zero exactly once, from
positive to negative.  The bracket is grown geometrically from 1 and then
collapsed by plain bisection; bisection is preferred over Newton steps
because the second derivative of the efficiency models changes sign inside
the search interval.
"""

from __future__ import annotations

from typing import Callable

from .errors import SolverError

BRACKET_FLOOR = 1e-12  # expand_bracket gives up below this
MAX_STEPS = 200  # doublings, halvings or bisection steps, each loop at most
REL_TOL = 1e-15  # bisection stops once hi - lo <= REL_TOL * hi


def expand_bracket(fn: Callable[[float], float]) -> tuple[float, float] | None:
    """Find [lo, hi] with fn(lo) > 0 >= fn(hi) around a sign change.

    Doubles upward from 1 while fn is positive, halves downward while it is
    negative.  Returns None when fn stays negative all the way down to
    BRACKET_FLOOR, which callers interpret as "no positive root".
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
        if lo < BRACKET_FLOOR:
            return None
        if fn(lo) > 0.0:
            return lo, hi
        lo, hi = 0.5 * lo, lo
    raise SolverError("no sign change found contracting down from 1.0")


def bisect(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Bisection on a bracket with fn(lo) > 0 >= fn(hi)."""
    if lo == hi:
        return lo
    if not lo < hi:
        raise SolverError(f"invalid bracket [{lo}, {hi}]")
    for _ in range(MAX_STEPS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval collapsed to adjacent floats
        if fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= REL_TOL * hi:
            break
    return 0.5 * (lo + hi)
